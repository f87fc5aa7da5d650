#include "ec/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPC_CRC32C_HW 1
#include <nmmintrin.h>
#endif

namespace dpc::ec {

namespace {
constexpr std::uint32_t kPoly = 0x82F63B78;  // reflected Castagnoli

// kTables[0] is the classic byte-at-a-time table; kTables[k] advances a
// byte k positions further through the shift register, so eight lookups
// (one per table) consume eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

inline std::uint32_t step(std::uint32_t crc, std::byte b) {
  return kTables[0][(crc ^ static_cast<std::uint8_t>(b)) & 0xFF] ^
         (crc >> 8);
}

#ifdef DPC_CRC32C_HW
// "Append n zero bytes" as a linear operator on the raw (un-inverted) CRC
// register: t[k][b] is the register after n zero bytes starting from
// b << 8k, so four lookups advance any register past n zeros. Built from
// the images of the 32 basis registers, each stepped through kTables[0].
using ZerosOp = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ZerosOp make_zeros_op(std::size_t n) {
  std::array<std::uint32_t, 32> basis{};
  for (std::size_t bit = 0; bit < 32; ++bit) {
    std::uint32_t c = std::uint32_t{1} << bit;
    for (std::size_t i = 0; i < n; ++i) c = kTables[0][c & 0xFF] ^ (c >> 8);
    basis[bit] = c;
  }
  ZerosOp t{};
  for (std::size_t k = 0; k < 4; ++k)
    for (std::size_t b = 0; b < 256; ++b)
      for (std::size_t j = 0; j < 8; ++j)
        if ((b >> j) & 1) t[k][b] ^= basis[8 * k + j];
  return t;
}

inline std::uint32_t append_zeros(const ZerosOp& op, std::uint32_t c) {
  return op[0][c & 0xFF] ^ op[1][(c >> 8) & 0xFF] ^
         op[2][(c >> 16) & 0xFF] ^ op[3][c >> 24];
}

struct StreamBlock {
  std::size_t len;  // bytes per stream; a block covers 3 * len
  ZerosOp op;       // appends `len` zero bytes
};
constexpr std::array<StreamBlock, 2> kStreamBlocks = {
    StreamBlock{2048, make_zeros_op(2048)},
    StreamBlock{256, make_zeros_op(256)}};

inline std::uint64_t load64(const std::byte* p) {
  // memcpy load: payload spans carry no alignment guarantee.
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Hardware fast path: the SSE4.2 crc32 instruction implements exactly this
// reflected-Castagnoli shift register, 8 bytes per instruction with a
// 3-cycle latency and 1-cycle throughput. One dependency chain would leave
// the unit two-thirds idle, so each 3 * len block runs three independent
// chains over its thirds and joins them: crc(A||B) = zeros_|B|(crc(A)) ^
// crc_0(B), the CRC being linear in its register (Gopal et al., "Fast CRC
// Computation for iSCSI Polynomial Using CRC32 Instruction", Intel 2011).
// Compiled with a per-function target attribute so the translation unit
// itself stays baseline; only runtime detection may select it.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::byte> data, std::uint32_t crc) {
  std::uint64_t c = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (const StreamBlock& blk : kStreamBlocks) {
    const std::size_t len = blk.len;
    while (n >= 3 * len) {
      std::uint64_t c1 = 0, c2 = 0;
      for (std::size_t i = 0; i < len; i += 8) {
        c = _mm_crc32_u64(c, load64(p + i));
        c1 = _mm_crc32_u64(c1, load64(p + len + i));
        c2 = _mm_crc32_u64(c2, load64(p + 2 * len + i));
      }
      const auto c0 = static_cast<std::uint32_t>(c);
      c = append_zeros(blk.op, append_zeros(blk.op, c0) ^
                                   static_cast<std::uint32_t>(c1)) ^
          static_cast<std::uint32_t>(c2);
      p += 3 * len;
      n -= 3 * len;
    }
  }
  while (n >= 8) {
    c = _mm_crc32_u64(c, load64(p));
    p += 8;
    n -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) {
    c32 = _mm_crc32_u8(c32, static_cast<std::uint8_t>(*p++));
  }
  return ~c32;
}
#endif

using CrcFn = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

struct Backend {
  CrcFn fn;
  const char* name;
};

Backend detect_backend() {
#ifdef DPC_CRC32C_HW
  if (__builtin_cpu_supports("sse4.2")) return {&crc32c_hw, "sse4.2"};
#endif
  return {&crc32c_slice8, "slice8"};
}

const Backend& backend() {
  // Magic-static: detected once, race-free, before first checksum.
  static const Backend b = detect_backend();
  return b;
}
}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t crc) {
  return backend().fn(data, crc);
}

const char* crc32c_backend() { return backend().name; }

std::uint32_t crc32c_slice8(std::span<const std::byte> data,
                            std::uint32_t crc) {
  crc = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // Byte-wise loads keep the fold endian-independent (the simulation has
    // no alignment guarantee on payload spans either).
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][static_cast<std::uint8_t>(p[4])] ^
          kTables[2][static_cast<std::uint8_t>(p[5])] ^
          kTables[1][static_cast<std::uint8_t>(p[6])] ^
          kTables[0][static_cast<std::uint8_t>(p[7])];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = step(crc, *p++);
  return ~crc;
}

std::uint32_t crc32c_bytewise(std::span<const std::byte> data,
                              std::uint32_t crc) {
  crc = ~crc;
  for (const std::byte b : data) crc = step(crc, b);
  return ~crc;
}

std::uint32_t crc32c_u64(std::uint64_t v, std::uint32_t crc) {
  std::byte b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::byte>(v >> (8 * i));
  }
  return crc32c(std::span<const std::byte>(b, 8), crc);
}

}  // namespace dpc::ec
