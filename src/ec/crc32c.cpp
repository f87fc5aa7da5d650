#include "ec/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPC_CRC32C_HW 1
#include <immintrin.h>
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

// Vector fold: carry-less multiplication folds the message down to 16
// bytes whose raw CRC equals the whole message's (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009), on four 512-bit accumulators: 256 bytes per round against the
// three crc32 chains' 24 bytes per three cycles. A 16-byte lane folds
// forward by d bytes as lo(lane) * x^(8d+32) + hi(lane) * x^(8d-32)
// mod P; the constants are those powers, bit-reflected and shifted left
// by one, as the reflected register wants them.
constexpr std::uint64_t fold_constant(std::size_t exponent) {
  std::uint32_t r = 1;  // x^exponent mod P, in normal bit order
  for (std::size_t i = 0; i < exponent; ++i)
    r = (r & 0x80000000u) != 0 ? (r << 1) ^ 0x1EDC6F41u : r << 1;
  std::uint32_t reflected = 0;
  for (int bit = 0; bit < 32; ++bit)
    if (((r >> bit) & 1u) != 0) reflected |= 1u << (31 - bit);
  return std::uint64_t{reflected} << 1;
}

struct Fold {
  std::uint64_t lo;
  std::uint64_t hi;
};
constexpr Fold fold_by(std::size_t bytes) {
  return {fold_constant(8 * bytes + 32), fold_constant(8 * bytes - 32)};
}

constexpr std::size_t kFoldRound = 256;  // four 64-byte accumulators
constexpr Fold kFoldRoundK = fold_by(kFoldRound);
/// kLaneFold[d] folds a 16-byte lane forward by 16 * d bytes.
constexpr std::array<Fold, 16> kLaneFold = [] {
  std::array<Fold, 16> t{};
  for (std::size_t d = 1; d < t.size(); ++d) t[d] = fold_by(16 * d);
  return t;
}();

#define DPC_CRC32C_FOLD_TARGET \
  __attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.2")))

DPC_CRC32C_FOLD_TARGET inline __m128i fold_lane(__m128i lane, Fold k) {
  const __m128i kk = _mm_set_epi64x(static_cast<long long>(k.hi),
                                    static_cast<long long>(k.lo));
  return _mm_xor_si128(_mm_clmulepi64_si128(lane, kk, 0x00),
                       _mm_clmulepi64_si128(lane, kk, 0x11));
}

DPC_CRC32C_FOLD_TARGET std::uint32_t crc32c_fold(
    std::span<const std::byte> data, std::uint32_t crc) {
  if (data.size() < kFoldRound) return crc32c_hw(data, crc);
  const std::byte* p = data.data();
  std::size_t n = data.size();
  // A reflected register starting at r is the raw CRC of the message with r
  // XORed into its first four bytes.
  __m512i acc[4];
  for (int i = 0; i < 4; ++i) acc[i] = _mm512_loadu_si512(p + 64 * i);
  const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(~crc));
  acc[0] = _mm512_xor_si512(acc[0], _mm512_zextsi128_si512(seed));
  p += kFoldRound;
  n -= kFoldRound;
  const auto lo = static_cast<long long>(kFoldRoundK.lo);
  const auto hi = static_cast<long long>(kFoldRoundK.hi);
  const __m512i k = _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
  while (n >= kFoldRound) {
    for (int i = 0; i < 4; ++i) {
      acc[i] = _mm512_ternarylogic_epi64(
          _mm512_clmulepi64_epi128(acc[i], k, 0x00),
          _mm512_clmulepi64_epi128(acc[i], k, 0x11),
          _mm512_loadu_si512(p + 64 * i), 0x96);  // three-way XOR
    }
    p += kFoldRound;
    n -= kFoldRound;
  }
  // Sixteen lanes cover the last round; fold each onto the last lane.
  alignas(64) __m128i lane[16];
  for (int i = 0; i < 4; ++i) _mm512_store_si512(&lane[4 * i], acc[i]);
  __m128i r = lane[15];
  for (std::size_t j = 0; j < 15; ++j)
    r = _mm_xor_si128(r, fold_lane(lane[j], kLaneFold[15 - j]));
  // The tail: whole lanes fold in, then the register takes over.
  for (; n >= 16; p += 16, n -= 16) {
    r = _mm_xor_si128(fold_lane(r, kLaneFold[1]),
                      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  std::uint64_t c = _mm_crc32_u64(0, static_cast<std::uint64_t>(
                                         _mm_cvtsi128_si64(r)));
  c = _mm_crc32_u64(c, static_cast<std::uint64_t>(_mm_extract_epi64(r, 1)));
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, static_cast<std::uint8_t>(*p++));
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
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("vpclmulqdq"))
    return {&crc32c_fold, "vpclmulqdq"};
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

std::uint32_t crc32c_sse42(std::span<const std::byte> data,
                           std::uint32_t crc) {
#ifdef DPC_CRC32C_HW
  if (__builtin_cpu_supports("sse4.2")) return crc32c_hw(data, crc);
#endif
  return crc32c_slice8(data, crc);
}

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

namespace {
/// a * b mod P over GF(2), reflected: bit 31 is x^0.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = std::uint32_t{1} << 31; m != 0; m >>= 1) {
    if (a & m) p ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// kX2n[k] = x^(2^k) mod P, far enough for x^(8n) with any 64-bit n.
constexpr std::array<std::uint32_t, 67> make_x2n() {
  std::array<std::uint32_t, 67> t{};
  t[0] = std::uint32_t{1} << 30;  // x^1
  for (std::size_t k = 1; k < t.size(); ++k)
    t[k] = mul_mod_p(t[k - 1], t[k - 1]);
  return t;
}
constexpr auto kX2n = make_x2n();
}  // namespace

std::uint32_t crc32c_zeros(std::uint32_t reg, std::uint64_t n) {
  std::uint32_t xn = std::uint32_t{1} << 31;  // x^0
  for (std::size_t k = 3; n != 0; n >>= 1, ++k)
    if (n & 1) xn = mul_mod_p(kX2n[k], xn);
  return mul_mod_p(xn, reg);
}

std::uint32_t crc32c_u64(std::uint64_t v, std::uint32_t crc) {
  std::byte b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::byte>(v >> (8 * i));
  }
  return crc32c(std::span<const std::byte>(b, 8), crc);
}

}  // namespace dpc::ec
