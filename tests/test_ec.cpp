#include "ec/crc32c.hpp"
#include "ec/gf256.hpp"
#include "ec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace dpc::ec {
namespace {

TEST(Gf256, FieldAxioms) {
  const auto& gf = Gf256::instance();
  // Spot-check closure, identity, inverse over all elements.
  for (unsigned a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf.mul(ua, 1), ua);
    EXPECT_EQ(gf.mul(ua, gf.inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf.add(ua, ua), 0);  // char 2
  }
  EXPECT_EQ(gf.mul(0, 123), 0);
  EXPECT_THROW(gf.inv(0), dpc::CheckFailure);
  EXPECT_THROW(gf.div(1, 0), dpc::CheckFailure);
}

TEST(Gf256, MulMatchesRussianPeasant) {
  // Independent implementation to cross-check the tables.
  auto slow_mul = [](std::uint8_t a, std::uint8_t b) {
    std::uint16_t r = 0, aa = a;
    while (b) {
      if (b & 1) r ^= aa;
      aa <<= 1;
      if (aa & 0x100) aa ^= 0x11D;
      b >>= 1;
    }
    return static_cast<std::uint8_t>(r);
  };
  const auto& gf = Gf256::instance();
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_EQ(gf.mul(a, b), slow_mul(a, b)) << +a << "*" << +b;
  }
}

TEST(Gf256, MulAccDistributes) {
  const auto& gf = Gf256::instance();
  std::vector<std::byte> dst(64, std::byte{0});
  std::vector<std::byte> src(64);
  for (std::size_t i = 0; i < 64; ++i) src[i] = static_cast<std::byte>(i);
  gf.mul_acc(dst, src, 3);
  gf.mul_acc(dst, src, 3);
  // x ^ x = 0.
  for (auto b : dst) EXPECT_EQ(b, std::byte{0});
}

TEST(Gf256, BulkKernelsMatchScalarMulForEveryCoefficient) {
  // mul_acc/mul_set against per-byte mul() for every coefficient, at
  // lengths around the 32-byte vector step (whole chunks, tails, empty)
  // and with unaligned source and destination starts. The destination
  // buffer runs 3 bytes past the span, so a write outside it shows too.
  const auto& gf = Gf256::instance();
  constexpr std::size_t kPad = 3;
  sim::Rng rng(11);
  std::vector<std::byte> src(8193 + kPad), init(8193 + 2 * kPad);
  for (auto& b : src) b = static_cast<std::byte>(rng.next_below(256));
  for (auto& b : init) b = static_cast<std::byte>(rng.next_below(256));
  for (unsigned c = 0; c < 256; ++c) {
    const auto uc = static_cast<std::uint8_t>(c);
    std::array<std::byte, 256> row{};
    for (unsigned x = 0; x < 256; ++x)
      row[x] = static_cast<std::byte>(gf.mul(uc, static_cast<std::uint8_t>(x)));
    for (const std::size_t len :
         {0, 1, 31, 32, 33, 63, 64, 65, 8191, 8192, 8193}) {
      for (const std::size_t so : {0, 1, 3}) {
        for (const std::size_t d_off : {0, 1, 3}) {
          const auto s = std::span<const std::byte>(src).subspan(so, len);
          std::vector<std::byte> acc(init.begin(),
                                     init.begin() + static_cast<std::ptrdiff_t>(
                                                        len + 2 * kPad));
          std::vector<std::byte> set = acc, want_acc = acc, want_set = acc;
          for (std::size_t i = 0; i < len; ++i) {
            const std::byte prod = row[static_cast<std::uint8_t>(s[i])];
            want_acc[d_off + i] ^= prod;
            want_set[d_off + i] = prod;
          }
          gf.mul_acc(std::span<std::byte>(acc).subspan(d_off, len), s, uc);
          gf.mul_set(std::span<std::byte>(set).subspan(d_off, len), s, uc);
          ASSERT_TRUE(acc == want_acc) << "mul_acc c=" << c << " len=" << len
                                       << " src+" << so << " dst+" << d_off;
          ASSERT_TRUE(set == want_set) << "mul_set c=" << c << " len=" << len
                                       << " src+" << so << " dst+" << d_off;
        }
      }
    }
  }
}

TEST(GfMatrix, InverseRoundTrip) {
  const auto& gf = Gf256::instance();
  GfMatrix m(3, 3);
  // A known-invertible Vandermonde-ish matrix.
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      m.at(r, c) = gf.pow(gf.exp(static_cast<unsigned>(r + 1)),
                          static_cast<unsigned>(c));
  const GfMatrix prod = m.multiplied(m.inverted());
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(prod.at(r, c), r == c ? 1 : 0);
}

TEST(GfMatrix, SingularDetected) {
  GfMatrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 1;
  m.at(1, 1) = 2;
  EXPECT_THROW(m.inverted(), dpc::CheckFailure);
}

TEST(ReedSolomon, SystematicEncodePreservesData) {
  // The top of the encode matrix is the identity → parity-only output.
  ReedSolomon rs(4, 2);
  std::vector<std::vector<std::byte>> data(4, std::vector<std::byte>(128));
  sim::Rng rng(7);
  for (auto& s : data)
    for (auto& b : s) b = static_cast<std::byte>(rng.next_below(256));
  std::vector<std::vector<std::byte>> parity(2,
                                             std::vector<std::byte>(128));
  std::vector<std::span<const std::byte>> dv(data.begin(), data.end());
  std::vector<std::span<std::byte>> pv(parity.begin(), parity.end());
  rs.encode(dv, pv);

  std::vector<std::span<const std::byte>> all;
  for (auto& s : data) all.emplace_back(s);
  for (auto& s : parity) all.emplace_back(s);
  EXPECT_TRUE(rs.verify(all));
  // Corrupt a byte → verify fails.
  parity[0][5] ^= std::byte{1};
  EXPECT_FALSE(rs.verify(all));
}

using RsParam = std::tuple<int, int, int>;  // k, m, erasures

class RsReconstruct : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsReconstruct, AnyKSurviveSuffices) {
  const auto [k, m, erasures] = GetParam();
  ReedSolomon rs(k, m);
  const std::size_t len = 256;
  sim::Rng rng(static_cast<std::uint64_t>(k * 100 + m * 10 + erasures));

  std::vector<std::vector<std::byte>> shards(
      static_cast<std::size_t>(k + m), std::vector<std::byte>(len));
  for (int d = 0; d < k; ++d)
    for (auto& b : shards[static_cast<std::size_t>(d)])
      b = static_cast<std::byte>(rng.next_below(256));
  {
    std::vector<std::span<const std::byte>> dv;
    for (int d = 0; d < k; ++d) dv.emplace_back(shards[static_cast<std::size_t>(d)]);
    std::vector<std::span<std::byte>> pv;
    for (int p = 0; p < m; ++p) pv.emplace_back(shards[static_cast<std::size_t>(k + p)]);
    rs.encode(dv, pv);
  }
  const auto golden = shards;

  // Erase `erasures` random shards.
  std::vector<bool> present_vec(static_cast<std::size_t>(k + m), true);
  int erased = 0;
  while (erased < erasures) {
    const auto victim = rng.next_below(static_cast<std::uint64_t>(k + m));
    if (!present_vec[victim]) continue;
    present_vec[victim] = false;
    std::fill(shards[victim].begin(), shards[victim].end(), std::byte{0xEE});
    ++erased;
  }
  std::unique_ptr<bool[]> present(new bool[static_cast<std::size_t>(k + m)]);
  for (int i = 0; i < k + m; ++i)
    present[static_cast<std::size_t>(i)] = present_vec[static_cast<std::size_t>(i)];

  std::vector<std::span<std::byte>> views(shards.begin(), shards.end());
  rs.reconstruct(views, std::span<const bool>(present.get(),
                                              static_cast<std::size_t>(k + m)));
  for (int i = 0; i < k + m; ++i)
    EXPECT_EQ(shards[static_cast<std::size_t>(i)],
              golden[static_cast<std::size_t>(i)])
        << "shard " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsReconstruct,
    ::testing::Values(RsParam{4, 2, 1}, RsParam{4, 2, 2}, RsParam{2, 1, 1},
                      RsParam{6, 3, 3}, RsParam{8, 4, 4}, RsParam{10, 4, 2},
                      RsParam{3, 2, 2}, RsParam{5, 5, 5}));

TEST(ReedSolomon, TooManyErasuresRejected) {
  ReedSolomon rs(4, 2);
  std::vector<std::vector<std::byte>> shards(6, std::vector<std::byte>(16));
  std::vector<std::span<std::byte>> views(shards.begin(), shards.end());
  bool present[6] = {true, true, true, false, false, false};
  EXPECT_THROW(rs.reconstruct(views, present), dpc::CheckFailure);
}

// Geometries and shard lengths for the whole-stripe contracts below: the
// DFS default RS(4,2) plus wider codes, at the 8 KiB shard of a 32 KiB
// stripe and at a length that leaves a sub-vector tail.
constexpr std::array<std::pair<int, int>, 3> kGeometries = {
    {{4, 2}, {6, 3}, {10, 4}}};
constexpr std::array<std::size_t, 2> kShardLens = {8192, 1000};

std::vector<std::vector<std::byte>> random_shards(int count, std::size_t len,
                                                  sim::Rng& rng) {
  std::vector<std::vector<std::byte>> shards(static_cast<std::size_t>(count),
                                             std::vector<std::byte>(len));
  for (auto& s : shards)
    for (auto& b : s) b = static_cast<std::byte>(rng.next_below(256));
  return shards;
}

// Parity of `data` computed one byte at a time with mul(), independent of
// the bulk kernels.
std::vector<std::vector<std::byte>> scalar_parity(
    const ReedSolomon& rs, const std::vector<std::vector<std::byte>>& data,
    int m) {
  const auto& gf = Gf256::instance();
  const std::size_t len = data[0].size();
  std::vector<std::vector<std::byte>> parity(static_cast<std::size_t>(m),
                                             std::vector<std::byte>(len));
  for (int p = 0; p < m; ++p)
    for (std::size_t d = 0; d < data.size(); ++d) {
      const std::uint8_t c = rs.coeff(p, static_cast<int>(d));
      for (std::size_t i = 0; i < len; ++i)
        parity[static_cast<std::size_t>(p)][i] ^= static_cast<std::byte>(
            gf.mul(c, static_cast<std::uint8_t>(data[d][i])));
    }
  return parity;
}

std::vector<std::vector<std::byte>> encoded(
    const ReedSolomon& rs, const std::vector<std::vector<std::byte>>& data,
    int m) {
  std::vector<std::vector<std::byte>> parity(
      static_cast<std::size_t>(m), std::vector<std::byte>(data[0].size()));
  std::vector<std::span<const std::byte>> dv(data.begin(), data.end());
  std::vector<std::span<std::byte>> pv(parity.begin(), parity.end());
  rs.encode(dv, pv);
  return parity;
}

TEST(ReedSolomon, EveryErasureSetRoundTrips) {
  // Encode, then erase every set of at most m shards (data and parity
  // alike) and reconstruct: each must restore the stripe bit for bit.
  sim::Rng rng(21);
  for (const auto& [k, m] : kGeometries) {
    const ReedSolomon rs(k, m);
    const auto total = static_cast<unsigned>(k + m);
    for (const std::size_t len : kShardLens) {
      auto golden = random_shards(k, len, rng);
      const auto parity = encoded(rs, golden, m);
      ASSERT_EQ(parity, scalar_parity(rs, golden, m)) << k << "+" << m;
      golden.insert(golden.end(), parity.begin(), parity.end());
      std::vector<std::span<const std::byte>> all(golden.begin(),
                                                  golden.end());
      ASSERT_TRUE(rs.verify(all));

      for (unsigned lost = 0; lost < (1u << total); ++lost) {
        if (std::popcount(lost) > m) continue;
        auto shards = golden;
        std::unique_ptr<bool[]> present(new bool[total]);
        for (unsigned i = 0; i < total; ++i) {
          present[i] = !((lost >> i) & 1);
          if (!present[i])
            std::fill(shards[i].begin(), shards[i].end(), std::byte{0xEE});
        }
        std::vector<std::span<std::byte>> views(shards.begin(), shards.end());
        rs.reconstruct(views, std::span<const bool>(present.get(), total));
        ASSERT_EQ(shards, golden)
            << "RS(" << k << "," << m << ") len=" << len << " lost=0x"
            << std::hex << lost;
      }
    }
  }
}

TEST(ReedSolomon, DeltaParityMatchesFullReencode) {
  // Paper path: an 8K write touches one shard; parity is updated via
  // delta. Must equal re-encoding the full stripe, for every data shard.
  sim::Rng rng(99);
  for (const auto& [k, m] : kGeometries) {
    const ReedSolomon rs(k, m);
    for (const std::size_t len : kShardLens) {
      auto data = random_shards(k, len, rng);
      auto parity = encoded(rs, data, m);
      for (int d = 0; d < k; ++d) {
        const auto di = static_cast<std::size_t>(d);
        const auto updated = random_shards(1, len, rng)[0];
        std::vector<std::byte> delta(len);
        for (std::size_t i = 0; i < len; ++i)
          delta[i] = data[di][i] ^ updated[i];
        data[di] = updated;
        for (int p = 0; p < m; ++p)
          rs.apply_delta(parity[static_cast<std::size_t>(p)], p, d, delta);
        ASSERT_EQ(parity, encoded(rs, data, m))
            << "RS(" << k << "," << m << ") len=" << len << " shard " << d;
      }
    }
  }
}

TEST(ReedSolomon, CostModelFavorsDpu) {
  EXPECT_GT(ReedSolomon::host_encode_cost(1 << 20).ns,
            ReedSolomon::dpu_encode_cost(1 << 20).ns);
  EXPECT_EQ(ReedSolomon::host_encode_cost(0).ns, 0);
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros → 0x8A9136AA.
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // "123456789" → 0xE3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(std::as_bytes(std::span{digits, 9})), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::vector<std::byte> buf(1000);
  sim::Rng rng(3);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
  const auto full = crc32c(buf);
  // CRC chaining: crc(a||b) computed by seeding with crc(a).
  const auto part = crc32c(std::span<const std::byte>(buf).subspan(300),
                           crc32c(std::span<const std::byte>(buf).first(300)));
  EXPECT_EQ(part, full);
}

TEST(Crc32c, DetectsBitFlip) {
  std::vector<std::byte> buf(4096, std::byte{0x5A});
  const auto a = crc32c(buf);
  buf[2048] ^= std::byte{0x01};
  EXPECT_NE(crc32c(buf), a);
}

/// Advancing a register past n zero bytes equals stepping the zeros
/// through the CRC, for lengths around every power of two the square-and-
/// multiply walks; and it moves a stamp over an untouched tail.
TEST(Crc32c, ZerosOperatorMatchesAppendedZeroBytes) {
  sim::Rng rng(11);
  std::vector<std::byte> msg(777);
  for (auto& b : msg) b = static_cast<std::byte>(rng.next_below(256));
  const std::uint32_t c = crc32c(msg);
  for (std::size_t n : {0, 1, 2, 3, 7, 8, 255, 256, 1000, 4096, 8191, 70000}) {
    const std::vector<std::byte> zeros(n, std::byte{0});
    EXPECT_EQ(~crc32c_zeros(~c, n), crc32c(zeros, c)) << n;
    // The raw register: seed ~0u starts it at zero.
    const std::uint32_t raw = ~crc32c(msg, ~0u);
    std::vector<std::byte> padded = msg;
    padded.resize(msg.size() + n);
    EXPECT_EQ(crc32c_zeros(raw, n), ~crc32c(padded, ~0u)) << n;
  }
}

TEST(Crc32c, BackendNameIsKnown) {
  const std::string name = crc32c_backend();
  EXPECT_TRUE(name == "vpclmulqdq" || name == "sse4.2" || name == "slice8")
      << name;
}

TEST(KernelBackends, VectorPathSelectedWhenCpuHasIt) {
  // A silent fallback to a portable loop would keep every result correct
  // and only show as lost throughput; pin the dispatch instead.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_STREQ(gf256_backend(), "avx2");
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("vpclmulqdq")) {
    EXPECT_STREQ(crc32c_backend(), "vpclmulqdq");
  } else if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_STREQ(crc32c_backend(), "sse4.2");
  }
#endif
  const std::string gf = gf256_backend();
  EXPECT_TRUE(gf == "avx2" || gf == "table") << gf;
}

TEST(Crc32c, AllBackendsAgreeAcrossSizesAndSeeds) {
  // Cross-check the dispatched backend (the vector fold or the crc32
  // instruction, as the CPU allows) and the SSE4.2 path against both
  // software paths, across every 8-byte-remainder class, around the fold's
  // 256-byte rounds and 16-byte lanes and the SSE4.2 path's 3 x 256 and
  // 3 x 2048-byte stream blocks, with unaligned starts and nonzero seeds.
  sim::Rng rng(7);
  std::vector<std::byte> buf(16384 + 64);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
  const std::size_t sizes[] = {
      0,    1,    2,    3,    7,    8,    9,    15,   16,   17,   63,
      64,   65,   255,  256,  257,  271,  272,  273,  511,  512,  513,
      767,  768,  769,  1000, 1535, 1536, 4095, 4096, 4097, 6143, 6144,
      6145, 8192, 8200, 16384};
  for (const std::size_t size : sizes) {
    for (const std::size_t align : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{5}}) {
      const auto s =
          std::span<const std::byte>(buf).subspan(align, size);
      for (const std::uint32_t seed : {0u, 1u, 0xDEADBEEFu}) {
        const auto ref = crc32c_bytewise(s, seed);
        EXPECT_EQ(crc32c(s, seed), ref) << size << "+" << align;
        EXPECT_EQ(crc32c_sse42(s, seed), ref) << size << "+" << align;
        EXPECT_EQ(crc32c_slice8(s, seed), ref) << size << "+" << align;
      }
    }
  }
}

}  // namespace
}  // namespace dpc::ec
