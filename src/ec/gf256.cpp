#include "ec/gf256.hpp"

#include "sim/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPC_GF256_AVX2 1
#include <immintrin.h>
#endif

namespace dpc::ec {

namespace {
constexpr unsigned kPoly = 0x11D;  // x^8 + x^4 + x^3 + x^2 + 1

#ifdef DPC_GF256_AVX2
// dst[i] (^)= c * src[i] over whole 32-byte chunks; returns the bytes done
// so the caller's table loop finishes the tail. Compiled with a
// per-function target attribute so the translation unit itself stays
// baseline; only runtime detection may select it.
template <bool kAcc>
__attribute__((target("avx2"))) std::size_t mul_avx2(
    std::byte* dst, const std::byte* src, std::size_t n,
    const std::uint8_t* lo, const std::uint8_t* hi) {
  const __m256i tlo = _mm256_load_si256(reinterpret_cast<const __m256i*>(lo));
  const __m256i thi = _mm256_load_si256(reinterpret_cast<const __m256i*>(hi));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // Unaligned loads and stores: shard spans carry no alignment guarantee.
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s_lo = _mm256_and_si256(s, mask);
    const __m256i s_hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
    __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, s_lo),
                                 _mm256_shuffle_epi8(thi, s_hi));
    if constexpr (kAcc) {
      p = _mm256_xor_si256(
          p, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  return i;
}
#endif

bool detect_avx2() {
#ifdef DPC_GF256_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}
}  // namespace

const Gf256& Gf256::instance() {
  static const Gf256 g;
  return g;
}

Gf256::Gf256() {
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp_[i] = static_cast<std::uint8_t>(x);
    log_[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  exp_[255] = exp_[0];
  log_[0] = 0;  // log(0) undefined; callers guard

  for (unsigned c = 0; c < 256; ++c)
    for (unsigned v = 0; v < 256; ++v)
      mul_table_[c][v] =
          (c == 0 || v == 0)
              ? 0
              : exp_[(log_[c] + log_[v]) % 255];

  for (unsigned c = 0; c < 256; ++c)
    for (unsigned i = 0; i < 32; ++i) {
      nib_lo_[c][i] = mul_table_[c][i & 0xF];
      nib_hi_[c][i] = mul_table_[c][(i & 0xF) << 4];
    }
  avx2_ = detect_avx2();
}

const char* gf256_backend() {
  return Gf256::instance().avx2_ ? "avx2" : "table";
}

std::uint8_t Gf256::div(std::uint8_t a, std::uint8_t b) const {
  DPC_CHECK_MSG(b != 0, "GF(256) division by zero");
  if (a == 0) return 0;
  return exp_[(log_[a] + 255 - log_[b]) % 255];
}

std::uint8_t Gf256::inv(std::uint8_t a) const {
  DPC_CHECK_MSG(a != 0, "GF(256) inverse of zero");
  return exp_[(255 - log_[a]) % 255];
}

std::uint8_t Gf256::pow(std::uint8_t a, unsigned n) const {
  if (n == 0) return 1;
  if (a == 0) return 0;
  return exp_[(static_cast<unsigned>(log_[a]) * n) % 255];
}

void Gf256::mul_acc(std::span<std::byte> dst, std::span<const std::byte> src,
                    std::uint8_t c) const {
  DPC_CHECK(dst.size() == src.size());
  if (c == 0) return;
  std::size_t i = 0;
#ifdef DPC_GF256_AVX2
  if (avx2_) {
    i = mul_avx2<true>(dst.data(), src.data(), dst.size(), nib_lo_[c].data(),
                       nib_hi_[c].data());
  }
#endif
  const auto& tbl = mul_table_[c];
  for (; i < dst.size(); ++i) {
    dst[i] ^= static_cast<std::byte>(
        tbl[static_cast<std::uint8_t>(src[i])]);
  }
}

void Gf256::mul_set(std::span<std::byte> dst, std::span<const std::byte> src,
                    std::uint8_t c) const {
  DPC_CHECK(dst.size() == src.size());
  std::size_t i = 0;
#ifdef DPC_GF256_AVX2
  if (avx2_) {
    i = mul_avx2<false>(dst.data(), src.data(), dst.size(),
                        nib_lo_[c].data(), nib_hi_[c].data());
  }
#endif
  const auto& tbl = mul_table_[c];
  for (; i < dst.size(); ++i) {
    dst[i] = static_cast<std::byte>(tbl[static_cast<std::uint8_t>(src[i])]);
  }
}

GfMatrix::GfMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {
  DPC_CHECK(rows >= 1 && cols >= 1);
}

std::uint8_t& GfMatrix::at(std::size_t r, std::size_t c) {
  DPC_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::uint8_t GfMatrix::at(std::size_t r, std::size_t c) const {
  DPC_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

GfMatrix GfMatrix::identity(std::size_t n) {
  GfMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

GfMatrix GfMatrix::inverted() const {
  DPC_CHECK_MSG(rows_ == cols_, "inverse of non-square matrix");
  const auto& gf = Gf256::instance();
  const std::size_t n = rows_;
  GfMatrix work(*this);
  GfMatrix inv = identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot row.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    DPC_CHECK_MSG(pivot < n, "singular matrix");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work.at(pivot, c), work.at(col, c));
        std::swap(inv.at(pivot, c), inv.at(col, c));
      }
    }
    // Scale pivot row to 1.
    const std::uint8_t d = gf.inv(work.at(col, col));
    for (std::size_t c = 0; c < n; ++c) {
      work.at(col, c) = gf.mul(work.at(col, c), d);
      inv.at(col, c) = gf.mul(inv.at(col, c), d);
    }
    // Eliminate the column from other rows.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t f = work.at(r, col);
      if (f == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        work.at(r, c) ^= gf.mul(f, work.at(col, c));
        inv.at(r, c) ^= gf.mul(f, inv.at(col, c));
      }
    }
  }
  return inv;
}

GfMatrix GfMatrix::multiplied(const GfMatrix& other) const {
  DPC_CHECK(cols_ == other.rows_);
  const auto& gf = Gf256::instance();
  GfMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::uint8_t a = at(r, k);
      if (a == 0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c)
        out.at(r, c) ^= gf.mul(a, other.at(k, c));
    }
  return out;
}

GfMatrix GfMatrix::rs_encode_matrix(std::size_t k, std::size_t m) {
  DPC_CHECK(k >= 1 && m >= 1 && k + m <= 255);
  const auto& gf = Gf256::instance();
  // Build a (k+m) x k Vandermonde matrix, then normalize the top k x k block
  // to the identity so the code is systematic (data shards pass through).
  GfMatrix vand(k + m, k);
  for (std::size_t r = 0; r < k + m; ++r)
    for (std::size_t c = 0; c < k; ++c)
      vand.at(r, c) = gf.pow(gf.exp(static_cast<unsigned>(r)),
                             static_cast<unsigned>(c));
  // Extract top block and right-multiply by its inverse.
  GfMatrix top(k, k);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c) top.at(r, c) = vand.at(r, c);
  return vand.multiplied(top.inverted());
}

}  // namespace dpc::ec
