// GF(2^8) arithmetic with the AES/Rijndael-compatible polynomial 0x11D,
// table-driven (exp/log), used by the Reed–Solomon codec.
//
// The bulk multiply (mul_acc/mul_set) is runtime-dispatched: an AVX2
// split-nibble kernel (c*x = c*(x & 0xF) ^ c*(x & 0xF0), each half one
// 16-entry `vpshufb` lookup, 32 bytes per step) when the CPU has AVX2,
// else the 256-entry product-table loop. Both backends produce
// bit-identical results; the table loop also finishes the vector kernel's
// sub-32-byte tail.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace dpc::ec {

class Gf256 {
 public:
  /// Tables are process-wide constants; access through the singleton.
  static const Gf256& instance();

  std::uint8_t add(std::uint8_t a, std::uint8_t b) const {
    return a ^ b;  // addition in GF(2^8) is xor
  }
  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[(log_[a] + log_[b]) % 255];
  }
  std::uint8_t div(std::uint8_t a, std::uint8_t b) const;
  std::uint8_t inv(std::uint8_t a) const;
  /// a^n for n >= 0.
  std::uint8_t pow(std::uint8_t a, unsigned n) const;
  /// Generator element (2) raised to the i-th power.
  std::uint8_t exp(unsigned i) const { return exp_[i % 255]; }

  /// dst[i] ^= c * src[i] — the workhorse of RS encoding.
  void mul_acc(std::span<std::byte> dst, std::span<const std::byte> src,
               std::uint8_t c) const;
  /// dst[i] = c * src[i].
  void mul_set(std::span<std::byte> dst, std::span<const std::byte> src,
               std::uint8_t c) const;

 private:
  Gf256();
  std::array<std::uint8_t, 256> exp_{};  // exp_[i] = 2^i (exp_[255]=exp_[0])
  std::array<std::uint8_t, 256> log_{};  // log_[exp_[i]] = i
  // Per-coefficient 256-entry product tables: mul_table_[c][x] = c*x.
  std::array<std::array<std::uint8_t, 256>, 256> mul_table_{};
  // Split-nibble tables for the vector kernel: nib_lo_[c][i] = c*i and
  // nib_hi_[c][i] = c*(i << 4) for i < 16, each row repeated in both
  // 16-byte lanes of a 256-bit register (vpshufb looks up per lane).
  using NibbleRow = std::array<std::uint8_t, 32>;
  alignas(32) std::array<NibbleRow, 256> nib_lo_{};
  alignas(32) std::array<NibbleRow, 256> nib_hi_{};
  bool avx2_ = false;  // detected once, in the constructor

  friend const char* gf256_backend();
};

/// Name of the backend mul_acc/mul_set dispatch to: "avx2" (vector
/// split-nibble kernel) or "table" (portable product-table loop). For
/// tests that want to know whether the vector path is actually under test.
const char* gf256_backend();

/// Square matrix over GF(2^8) with Gauss-Jordan inversion — used to build
/// the decode matrix when reconstructing from erasures.
class GfMatrix {
 public:
  GfMatrix(std::size_t rows, std::size_t cols);

  std::uint8_t& at(std::size_t r, std::size_t c);
  std::uint8_t at(std::size_t r, std::size_t c) const;
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Returns the inverse; DPC_CHECKs the matrix is square and non-singular.
  GfMatrix inverted() const;
  GfMatrix multiplied(const GfMatrix& other) const;
  static GfMatrix identity(std::size_t n);
  /// Vandermonde-derived systematic encode matrix ((k+m) x k): the top k
  /// rows are the identity, the bottom m rows generate parity.
  static GfMatrix rs_encode_matrix(std::size_t k, std::size_t m);

 private:
  std::size_t rows_, cols_;
  std::vector<std::uint8_t> data_;
};

}  // namespace dpc::ec
