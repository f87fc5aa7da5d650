// CRC32C (Castagnoli) — the integrity checksum of the whole stack: the DIF
// computed on the cache flush path ("performs relevant computing operations
// (e.g., compression, DIF, EC, etc.)", §3.3), the per-block / per-value /
// per-shard stamps of the SSD, KV and DFS stores, the nvme-fs payload
// trailer, and the NVM write-ahead log's frames.
//
// Lives in src/ec/ for historical reasons but builds as its own tiny
// library (`dpc_crc`) so stores that need a checksum do not have to link
// the Reed–Solomon codec.
#pragma once

#include <cstdint>
#include <span>

namespace dpc::ec {

/// Computes CRC32C over `data`, seeded by `crc` (pass 0 to start; chain
/// calls with the previous return value to checksum in pieces).
/// Runtime-dispatched, once, at first use: a carry-less-multiply fold on
/// 512-bit registers when the CPU has AVX-512 and VPCLMULQDQ (inputs of
/// 256 bytes and more; shorter ones take the next path), else the SSE4.2
/// `crc32` instruction (three interleaved chains over large inputs), else
/// the slice-by-8 table fold. All backends produce bit-identical results.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t crc = 0);

/// Name of the backend crc32c() dispatched to: "vpclmulqdq" (vector fold),
/// "sse4.2" (crc32 instruction) or "slice8" (portable table fold). For logs, benches, and tests that want
/// to know whether the hardware path is actually under test.
const char* crc32c_backend();

/// The SSE4.2 three-chain path, whatever crc32c() dispatched to; the
/// slice-by-8 fold on a CPU without SSE4.2. Exposed so tests check it on
/// CPUs whose dispatch picks the vector fold.
std::uint32_t crc32c_sse42(std::span<const std::byte> data,
                           std::uint32_t crc = 0);

/// The portable slice-by-8 table fold — eight lookups consume eight input
/// bytes per iteration. Always available regardless of dispatch; exposed so
/// tests and benches can compare it against the hardware path directly.
std::uint32_t crc32c_slice8(std::span<const std::byte> data,
                            std::uint32_t crc = 0);

/// Reference byte-at-a-time implementation. Same result as crc32c(); kept
/// as the oracle the tests check every other backend against.
std::uint32_t crc32c_bytewise(std::span<const std::byte> data,
                              std::uint32_t crc = 0);

/// Advances a raw CRC32C register (the un-inverted state: ~crc32c(...) of
/// a message with seed ~0u) past `n` zero bytes, in O(log n) carry-less
/// multiplications by x^(8n) mod P. With it a stamp moves over bytes it
/// never reads: the raw CRC of (range || 0^n) is crc32c_zeros(raw(range), n),
/// and the standard CRC of (msg || 0^n) is ~crc32c_zeros(~crc(msg), n).
std::uint32_t crc32c_zeros(std::uint32_t reg, std::uint64_t n);

/// Folds a 64-bit value (little-endian byte order) into the checksum.
/// Used as a location salt: seeding a block/value/shard checksum with its
/// own address (LBA, key hash, shard identity) makes a *misdirected* write
/// — right data, wrong location — fail verification at the aliased slot.
std::uint32_t crc32c_u64(std::uint64_t v, std::uint32_t crc = 0);

}  // namespace dpc::ec
