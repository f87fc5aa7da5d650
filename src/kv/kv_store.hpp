// Disaggregated KV store substrate (§3.4).
//
// The paper deliberately treats the disaggregated KV cluster as a given
// ("this paper does not focus on the design of disaggregated storage") and
// uses it through four KV types. This module provides that substrate: a
// sharded, ordered, binary-safe KV store with
//   * point get/put/delete,
//   * prefix scans (inode-KV directory listing uses the p_ino key prefix),
//   * sub-object reads/writes (the 8 KB-granularity in-place updates the
//     big-file KV needs),
//   * atomic counters (increment: KVFS's inode and block ids),
//   * apply(Batch): puts, erases and sub-writes across shards, each with an
//     optional guard, applied all-or-nothing (one batch per KVFS mutation).
//     The single-key put/put_if_absent/erase/write_sub are one-op batches.
// Every value carries a key-salted CRC32C, stamped inside apply() where the
// bit-rot and torn-write faults are drawn; checked reads and the scrubber
// verify it so bit-rot and torn sub-writes surface as typed corruption. A
// put, or a sub-write covering the whole value, stamps it fresh; a partial
// sub-write moves the stamp by the CRC of the bytes it changes and never
// re-reads the rest, so damage it does not overwrite stays detectable.
// Thread-safe; shards are hash-partitioned like a real KV cluster's
// partitions, and scans merge across shards in key order. Each shard's
// ordered map owns its keys and values and serves the scans; a flat
// open-addressing index beside it serves every point operation in one
// probe, so a lookup's work does not grow with the store.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "sim/thread_annotations.hpp"

namespace dpc::kv {

using Bytes = std::vector<std::byte>;

Bytes to_bytes(std::string_view s);
Bytes to_bytes(std::span<const std::byte> s);

/// Data-corruption injection sites: one draw per mutating op; the entropy
/// picks the rotted bit / tear point deterministically per seed.
inline constexpr std::string_view kFaultKvBitRot = "kv.store/bit_rot";
inline constexpr std::string_view kFaultKvTornWrite = "kv.store/torn_write";

/// Verification outcome of a checked value access.
enum class ValueCheck : std::uint8_t { kOk, kAbsent, kCorrupt };

/// A vector whose first N elements live in place: built up to N long, it
/// never touches the heap.
template <typename T, std::size_t N>
class InlineVec {
 public:
  InlineVec() = default;
  /// `n` value-initialized elements.
  explicit InlineVec(std::size_t n) : n_(n) {
    if (n > N) heap_.resize(n);
  }
  void push_back(T&& v) {
    if (n_ == capacity()) spill(n_ + 1);
    data()[n_++] = std::move(v);
  }
  T* data() { return heap_.empty() ? local_.data() : heap_.data(); }
  const T* data() const {
    return heap_.empty() ? local_.data() : heap_.data();
  }
  std::size_t size() const { return n_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + n_; }

 private:
  std::size_t capacity() const { return heap_.empty() ? N : heap_.size(); }
  /// Grows the heap storage (moving the in-place elements there first) to
  /// hold at least `n`.
  void spill(std::size_t n) {
    const bool local = heap_.empty();
    heap_.resize(std::max(n, 2 * capacity()));
    if (local) std::move(local_.begin(), local_.begin() + n_, heap_.begin());
  }
  std::array<T, N> local_{};
  std::vector<T> heap_;
  std::size_t n_ = 0;
};

/// A multi-key mutation for KvStore::apply: ops run in order, and each may
/// carry a guard checked against the store *before* any op applies. The
/// batch owns its keys but holds values as spans: the caller keeps them
/// alive (or hands them over with the Bytes&& overloads) until apply
/// returns, and the bytes are copied once, into the store. Up to
/// kInlineOps ops with keys of at most 15 bytes build without allocating.
class Batch {
 public:
  enum class Kind : std::uint8_t { kPut, kErase, kWriteSub };
  enum class Guard : std::uint8_t {
    kNone,
    kAbsent,   ///< the key must not exist
    kPresent,  ///< the key must exist
    kEquals,   ///< the key must exist and hold exactly `expect`
  };
  struct Op {
    Kind kind = Kind::kPut;
    Guard guard = Guard::kNone;
    std::string key;
    std::uint64_t offset = 0;  ///< kWriteSub only
    std::span<const std::byte> value;
    std::span<const std::byte> expect;  ///< kEquals only
  };

  /// Each adder returns the op's index (what ApplyResult names on a failed
  /// guard).
  std::size_t put(std::string key, std::span<const std::byte> value,
                  Guard guard = Guard::kNone);
  std::size_t put(std::string key, Bytes&& value, Guard guard = Guard::kNone);
  std::size_t erase(std::string key, Guard guard = Guard::kNone);
  /// In-place sub-range write; creates the key (zero-filled below `offset`)
  /// unless a guard requires it present.
  std::size_t write_sub(std::string key, std::uint64_t offset,
                        std::span<const std::byte> src,
                        Guard guard = Guard::kNone);
  /// A temporary would dangle: the batch only holds a span of `src`.
  std::size_t write_sub(std::string key, std::uint64_t offset, Bytes&& src,
                        Guard guard = Guard::kNone) = delete;
  /// Makes op `i` a kEquals guard on `expect` (moved into the batch).
  void expect(std::size_t i, Bytes&& expect);

  std::span<const Op> ops() const { return {ops_.data(), ops_.size()}; }
  /// Serialized size on the wire: every key, value and guard operand.
  std::uint64_t wire_bytes() const;

  static constexpr std::size_t kInlineOps = 8;

 private:
  InlineVec<Op, kInlineOps> ops_;
  /// Values handed over by move; a moved vector keeps its heap buffer, so
  /// spans into it stay valid as this grows.
  std::vector<Bytes> owned_;
};

/// Outcome of KvStore::apply: everything applied, or nothing and the index
/// of the first op whose guard failed.
struct ApplyResult {
  static constexpr std::size_t kApplied = static_cast<std::size_t>(-1);
  std::size_t failed_guard = kApplied;
  bool applied() const { return failed_guard == kApplied; }
};

class KvStore {
 public:
  /// Fixed, so a batch takes the same shard locks on every host.
  static constexpr int kDefaultShards = 16;
  /// Shard selection uses hash bits 32..39 at most; the index slots use
  /// the bits above them.
  static constexpr int kMaxShards = 256;
  /// `shards` (1..kMaxShards) is rounded up to the next power of two so
  /// shard selection is a mask, not a division.
  explicit KvStore(int shards = kDefaultShards);

  /// Attaches the corruption injector (null = pristine store). Must outlive
  /// the store.
  void attach_fault(fault::FaultInjector* fi) { fault_ = fi; }

  /// Inserts or overwrites.
  void put(std::string_view key, std::span<const std::byte> value);

  /// Inserts only if absent (a kAbsent guard); returns false (leaving the
  /// old value) if the key exists.
  bool put_if_absent(std::string_view key, std::span<const std::byte> value);

  std::optional<Bytes> get(std::string_view key) const;
  bool contains(std::string_view key) const;
  /// Removes `key` (a kPresent guard); false if it was absent.
  bool erase(std::string_view key);

  /// Reads `dst.size()` bytes at `offset` within the value. Returns bytes
  /// copied (short if the value ends early), or nullopt if the key is
  /// missing.
  std::optional<std::size_t> read_sub(std::string_view key,
                                      std::uint64_t offset,
                                      std::span<std::byte> dst) const;

  /// In-place sub-range write; grows the value if needed. Creates the key
  /// if absent. This is the primitive behind big-file KV updates.
  void write_sub(std::string_view key, std::uint64_t offset,
                 std::span<const std::byte> src);

  // ---- integrity ----------------------------------------------------
  /// get() + CRC verification under one lock. nullopt with
  /// `*check == kCorrupt` means the value exists but fails its checksum —
  /// corrupt bytes never leave the store.
  std::optional<Bytes> get_checked(std::string_view key,
                                   ValueCheck* check) const;
  /// read_sub() + CRC verification of the whole value under one lock.
  std::optional<std::size_t> read_sub_checked(std::string_view key,
                                              std::uint64_t offset,
                                              std::span<std::byte> dst,
                                              ValueCheck* check) const;
  /// Re-verifies one stored value in place — the scrubber's probe.
  ValueCheck verify_value(std::string_view key) const;
  /// Flips one bit of a stored value without restamping (deterministic
  /// corruption hook for tests/benches). False if absent or empty.
  bool corrupt_value(std::string_view key, std::uint64_t bit = 0);
  /// Snapshot of every stored key, unordered — the scrubber's walk list.
  std::vector<std::string> keys() const;

  /// Applies `batch` atomically: takes the exclusive lock of every touched
  /// shard in shard-index order (the order scan_prefix takes them), checks
  /// every guard, then applies all ops or none. A reader — get() or
  /// scan_prefix() — sees the whole batch or none of it. (Locks taken in a
  /// loop are beyond the static analysis; the lock-rank detector still
  /// checks every acquisition.)
  ApplyResult apply(const Batch& batch) NO_THREAD_SAFETY_ANALYSIS;

  /// Returns the value size, or nullopt.
  std::optional<std::uint64_t> value_size(std::string_view key) const;

  /// Atomically adds `delta` to a little-endian u64 counter value (created
  /// at zero if absent) and returns the *new* value. The allocation
  /// primitive shared mounts use for inode/block ids.
  std::uint64_t increment(std::string_view key, std::uint64_t delta);

  /// Visits all keys with `prefix` in ascending key order. Return false
  /// from `fn` to stop early. Returns the number of entries visited.
  std::size_t scan_prefix(
      std::string_view prefix,
      const std::function<bool(std::string_view key, const Bytes& value)>& fn)
      const;

  std::size_t size() const;
  std::uint64_t bytes_stored() const;

 private:
  struct Value {
    Bytes data;
    std::uint32_t crc = 0;  ///< CRC32C of data, seeded with the key's CRC
  };
  using Map = std::map<std::string, Value, std::less<>>;
  /// One index slot: its key's hash with bit 0 set (0 marks an empty
  /// slot) and the map entry it points at.
  struct Slot {
    std::uint64_t tag = 0;
    Map::iterator it;
  };
  // Cache-line aligned so neighbouring shards' mutexes and map headers
  // never share a line (false sharing on the hot shard locks).
  struct alignas(64) Shard {
    mutable sim::AnnotatedSharedMutex mu{"kv.shard",
                                         sim::LockRank::kStore};
    /// The one owner of keys and values, in key order for the scans.
    Map data GUARDED_BY(mu);
    /// The point-lookup index over `data`: a power-of-two slot array with
    /// linear probing from the hash's top bits, at most half full. Flat,
    /// so a key costs the map node and nothing more on the heap.
    std::vector<Slot> slots GUARDED_BY(mu);
    std::size_t used GUARDED_BY(mu) = 0;

    /// The value of `key` (hash `h`), or null. Never writes the index.
    Value* find(std::string_view key, std::uint64_t h) const
        REQUIRES_SHARED(mu);
    /// The value of `key`, inserted empty if absent. Only an insertion may
    /// grow the index.
    Value& emplace(std::string_view key, std::uint64_t h) REQUIRES(mu);
    /// Removes `key`; false if it was absent.
    bool erase(std::string_view key, std::uint64_t h) REQUIRES(mu);

   private:
    /// The slot holding `key`, or the empty slot that ends its probe run
    /// (`slots` must not be empty).
    std::size_t probe(std::string_view key, std::uint64_t tag) const
        REQUIRES_SHARED(mu);
    std::size_t home(std::uint64_t tag) const REQUIRES_SHARED(mu);
    void grow() REQUIRES(mu);
  };
  /// Fault draws of one value mutation, taken before any lock.
  struct ValueFaults {
    std::size_t persisted = 0;  ///< bytes of the payload that land
    bool rotted = false;
    std::uint64_t rot = 0;
  };
  /// The key's one hash per operation: bits 32.. pick its shard, the top
  /// bits its index slot.
  static std::uint64_t key_hash(std::string_view key);
  std::size_t shard_index(std::uint64_t h) const;
  Shard& shard_for(std::uint64_t h) const;
  ValueFaults draw_faults(const Batch::Op& op) const;
  /// The write_sub mutation of one stored value (caller holds its shard).
  static void sub_write(std::string_view key, Value& v, std::uint64_t offset,
                        std::span<const std::byte> src,
                        const ValueFaults& f);
  /// One batch op, its key hashed to `h`, against its shard.
  static void apply_op(const Batch::Op& op, std::uint64_t h, Shard& sh,
                       std::uint32_t crc, const ValueFaults& f)
      REQUIRES(sh.mu);

  std::vector<Shard> shards_storage_;
  std::size_t shard_mask_ = 0;  ///< shards_storage_.size() - 1 (pow2 count)
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace dpc::kv
