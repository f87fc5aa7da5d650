// KVFS write-ahead intent journal (crash consistency).
//
// KVFS spreads one mutation across several KV flavors with no multi-key
// atomicity, so a DPU crash mid-operation leaves the keyspace torn (dangling
// dentries, orphan data, a promotion half done). Before its first mutating
// KV op, every multi-KV mutation appends one CRC32C-protected *intent*
// record describing the whole op; after the last mutating op the record is
// erased (committed). Replay-on-mount scans the surviving records, probes
// the keyspace to see how far each op got, and rolls it forward (completes
// it) or backward (undoes it) — either way the op ends all-or-nothing.
// `fsck_repair` runs after replay as the backstop that renormalizes what
// intent records cannot know (parent link counts, stray residue).
//
// Records live in the same disaggregated store under tag 'J' + be64 id, so
// the journal is exactly as durable as the state it protects and shared
// mounts recover each other. Record ids come from the ino counter: globally
// unique, allocated with the same increment primitive as inodes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "kv/remote.hpp"
#include "kvfs/types.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dpc::nvm {
class WriteAheadLog;
}  // namespace dpc::nvm

namespace dpc::kvfs {

/// Crash point inside the journal itself: fires right after the intent
/// record is durable but before the op's first real mutation.
inline constexpr std::string_view kCrashAfterAppend =
    "kvfs.journal/crash_after_append";
/// Crash point inside replay: fires after a record has been rolled
/// forward/backward but before its erase — the second replay must find the
/// half-replayed log and converge (every replay_one path is idempotent).
inline constexpr std::string_view kCrashMidReplay =
    "kvfs.journal/crash_mid_replay";

enum class JournalOp : std::uint8_t {
  kCreate = 1,  ///< create / mkdir / symlink (make_node + symlink target)
  kRemove = 2,  ///< unlink / rmdir
  kRename = 3,
  kPromote = 4,  ///< small→big promotion (§3.4)
  kExtent = 5,   ///< big-file extent update: new blocks added to the index
};

/// One intent record. Field use by op:
///   kCreate : ino, parent, name, type; name2 = symlink target (if symlink)
///   kRemove : ino, parent, name, type, nlink_before, big_file
///   kRename : ino (source), parent (old), name (old), new_parent,
///             name2 (new), replaced_ino (+replaced_big) if dst was purged
///   kPromote: ino, blocks = {the single data block} (empty if file empty)
///   kExtent : ino, blocks = the (logical block, block id) pair of each
///             block newly allocated for this write, flattened (an odd
///             count does not decode)
struct JournalRecord {
  JournalOp op = JournalOp::kCreate;
  FileType type = FileType::kRegular;
  Ino ino = 0;
  Ino parent = 0;
  Ino new_parent = 0;
  Ino replaced_ino = 0;
  std::uint32_t nlink_before = 0;
  std::uint8_t big_file = 0;
  std::uint8_t replaced_big = 0;
  std::string name;
  std::string name2;
  std::vector<std::uint64_t> blocks;
};

/// Record codec: [crc32c(4) | payload]. The CRC covers the payload, so a
/// torn/corrupt record decodes to nullopt and replay skips (counts) it.
kv::Bytes encode_journal_record(const JournalRecord& rec);
std::optional<JournalRecord> decode_journal_record(const kv::Bytes& v);

/// Rolls one decoded intent record forward or backward against the raw
/// store (idempotent — the WAL replay loop calls this for every surviving
/// uncommitted kIntent record riding the NVM spine). Returns true when the
/// op was completed, false when undone; `cost` accrues the modelled remote
/// round trips of every probe and fix.
bool replay_intent_record(kv::KvStore& raw, const JournalRecord& rec,
                          sim::Nanos& cost);

struct JournalReplayReport {
  std::uint64_t scanned = 0;         ///< records found on mount
  std::uint64_t rolled_forward = 0;  ///< ops completed by replay
  std::uint64_t rolled_back = 0;     ///< ops undone by replay
  std::uint64_t corrupt = 0;         ///< CRC-failed records dropped
  sim::Nanos cost{};                 ///< modelled remote-KV cost of replay
};

class IntentJournal {
 public:
  /// `registry` hosts the kvfs.journal/* counters (required). `fault`
  /// (optional) enables the append-side crash point.
  IntentJournal(kv::RemoteKv& store, obs::Registry& registry,
                fault::FaultInjector* fault);

  /// Routes intent records through the NVM write-ahead log instead of
  /// per-record KV puts: begin() appends kIntent, commit() appends
  /// kIntentCommit — one durability spine with the data records. When the
  /// WAL is degraded (ring full / NVM faulting) begin() falls back to the
  /// KV path record-by-record, so write-ahead semantics never lapse.
  void attach_wal(nvm::WriteAheadLog* wal) { wal_ = wal; }

  /// Appends an intent record before the op's first mutation. Returns the
  /// record id, or 0 if the append failed — the caller must abort the op
  /// (EIO) without mutating anything, preserving write-ahead semantics.
  std::uint64_t begin(const JournalRecord& rec, sim::Nanos& cost);

  /// Erases the record after the op's last mutation. A failed erase is
  /// harmless (the record survives; replay re-probes and finds the op
  /// complete) so commit never fails the op.
  void commit(std::uint64_t record_id, sim::Nanos& cost);

  /// Replays every surviving record against the raw store and erases it.
  /// Runs on the recovery path (mount / DPU restart): bypasses fault
  /// injection and retries — recovery is not itself injectable — but
  /// charges modelled remote-KV round-trip costs for every probe and fix.
  /// Callers must ensure no concurrent mutation. `fault` (optional) arms
  /// only the kCrashMidReplay crash point — the probes and fixes themselves
  /// stay non-injectable.
  static JournalReplayReport replay(kv::KvStore& raw,
                                    obs::Registry* registry = nullptr,
                                    fault::FaultInjector* fault = nullptr);

 private:
  kv::RemoteKv* store_;
  fault::FaultInjector* fault_;
  nvm::WriteAheadLog* wal_ = nullptr;
  obs::Counter& appends_;
  obs::Counter& commits_;
  obs::Counter& append_fails_;
  obs::Counter& commit_fails_;
  obs::Counter& wal_appends_;
};

}  // namespace dpc::kvfs
