#include "kvfs/journal.hpp"

#include <cstring>
#include <map>

#include "ec/crc32c.hpp"
#include "nvm/wal.hpp"

namespace dpc::kvfs {

namespace {

void put_u8(kv::Bytes& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u32(kv::Bytes& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_u64(kv::Bytes& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_str(kv::Bytes& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t at = out.size();
  out.resize(at + s.size());
  std::memcpy(out.data() + at, s.data(), s.size());
}

/// Bounds-checked cursor over a record payload; any short read poisons the
/// whole decode (a truncated record must not half-parse).
struct Reader {
  const kv::Bytes& v;
  std::size_t at;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || v.size() - at < n) return ok = false;
    std::memcpy(dst, v.data() + at, n);
    at += n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t x = 0;
    take(&x, sizeof(x));
    return x;
  }
  std::uint32_t u32() {
    std::uint32_t x = 0;
    take(&x, sizeof(x));
    return x;
  }
  std::uint64_t u64() {
    std::uint64_t x = 0;
    take(&x, sizeof(x));
    return x;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || v.size() - at < n) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(v.data() + at), n);
    at += n;
    return s;
  }
};

}  // namespace

kv::Bytes encode_journal_record(const JournalRecord& rec) {
  kv::Bytes out;
  out.resize(sizeof(std::uint32_t));  // CRC placeholder, filled last
  put_u8(out, static_cast<std::uint8_t>(rec.op));
  put_u32(out, static_cast<std::uint32_t>(rec.type));
  put_u64(out, rec.ino);
  put_u64(out, rec.parent);
  put_u64(out, rec.new_parent);
  put_u64(out, rec.replaced_ino);
  put_u32(out, rec.nlink_before);
  put_u8(out, rec.big_file);
  put_u8(out, rec.replaced_big);
  put_str(out, rec.name);
  put_str(out, rec.name2);
  put_u32(out, static_cast<std::uint32_t>(rec.blocks.size()));
  for (const std::uint64_t b : rec.blocks) put_u64(out, b);
  const std::uint32_t crc = ec::crc32c(
      std::span<const std::byte>(out).subspan(sizeof(std::uint32_t)));
  std::memcpy(out.data(), &crc, sizeof(crc));
  return out;
}

std::optional<JournalRecord> decode_journal_record(const kv::Bytes& v) {
  if (v.size() < sizeof(std::uint32_t)) return std::nullopt;
  std::uint32_t stored = 0;
  std::memcpy(&stored, v.data(), sizeof(stored));
  const std::uint32_t actual = ec::crc32c(
      std::span<const std::byte>(v).subspan(sizeof(std::uint32_t)));
  if (stored != actual) return std::nullopt;

  Reader r{v, sizeof(std::uint32_t)};
  JournalRecord rec;
  rec.op = static_cast<JournalOp>(r.u8());
  rec.type = static_cast<FileType>(r.u32());
  rec.ino = r.u64();
  rec.parent = r.u64();
  rec.new_parent = r.u64();
  rec.replaced_ino = r.u64();
  rec.nlink_before = r.u32();
  rec.big_file = r.u8();
  rec.replaced_big = r.u8();
  rec.name = r.str();
  rec.name2 = r.str();
  const std::uint32_t n = r.u32();
  if (r.ok && n <= (v.size() - r.at) / sizeof(std::uint64_t)) {
    rec.blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) rec.blocks.push_back(r.u64());
  } else {
    r.ok = false;
  }
  if (!r.ok || r.at != v.size()) return std::nullopt;
  if (rec.op < JournalOp::kCreate || rec.op > JournalOp::kExtent)
    return std::nullopt;
  if (rec.op == JournalOp::kExtent && rec.blocks.size() % 2 != 0)
    return std::nullopt;  // (logical, id) pairs only
  return rec;
}

IntentJournal::IntentJournal(kv::RemoteKv& store, obs::Registry& registry,
                             fault::FaultInjector* fault)
    : store_(&store),
      fault_(fault),
      appends_(registry.counter("kvfs.journal/appends")),
      commits_(registry.counter("kvfs.journal/commits")),
      append_fails_(registry.counter("kvfs.journal/append_fails")),
      commit_fails_(registry.counter("kvfs.journal/commit_fails")),
      wal_appends_(registry.counter("kvfs.journal/wal_appends")) {}

std::uint64_t IntentJournal::begin(const JournalRecord& rec,
                                   sim::Nanos& cost) {
  // Record ids share the ino counter: one increment primitive, globally
  // unique across mounts, no extra persistent key. A failed allocation or
  // append aborts the op before it mutates anything.
  const auto id = store_->increment(ino_counter_key(), 1);
  cost += id.cost;
  if (!id.ok()) {
    append_fails_.add();
    return 0;
  }
  const kv::Bytes payload = encode_journal_record(rec);
  if (wal_ != nullptr && !wal_->degraded()) {
    // Ride the NVM durability spine: one local persist instead of a remote
    // KV round trip. A full/faulting log falls through to the KV path — the
    // record must be durable *somewhere* before the op's first mutation.
    if (wal_->append_intent(id.value, payload, cost) ==
        nvm::AppendStatus::kOk) {
      appends_.add();
      wal_appends_.add();
      fault::crash_point(fault_, kCrashAfterAppend);
      return id.value;
    }
  }
  const auto put = store_->put(journal_key(id.value), payload);
  cost += put.cost;
  if (!put.ok()) {
    append_fails_.add();
    return 0;
  }
  appends_.add();
  fault::crash_point(fault_, kCrashAfterAppend);
  return id.value;
}

void IntentJournal::commit(std::uint64_t record_id, sim::Nanos& cost) {
  if (wal_ != nullptr && wal_->intent_open(record_id)) {
    // The intent rode the WAL; its commit marker must land in the same log
    // (a KV erase would target a key that was never written). A failed
    // marker is tolerated exactly like a failed KV erase: the intent stays
    // open, replay re-probes the complete op and finds nothing to do.
    if (wal_->append_intent_commit(record_id, cost) == nvm::AppendStatus::kOk) {
      commits_.add();
    } else {
      commit_fails_.add();
    }
    return;
  }
  const auto er = store_->erase(journal_key(record_id));
  cost += er.cost;
  if (er.ok()) {
    commits_.add();
  } else {
    // Tolerated: the record stays behind and replay re-probes the (now
    // complete) op, finding nothing left to do.
    commit_fails_.add();
  }
}

// ---------------------------------------------------------------- replay

namespace {

/// Replay-side raw-store access: recovery runs below the fault injector, so
/// probes and fixes hit the store directly but still charge modelled remote
/// round trips (the replay cost the recovery histogram reports).
struct Raw {
  kv::KvStore& kv;
  sim::Nanos cost{};

  std::optional<kv::Bytes> get(const std::string& key) {
    auto v = kv.get(key);
    cost += kv::RemoteKv::op_cost(true, v ? v->size() : 0);
    return v;
  }
  bool contains(const std::string& key) {
    cost += kv::RemoteKv::op_cost(true, 0);
    return kv.contains(key);
  }
  void put(const std::string& key, std::span<const std::byte> v) {
    cost += kv::RemoteKv::op_cost(false, v.size());
    kv.put(key, v);
  }
  void erase(const std::string& key) {
    cost += kv::RemoteKv::op_cost(false, 0);
    kv.erase(key);
  }
  /// Collects every value under `prefix` (one round trip for the batch).
  std::vector<std::pair<std::string, kv::Bytes>> scan(
      const std::string& prefix) {
    std::vector<std::pair<std::string, kv::Bytes>> out;
    std::uint64_t payload = 0;
    kv.scan_prefix(prefix, [&](std::string_view key, const kv::Bytes& v) {
      payload += key.size() + v.size();
      out.emplace_back(std::string(key), v);
      return true;
    });
    cost += kv::RemoteKv::op_cost(true, payload);
    return out;
  }
};

/// Drops every data KV an inode may own (small value, extent pages and
/// their blocks). Used when replay must finish a half-done delete.
void purge_data(Raw& raw, Ino ino) {
  raw.erase(small_key(ino));
  for (const auto& [key, value] : raw.scan(extent_page_prefix(ino))) {
    for (const std::uint64_t b : decode_extent_page(value))
      if (b != 0) raw.erase(block_key(b));
    raw.erase(key);
  }
}

/// True if `key` is a dentry that still resolves to `ino`.
bool dentry_is(Raw& raw, const std::string& key, Ino ino) {
  const auto v = raw.get(key);
  return v && v->size() == sizeof(Ino) && decode_ino(*v) == ino;
}

/// Roll one decoded record forward or backward. Returns true when the op was
/// completed (forward), false when undone (backward). Every path is
/// idempotent: replaying the same record twice is a no-op the second time.
bool replay_one(Raw& raw, const JournalRecord& rec) {
  switch (rec.op) {
    case JournalOp::kCreate: {
      // Mutation order was dentry → attr → (symlink target) → parent attr.
      const std::string dkey = inode_key(rec.parent, rec.name);
      if (!dentry_is(raw, dkey, rec.ino)) {
        // Never linked in (or the name belongs to someone else, meaning the
        // op lost an EEXIST race): scrub anything written for this ino.
        raw.erase(attr_key(rec.ino));
        raw.erase(small_key(rec.ino));
        return false;
      }
      const auto av = raw.get(attr_key(rec.ino));
      if (!av) {
        // Linked but attributeless — the dangerous half-state fsck flags as
        // a dangling dentry. Undo the link.
        raw.erase(dkey);
        raw.erase(small_key(rec.ino));
        return false;
      }
      // Node fully exists: finish the tail the crash may have cut off.
      Attr a = decode_attr(*av);
      if (rec.type == FileType::kSymlink) {
        const kv::Bytes target = kv::to_bytes(rec.name2);
        raw.put(small_key(rec.ino), target);
        if (a.size != target.size()) {
          a.size = target.size();
          raw.put(attr_key(rec.ino), encode_attr(a));
        }
      }
      // Parent nlink/mtime normalization is fsck_repair's job (it recomputes
      // link counts globally, which one record cannot).
      return true;
    }

    case JournalOp::kRemove: {
      // Mutation order was dentry erase → attr update/purge → parent attr.
      const std::string dkey = inode_key(rec.parent, rec.name);
      if (dentry_is(raw, dkey, rec.ino)) return false;  // never started
      if (rec.type != FileType::kDirectory && rec.nlink_before > 1) {
        // Hard link removal: only the link count drops.
        if (const auto av = raw.get(attr_key(rec.ino))) {
          Attr a = decode_attr(*av);
          if (a.nlink == rec.nlink_before) {
            a.nlink = rec.nlink_before - 1;
            raw.put(attr_key(rec.ino), encode_attr(a));
          }
        }
      } else {
        purge_data(raw, rec.ino);
        raw.erase(attr_key(rec.ino));
      }
      return true;
    }

    case JournalOp::kRename: {
      // Always forward: the destination purge may already be half done, so
      // the old world is unrecoverable — completing the move is the only
      // consistent end state.
      if (rec.replaced_ino != 0) {
        purge_data(raw, rec.replaced_ino);
        raw.erase(attr_key(rec.replaced_ino));
      }
      const std::string src = inode_key(rec.parent, rec.name);
      const std::string dst = inode_key(rec.new_parent, rec.name2);
      const kv::Bytes ino_v = encode_ino(rec.ino);
      raw.put(dst, ino_v);
      if (src != dst && dentry_is(raw, src, rec.ino)) raw.erase(src);
      return true;
    }

    case JournalOp::kPromote: {
      // Mutation order was block data → page-0 put → small erase → flag
      // set. The page-0 put is the commit point: present means the extent
      // index took over, absent means the small value is still
      // authoritative.
      if (raw.contains(extent_page_key(rec.ino, 0))) {
        raw.erase(small_key(rec.ino));
        if (const auto av = raw.get(attr_key(rec.ino))) {
          Attr a = decode_attr(*av);
          if (a.big_file == 0) {
            a.big_file = 1;
            raw.put(attr_key(rec.ino), encode_attr(a));
          }
        }
        return true;
      }
      for (const std::uint64_t b : rec.blocks)
        if (b != 0) raw.erase(block_key(b));
      return false;
    }

    case JournalOp::kExtent: {
      // The (logical, id) pairs of one big-file write. All block data landed
      // before the first page put, which is the commit point: if any named
      // id sits in its page, the write committed and every pair is installed
      // (the crash may have cut off later page puts); otherwise the ids are
      // orphan blocks to reclaim. Only the pages the record names are read.
      // A slot already holding another id is left alone: that block was
      // reallocated by a later write, and the named one is fsck's orphan.
      std::map<std::uint32_t, ExtentPage> pages;  // absent page = all holes
      bool committed = false;
      for (std::size_t i = 0; i + 1 < rec.blocks.size(); i += 2) {
        const std::uint64_t logical = rec.blocks[i];
        const auto [it, fresh] = pages.try_emplace(page_of_block(logical));
        if (fresh) {
          if (const auto v = raw.get(extent_page_key(rec.ino, it->first)))
            it->second = decode_extent_page(*v);
        }
        committed = committed ||
                    it->second[slot_of_block(logical)] == rec.blocks[i + 1];
      }
      if (!committed) {
        for (std::size_t i = 1; i < rec.blocks.size(); i += 2)
          if (rec.blocks[i] != 0) raw.erase(block_key(rec.blocks[i]));
        return false;
      }
      for (auto& [page, ids] : pages) {
        bool changed = false;
        for (std::size_t i = 0; i + 1 < rec.blocks.size(); i += 2) {
          const std::uint64_t logical = rec.blocks[i];
          if (page_of_block(logical) != page) continue;
          std::uint64_t& slot = ids[slot_of_block(logical)];
          if (slot != 0) continue;
          slot = rec.blocks[i + 1];
          changed = true;
        }
        if (changed)
          raw.put(extent_page_key(rec.ino, page), encode_extent_page(ids));
      }
      return true;
    }
  }
  return false;
}

}  // namespace

bool replay_intent_record(kv::KvStore& raw_store, const JournalRecord& rec,
                          sim::Nanos& cost) {
  Raw raw{raw_store};
  const bool forward = replay_one(raw, rec);
  cost += raw.cost;
  return forward;
}

JournalReplayReport IntentJournal::replay(kv::KvStore& raw_store,
                                          obs::Registry* registry,
                                          fault::FaultInjector* fault) {
  JournalReplayReport rep;
  Raw raw{raw_store};

  // Snapshot the record set first: replay mutates the store, and scan_prefix
  // holds shard locks during the visit.
  std::vector<std::pair<std::string, kv::Bytes>> records;
  raw_store.scan_prefix(
      journal_key_prefix(),
      [&](std::string_view key, const kv::Bytes& value) {
        records.emplace_back(std::string(key), value);
        raw.cost += kv::RemoteKv::op_cost(true, value.size());
        return true;
      });

  for (const auto& [key, value] : records) {
    ++rep.scanned;
    const auto rec = decode_journal_record(value);
    if (!rec) {
      ++rep.corrupt;
    } else if (replay_one(raw, *rec)) {
      ++rep.rolled_forward;
    } else {
      ++rep.rolled_back;
    }
    // Crash window between applying a record and erasing it: the second
    // replay re-scans this record and replay_one converges (idempotent).
    fault::crash_point(fault, kCrashMidReplay);
    raw.erase(key);
  }
  rep.cost = raw.cost;

  if (registry != nullptr && rep.scanned > 0) {
    // Recovery path — runs once per DPU restart, not per op.
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry->counter("kvfs.journal/replays").add(rep.rolled_forward);
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry->counter("kvfs.journal/rollbacks").add(rep.rolled_back);
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry->counter("kvfs.journal/corrupt").add(rep.corrupt);
  }
  return rep;
}

}  // namespace dpc::kvfs
