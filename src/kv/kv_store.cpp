#include "kv/kv_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

#include "ec/crc32c.hpp"
#include "sim/check.hpp"
#include "sim/schedhook.hpp"

namespace dpc::kv {

namespace {
/// The checksum stamp helper: CRC32C over the value, seeded with the CRC of
/// the key, so a value that migrates to the wrong key (misdirected put)
/// fails verification there.
std::uint32_t stamp_value_crc(std::string_view key,
                              std::span<const std::byte> value) {
  const auto* kp = reinterpret_cast<const std::byte*>(key.data());
  const std::uint32_t salt =
      ec::crc32c(std::span<const std::byte>(kp, key.size()));
  return ec::crc32c(value, salt);
}

/// dst ^= src, a word at a time.
void xor_into(std::byte* dst, std::span<const std::byte> src) {
  std::size_t i = 0;
  for (; i + 8 <= src.size(); i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src.data() + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < src.size(); ++i) dst[i] ^= src[i];
}

/// Flips the bit a bit_rot draw picked, after the stamp: rot at rest.
void rot_bit(Bytes& data, bool rotted, std::uint64_t rot) {
  if (!rotted || data.empty()) return;
  const std::uint64_t bit = rot % (data.size() * 8);
  data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}
}  // namespace

std::size_t Batch::put(std::string key, std::span<const std::byte> value,
                       Guard guard) {
  ops_.push_back({Kind::kPut, guard, std::move(key), 0, value, {}});
  return ops_.size() - 1;
}

std::size_t Batch::put(std::string key, Bytes&& value, Guard guard) {
  owned_.push_back(std::move(value));
  return put(std::move(key), owned_.back(), guard);
}

std::size_t Batch::erase(std::string key, Guard guard) {
  ops_.push_back({Kind::kErase, guard, std::move(key), 0, {}, {}});
  return ops_.size() - 1;
}

std::size_t Batch::write_sub(std::string key, std::uint64_t offset,
                             std::span<const std::byte> src, Guard guard) {
  ops_.push_back({Kind::kWriteSub, guard, std::move(key), offset, src, {}});
  return ops_.size() - 1;
}

void Batch::expect(std::size_t i, Bytes&& expect) {
  owned_.push_back(std::move(expect));
  ops_[i].guard = Guard::kEquals;
  ops_[i].expect = owned_.back();
}

std::uint64_t Batch::wire_bytes() const {
  std::uint64_t n = 0;
  for (const Op& op : ops_)
    n += op.key.size() + op.value.size() + op.expect.size();
  return n;
}

Bytes to_bytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

Bytes to_bytes(std::span<const std::byte> s) {
  return Bytes(s.begin(), s.end());
}

namespace {
std::size_t pow2_shards(int shards) {
  DPC_CHECK(shards >= 1 && shards <= KvStore::kMaxShards);
  return std::bit_ceil(static_cast<std::size_t>(shards));
}

/// The smallest index, and the largest: 2^24 slots use hash bits 40..63,
/// clear of the shard bits 32..39.
constexpr std::size_t kMinSlots = 16;
constexpr std::size_t kMaxSlots = std::size_t{1} << 24;
}  // namespace

KvStore::KvStore(int shards) : shards_storage_(pow2_shards(shards)) {
  shard_mask_ = shards_storage_.size() - 1;
}

std::uint64_t KvStore::key_hash(std::string_view key) {
  // Fibonacci remix: std::hash for short strings can be low-entropy in the
  // bottom bits, and the shard mask and the slot shift read higher ones.
  return std::hash<std::string_view>{}(key) * 0x9E3779B97F4A7C15ull;
}

std::size_t KvStore::shard_index(std::uint64_t h) const {
  return (h >> 32) & shard_mask_;
}

KvStore::Shard& KvStore::shard_for(std::uint64_t h) const {
  return const_cast<Shard&>(shards_storage_[shard_index(h)]);
}

std::size_t KvStore::Shard::home(std::uint64_t tag) const {
  return tag >> std::countl_zero(slots.size() - 1);
}

std::size_t KvStore::Shard::probe(std::string_view key,
                                  std::uint64_t tag) const {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = home(tag);; i = (i + 1) & mask) {
    const Slot& s = slots[i];
    if (s.tag == 0 || (s.tag == tag && s.it->first == key)) return i;
  }
}

KvStore::Value* KvStore::Shard::find(std::string_view key,
                                     std::uint64_t h) const {
  if (slots.empty()) return nullptr;
  const Slot& s = slots[probe(key, h | 1)];
  return s.tag != 0 ? &s.it->second : nullptr;
}

KvStore::Value& KvStore::Shard::emplace(std::string_view key,
                                        std::uint64_t h) {
  const std::uint64_t tag = h | 1;
  std::size_t i = 0;
  if (!slots.empty()) {
    i = probe(key, tag);
    if (slots[i].tag != 0) return slots[i].it->second;
  }
  if (2 * (used + 1) > slots.size()) {
    grow();
    i = probe(key, tag);
  }
  slots[i] = {tag, data.try_emplace(std::string(key)).first};
  ++used;
  return slots[i].it->second;
}

bool KvStore::Shard::erase(std::string_view key, std::uint64_t h) {
  if (slots.empty()) return false;
  std::size_t i = probe(key, h | 1);
  if (slots[i].tag == 0) return false;
  data.erase(slots[i].it);
  --used;
  // Backward shift: each later entry of the probe run moves into the hole
  // when the hole lies on its path from its home slot, so no run ever has
  // a gap and no tombstone is needed.
  const std::size_t mask = slots.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots[j].tag != 0;
       j = (j + 1) & mask) {
    if (((j - home(slots[j].tag)) & mask) >= ((j - i) & mask)) {
      slots[i] = slots[j];
      i = j;
    }
  }
  slots[i].tag = 0;
  return true;
}

void KvStore::Shard::grow() {
  std::vector<Slot> old(std::max(kMinSlots, 2 * slots.size()));
  DPC_CHECK(old.size() <= kMaxSlots);
  slots.swap(old);
  const std::size_t mask = slots.size() - 1;
  for (const Slot& s : old) {
    if (s.tag == 0) continue;
    std::size_t i = home(s.tag);
    while (slots[i].tag != 0) i = (i + 1) & mask;
    slots[i] = s;
  }
}

// The single-key mutations are one-op batches: apply() is the one place a
// value is stamped and its faults drawn.
void KvStore::put(std::string_view key, std::span<const std::byte> value) {
  Batch b;
  b.put(std::string(key), value);
  apply(b);
}

bool KvStore::put_if_absent(std::string_view key,
                            std::span<const std::byte> value) {
  Batch b;
  b.put(std::string(key), value, Batch::Guard::kAbsent);
  return apply(b).applied();
}

std::optional<Bytes> KvStore::get(std::string_view key) const {
  const std::uint64_t h = key_hash(key);
  const Shard& sh = shard_for(h);
  sim::SharedLockGuard lock(sh.mu);
  const Value* v = sh.find(key, h);
  if (v == nullptr) return std::nullopt;
  return v->data;
}

std::optional<Bytes> KvStore::get_checked(std::string_view key,
                                          ValueCheck* check) const {
  const std::uint64_t h = key_hash(key);
  const Shard& sh = shard_for(h);
  sim::SharedLockGuard lock(sh.mu);
  const Value* found = sh.find(key, h);
  if (found == nullptr) {
    if (check != nullptr) *check = ValueCheck::kAbsent;
    return std::nullopt;
  }
  const Value& v = *found;
  if (stamp_value_crc(key, v.data) != v.crc) {
    if (check != nullptr) *check = ValueCheck::kCorrupt;
    return std::nullopt;
  }
  if (check != nullptr) *check = ValueCheck::kOk;
  return v.data;
}

bool KvStore::contains(std::string_view key) const {
  const std::uint64_t h = key_hash(key);
  const Shard& sh = shard_for(h);
  sim::SharedLockGuard lock(sh.mu);
  return sh.find(key, h) != nullptr;
}

bool KvStore::erase(std::string_view key) {
  Batch b;
  b.erase(std::string(key), Batch::Guard::kPresent);
  return apply(b).applied();
}

std::optional<std::size_t> KvStore::read_sub(std::string_view key,
                                             std::uint64_t offset,
                                             std::span<std::byte> dst) const {
  const std::uint64_t h = key_hash(key);
  const Shard& sh = shard_for(h);
  sim::SharedLockGuard lock(sh.mu);
  const Value* found = sh.find(key, h);
  if (found == nullptr) return std::nullopt;
  const Bytes& v = found->data;
  if (offset >= v.size()) return 0;
  const std::size_t n = std::min<std::size_t>(dst.size(), v.size() - offset);
  std::memcpy(dst.data(), v.data() + offset, n);
  return n;
}

std::optional<std::size_t> KvStore::read_sub_checked(std::string_view key,
                                                     std::uint64_t offset,
                                                     std::span<std::byte> dst,
                                                     ValueCheck* check) const {
  const std::uint64_t h = key_hash(key);
  const Shard& sh = shard_for(h);
  sim::SharedLockGuard lock(sh.mu);
  const Value* found = sh.find(key, h);
  if (found == nullptr) {
    if (check != nullptr) *check = ValueCheck::kAbsent;
    return std::nullopt;
  }
  const Value& v = *found;
  if (stamp_value_crc(key, v.data) != v.crc) {
    if (check != nullptr) *check = ValueCheck::kCorrupt;
    return std::nullopt;
  }
  if (check != nullptr) *check = ValueCheck::kOk;
  if (offset >= v.data.size()) return 0;
  const std::size_t n =
      std::min<std::size_t>(dst.size(), v.data.size() - offset);
  std::memcpy(dst.data(), v.data.data() + offset, n);
  return n;
}

void KvStore::write_sub(std::string_view key, std::uint64_t offset,
                        std::span<const std::byte> src) {
  Batch b;
  b.write_sub(std::string(key), offset, src);
  apply(b);
}

KvStore::ValueFaults KvStore::draw_faults(const Batch::Op& op) const {
  // A put draws bit_rot; a sub-write torn_write, then bit_rot; an erase
  // leaves no value to damage.
  ValueFaults f;
  f.persisted = op.value.size();
  if (fault_ == nullptr || op.kind == Batch::Kind::kErase) return f;
  std::uint64_t tear = 0;
  if (op.kind == Batch::Kind::kWriteSub && !op.value.empty() &&
      fault_->should_fail(kFaultKvTornWrite, &tear)) {
    f.persisted = tear % op.value.size();  // prefix lands, tail is lost
  }
  f.rotted = fault_->should_fail(kFaultKvBitRot, &f.rot);
  return f;
}

void KvStore::sub_write(std::string_view key, Value& v, std::uint64_t offset,
                        std::span<const std::byte> src,
                        const ValueFaults& f) {
  const std::size_t old_size = v.data.size();
  const std::size_t end = offset + src.size();
  if (old_size < end) v.data.resize(end);  // zero-filled
  // Copies below use std::copy: an empty write into an empty value has
  // null pointers on both sides, which memcpy must never be given.
  std::byte* const dst = v.data.data() + offset;
  // The stamp covers the *intended* value; a torn write persists only a
  // prefix of the payload after the CRC was cut, so verification fails.
  if (old_size == 0 || (offset == 0 && end >= old_size)) {
    // Nothing of an old value survives (or there was none, the key just
    // made): stamp the new one fresh.
    std::copy(src.begin(), src.end(), dst);
    v.crc = stamp_value_crc(key, v.data);
  } else {
    // Move the stamp by what changed, never re-stamp bytes the write does
    // not cover: a CRC is affine in its input, so for equal lengths
    // stamp(new) = stamp(old) ^ raw(old ^ new), and the raw CRC of a
    // range followed by t zero bytes is the range's advanced past them.
    // Growth first extends the old stamp over the zero fill.
    if (end > old_size) v.crc = ~ec::crc32c_zeros(~v.crc, end - old_size);
    xor_into(dst, src);
    const std::uint32_t delta =
        ~ec::crc32c(std::span<const std::byte>(dst, src.size()), ~0u);
    v.crc ^= ec::crc32c_zeros(delta, v.data.size() - end);
    std::copy(src.begin(), src.end(), dst);
  }
  if (f.persisted < src.size()) {
    // The lost tail reads back as zeroed cells, not the intended bytes.
    std::memset(dst + f.persisted, 0, src.size() - f.persisted);
  }
  rot_bit(v.data, f.rotted, f.rot);
}

ApplyResult KvStore::apply(const Batch& batch) {
  using Guard = Batch::Guard;
  using Kind = Batch::Kind;
  const auto& ops = batch.ops();
  // Everything that needs no lock happens first: shard picks, the put
  // stamps and the per-value fault draws.
  struct Prep {
    std::uint64_t hash = 0;
    std::uint32_t shard = 0;
    std::uint32_t crc = 0;
    ValueFaults faults;
  };
  // In place for a batch of up to kInlineOps ops, like the batch's own.
  InlineVec<Prep, Batch::kInlineOps> prep(ops.size());
  InlineVec<std::uint32_t, Batch::kInlineOps> order_store(ops.size());
  std::span<std::uint32_t> order(order_store.data(), order_store.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Batch::Op& op = ops[i];
    Prep& p = prep[i];
    p.hash = key_hash(op.key);
    p.shard = static_cast<std::uint32_t>(shard_index(p.hash));
    order[i] = p.shard;
    if (op.kind == Kind::kPut) p.crc = stamp_value_crc(op.key, op.value);
    p.faults = draw_faults(op);
  }
  std::sort(order.begin(), order.end());
  order = order.first(static_cast<std::size_t>(
      std::unique(order.begin(), order.end()) - order.begin()));

  // DPC_CHECK_MUTATE batch-per-shard-commit: lock and apply one shard at a
  // time. A reader between two shards then sees half the batch; dpc_check's
  // batch_atomic scenario must catch it.
  if (sim::schedhook::mutate("batch-per-shard-commit")) {
    for (const std::uint32_t s : order) {
      Shard& sh = shards_storage_[s];
      sim::LockGuard lock(sh.mu);
      for (std::size_t i = 0; i < ops.size(); ++i)
        if (prep[i].shard == s)
          apply_op(ops[i], prep[i].hash, sh, prep[i].crc, prep[i].faults);
    }
    return {};
  }

  // Exclusive locks of every touched shard, released in reverse order.
  struct Held {
    std::vector<Shard>& shards;
    std::span<const std::uint32_t> order;
    std::size_t locked = 0;
    ~Held() NO_THREAD_SAFETY_ANALYSIS {
      while (locked > 0) shards[order[--locked]].mu.unlock();
    }
  } held{shards_storage_, order};
  for (const std::uint32_t s : order) {
    shards_storage_[s].mu.lock();
    ++held.locked;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Batch::Op& op = ops[i];
    if (op.guard == Guard::kNone) continue;
    const Value* v = shards_storage_[prep[i].shard].find(op.key, prep[i].hash);
    const bool ok =
        op.guard == Guard::kAbsent
            ? v == nullptr
            : v != nullptr &&
                  (op.guard == Guard::kPresent ||
                   std::equal(v->data.begin(), v->data.end(),
                              op.expect.begin(), op.expect.end()));
    if (!ok) return {i};
  }
  for (std::size_t i = 0; i < ops.size(); ++i)
    apply_op(ops[i], prep[i].hash, shards_storage_[prep[i].shard],
             prep[i].crc, prep[i].faults);
  return {};
}

void KvStore::apply_op(const Batch::Op& op, std::uint64_t h, Shard& sh,
                       std::uint32_t crc, const ValueFaults& f) {
  switch (op.kind) {
    case Batch::Kind::kPut: {
      Value& v = sh.emplace(op.key, h);
      v.data.assign(op.value.begin(), op.value.end());
      v.crc = crc;
      rot_bit(v.data, f.rotted, f.rot);
      break;
    }
    case Batch::Kind::kErase:
      sh.erase(op.key, h);
      break;
    case Batch::Kind::kWriteSub:
      sub_write(op.key, sh.emplace(op.key, h), op.offset, op.value, f);
      break;
  }
}

ValueCheck KvStore::verify_value(std::string_view key) const {
  const std::uint64_t h = key_hash(key);
  const Shard& sh = shard_for(h);
  sim::SharedLockGuard lock(sh.mu);
  const Value* v = sh.find(key, h);
  if (v == nullptr) return ValueCheck::kAbsent;
  return stamp_value_crc(key, v->data) == v->crc ? ValueCheck::kOk
                                                 : ValueCheck::kCorrupt;
}

bool KvStore::corrupt_value(std::string_view key, std::uint64_t bit) {
  const std::uint64_t h = key_hash(key);
  Shard& sh = shard_for(h);
  sim::LockGuard lock(sh.mu);
  Value* v = sh.find(key, h);
  if (v == nullptr || v->data.empty()) return false;
  Bytes& d = v->data;
  bit %= d.size() * 8;
  d[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  return true;
}

std::vector<std::string> KvStore::keys() const {
  std::vector<std::string> out;
  for (const auto& sh : shards_storage_) {
    sim::SharedLockGuard lock(sh.mu);
    for (const auto& [k, v] : sh.data) out.push_back(k);
  }
  return out;
}

std::uint64_t KvStore::increment(std::string_view key, std::uint64_t delta) {
  const std::uint64_t h = key_hash(key);
  Shard& sh = shard_for(h);
  sim::LockGuard lock(sh.mu);
  Value& v = sh.emplace(key, h);
  if (v.data.size() != sizeof(std::uint64_t))
    v.data.assign(sizeof(std::uint64_t), std::byte{0});
  std::uint64_t cur;
  std::memcpy(&cur, v.data.data(), sizeof(cur));
  cur += delta;
  std::memcpy(v.data.data(), &cur, sizeof(cur));
  v.crc = stamp_value_crc(key, v.data);
  return cur;
}

std::optional<std::uint64_t> KvStore::value_size(std::string_view key) const {
  const std::uint64_t h = key_hash(key);
  const Shard& sh = shard_for(h);
  sim::SharedLockGuard lock(sh.mu);
  const Value* v = sh.find(key, h);
  if (v == nullptr) return std::nullopt;
  return v->data.size();
}

std::size_t KvStore::scan_prefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, const Bytes&)>& fn) const {
  // Gather matching (key, value) pairs per shard, then merge in key order —
  // the client-side merge a partitioned KV cluster's scan performs. Every
  // shard stays locked until the visits end, so the hits are views.
  std::vector<std::pair<std::string_view, const Bytes*>> hits;
  std::vector<sim::SharedLock<sim::AnnotatedSharedMutex>> locks;
  locks.reserve(shards_storage_.size());
  for (const auto& sh : shards_storage_) {
    locks.emplace_back(sh.mu);
    auto it = sh.data.lower_bound(prefix);
    for (; it != sh.data.end(); ++it) {
      const std::string_view k = it->first;
      if (k.substr(0, prefix.size()) != prefix) break;
      hits.emplace_back(it->first, &it->second.data);
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t visited = 0;
  for (const auto& [k, v] : hits) {
    ++visited;
    if (!fn(k, *v)) break;
  }
  return visited;
}

std::size_t KvStore::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_storage_) {
    sim::SharedLockGuard lock(sh.mu);
    n += sh.data.size();
  }
  return n;
}

std::uint64_t KvStore::bytes_stored() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_storage_) {
    sim::SharedLockGuard lock(sh.mu);
    for (const auto& [k, v] : sh.data) n += k.size() + v.data.size();
  }
  return n;
}

}  // namespace dpc::kv
