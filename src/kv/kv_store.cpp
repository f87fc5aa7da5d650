#include "kv/kv_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>

#include "ec/crc32c.hpp"
#include "sim/check.hpp"

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
}  // namespace

Bytes to_bytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

Bytes to_bytes(std::span<const std::byte> s) {
  return Bytes(s.begin(), s.end());
}

namespace {
std::size_t pick_shard_count(int shards) {
  std::size_t want;
  if (shards <= 0) {
    // Per-core sharding: one shard per hardware thread keeps independent
    // client threads on distinct locks; min 16 preserves spread on small
    // machines and matches the pre-sharded default.
    const unsigned hw = std::thread::hardware_concurrency();
    want = std::max<std::size_t>(16, hw == 0 ? 16 : hw);
  } else {
    want = static_cast<std::size_t>(shards);
  }
  return std::bit_ceil(want);  // pow2 so shard_for is a mask, not a div
}
}  // namespace

KvStore::KvStore(int shards) : shards_storage_(pick_shard_count(shards)) {
  shard_mask_ = shards_storage_.size() - 1;
}

KvStore::Shard& KvStore::shard_for(std::string_view key) const {
  const std::size_t h = std::hash<std::string_view>{}(key);
  // Fibonacci remix before masking: std::hash for short strings can be
  // low-entropy in the bottom bits, and the mask only sees those.
  return const_cast<Shard&>(
      shards_storage_[(h * 0x9E3779B97F4A7C15ull >> 32) & shard_mask_]);
}

void KvStore::put(std::string_view key, std::span<const std::byte> value) {
  std::uint64_t rot = 0;
  const bool rotted =
      fault_ != nullptr && fault_->should_fail(kFaultKvBitRot, &rot);
  Shard& sh = shard_for(key);
  sim::LockGuard lock(sh.mu);
  Value& v = sh.data[std::string(key)];
  v.data = to_bytes(value);
  v.crc = stamp_value_crc(key, v.data);
  if (rotted && !v.data.empty()) {
    const std::uint64_t bit = rot % (v.data.size() * 8);
    v.data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

bool KvStore::put_if_absent(std::string_view key,
                            std::span<const std::byte> value) {
  Shard& sh = shard_for(key);
  sim::LockGuard lock(sh.mu);
  Value v;
  v.data = to_bytes(value);
  v.crc = stamp_value_crc(key, v.data);
  return sh.data.try_emplace(std::string(key), std::move(v)).second;
}

std::optional<Bytes> KvStore::get(std::string_view key) const {
  const Shard& sh = shard_for(key);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.data.find(key);
  if (it == sh.data.end()) return std::nullopt;
  return it->second.data;
}

std::optional<Bytes> KvStore::get_checked(std::string_view key,
                                          ValueCheck* check) const {
  const Shard& sh = shard_for(key);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.data.find(key);
  if (it == sh.data.end()) {
    if (check != nullptr) *check = ValueCheck::kAbsent;
    return std::nullopt;
  }
  const Value& v = it->second;
  if (stamp_value_crc(key, v.data) != v.crc) {
    if (check != nullptr) *check = ValueCheck::kCorrupt;
    return std::nullopt;
  }
  if (check != nullptr) *check = ValueCheck::kOk;
  return v.data;
}

bool KvStore::contains(std::string_view key) const {
  const Shard& sh = shard_for(key);
  sim::SharedLockGuard lock(sh.mu);
  return sh.data.find(key) != sh.data.end();
}

bool KvStore::erase(std::string_view key) {
  Shard& sh = shard_for(key);
  sim::LockGuard lock(sh.mu);
  return sh.data.erase(std::string(key)) > 0;
}

std::optional<std::size_t> KvStore::read_sub(std::string_view key,
                                             std::uint64_t offset,
                                             std::span<std::byte> dst) const {
  const Shard& sh = shard_for(key);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.data.find(key);
  if (it == sh.data.end()) return std::nullopt;
  const Bytes& v = it->second.data;
  if (offset >= v.size()) return 0;
  const std::size_t n = std::min<std::size_t>(dst.size(), v.size() - offset);
  std::memcpy(dst.data(), v.data() + offset, n);
  return n;
}

std::optional<std::size_t> KvStore::read_sub_checked(std::string_view key,
                                                     std::uint64_t offset,
                                                     std::span<std::byte> dst,
                                                     ValueCheck* check) const {
  const Shard& sh = shard_for(key);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.data.find(key);
  if (it == sh.data.end()) {
    if (check != nullptr) *check = ValueCheck::kAbsent;
    return std::nullopt;
  }
  const Value& v = it->second;
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
  (void)write_sub_impl(key, offset, src, /*create=*/true);
}

bool KvStore::write_sub_if_present(std::string_view key, std::uint64_t offset,
                                   std::span<const std::byte> src) {
  return write_sub_impl(key, offset, src, /*create=*/false);
}

bool KvStore::write_sub_impl(std::string_view key, std::uint64_t offset,
                             std::span<const std::byte> src, bool create) {
  std::uint64_t tear = 0;
  std::size_t persisted = src.size();
  if (fault_ != nullptr && !src.empty() &&
      fault_->should_fail(kFaultKvTornWrite, &tear)) {
    persisted = tear % src.size();  // prefix lands, tail is lost
  }
  std::uint64_t rot = 0;
  const bool rotted =
      fault_ != nullptr && fault_->should_fail(kFaultKvBitRot, &rot);
  Shard& sh = shard_for(key);
  sim::LockGuard lock(sh.mu);
  auto it = sh.data.find(key);
  if (it == sh.data.end()) {
    if (!create) return false;
    it = sh.data.emplace(std::string(key), Value{}).first;
  }
  Value& v = it->second;
  if (v.data.size() < offset + src.size()) v.data.resize(offset + src.size());
  // The stamp covers the *intended* value; a torn write persists only a
  // prefix of the payload after the CRC was cut, so verification fails.
  std::memcpy(v.data.data() + offset, src.data(), src.size());
  v.crc = stamp_value_crc(key, v.data);
  if (persisted < src.size()) {
    // The lost tail reads back as zeroed cells, not the intended bytes.
    std::memset(v.data.data() + offset + persisted, 0,
                src.size() - persisted);
  }
  if (rotted && !v.data.empty()) {
    const std::uint64_t bit = rot % (v.data.size() * 8);
    v.data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
  return true;
}

ValueCheck KvStore::verify_value(std::string_view key) const {
  const Shard& sh = shard_for(key);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.data.find(key);
  if (it == sh.data.end()) return ValueCheck::kAbsent;
  const Value& v = it->second;
  return stamp_value_crc(key, v.data) == v.crc ? ValueCheck::kOk
                                               : ValueCheck::kCorrupt;
}

bool KvStore::corrupt_value(std::string_view key, std::uint64_t bit) {
  Shard& sh = shard_for(key);
  sim::LockGuard lock(sh.mu);
  const auto it = sh.data.find(key);
  if (it == sh.data.end() || it->second.data.empty()) return false;
  Bytes& d = it->second.data;
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
  Shard& sh = shard_for(key);
  sim::LockGuard lock(sh.mu);
  Value& v = sh.data[std::string(key)];
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
  const Shard& sh = shard_for(key);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.data.find(key);
  if (it == sh.data.end()) return std::nullopt;
  return it->second.data.size();
}

std::size_t KvStore::scan_prefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, const Bytes&)>& fn) const {
  // Gather matching (key, value) pairs per shard, then merge in key order —
  // the client-side merge a partitioned KV cluster's scan performs.
  std::vector<std::pair<std::string, const Bytes*>> hits;
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
