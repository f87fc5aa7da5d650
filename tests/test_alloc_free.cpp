// Heap allocations on the warm paths, counted by a replaced global
// operator new. A warm 8 KiB overwrite through KVFS over the remote KV (no
// fault injector), a KvStore::apply of a small batch and the store's point
// reads of a present key must allocate nothing once their caches are warm;
// only inserting a new key may grow the store's index.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "kvfs/kvfs.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dpc {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocFree, WarmOverwriteThroughKvfsAllocatesNothing) {
  kv::KvStore store;
  kv::RemoteKv remote(store);
  kvfs::Kvfs fs(remote);
  const kvfs::Ino ino = fs.create(kvfs::kRootIno, "f", 0644).value;
  const std::vector<std::byte> block(8192, std::byte{3});
  ASSERT_TRUE(fs.write(ino, 0, std::vector<std::byte>(65536)).ok());
  // Warm up: the first overwrite settles the attr entry (and, in builds
  // with the lock-rank detector, its per-thread bookkeeping).
  for (std::uint64_t off = 0; off < 65536; off += 8192)
    ASSERT_TRUE(fs.write(ino, off, block).ok());
  for (std::uint64_t off = 0; off < 65536; off += 8192) {
    kvfs::Result<std::uint32_t> w;
    EXPECT_EQ(allocations([&] { w = fs.write(ino, off, block); }), 0u)
        << "offset " << off;
    EXPECT_TRUE(w.ok());
  }
}

TEST(AllocFree, SmallBatchApplyAllocatesNothing) {
  kv::KvStore store;
  const std::vector<std::byte> value(4096, std::byte{1});
  const std::vector<std::byte> sub(100, std::byte{2});
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("key" + std::to_string(i));  // short: no heap string
    store.put(keys.back(), value);
  }
  for (std::size_t n = 1; n <= kv::Batch::kInlineOps; ++n) {
    kv::ApplyResult r;
    const auto build_and_apply = [&] {
      kv::Batch b;
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 2 == 0)
          b.put(std::string(keys[i]), value, kv::Batch::Guard::kPresent);
        else
          b.write_sub(std::string(keys[i]), 8, sub);
      }
      r = store.apply(b);
    };
    // Warm up: in builds with the lock-rank detector, the first batch
    // records the shard-lock pairs it takes.
    build_and_apply();
    EXPECT_EQ(allocations(build_and_apply), 0u) << n << " ops";
    EXPECT_TRUE(r.applied());
  }
  // The counter is live: a long key is a heap string.
  EXPECT_GT(allocations([&] { keys.push_back(std::string(64, 'k')); }), 0u);
}

TEST(AllocFree, PointReadsOfAPresentKeyAllocateNothing) {
  kv::KvStore store;
  // Enough keys that every shard's index has doubled a few times.
  for (int i = 0; i < 2000; ++i)
    store.put("blk" + std::to_string(i), std::vector<std::byte>(64));
  const std::string key = "blk1234";
  std::vector<std::byte> dst(32);
  kv::ValueCheck check = kv::ValueCheck::kAbsent;
  bool present = false;
  std::optional<std::uint64_t> size;
  std::optional<std::size_t> got;
  std::optional<kv::Bytes> value;
  const auto read_sub = [&] {
    got = store.read_sub_checked(key, 16, dst, &check);
  };
  const auto contains = [&] { present = store.contains(key); };
  const auto value_size = [&] { size = store.value_size(key); };
  const auto get = [&] { value = store.get_checked(key, &check); };
  // Warm up: in builds with the lock-rank detector, the first shared
  // acquisition records its lock.
  read_sub();
  EXPECT_EQ(allocations(read_sub), 0u);
  EXPECT_EQ(got, 32u);
  EXPECT_EQ(check, kv::ValueCheck::kOk);
  EXPECT_EQ(allocations(contains), 0u);
  EXPECT_TRUE(present);
  EXPECT_EQ(allocations(value_size), 0u);
  EXPECT_EQ(size, 64u);
  // The returned copy of the value is its one allocation.
  EXPECT_EQ(allocations(get), 1u);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->size(), 64u);
}

TEST(AllocFree, GuardedOverwriteBatchAllocatesNothingAndOnlyAnInsertGrows) {
  kv::KvStore store;
  for (int i = 0; i < 2000; ++i)
    store.put("blk" + std::to_string(i), std::vector<std::byte>(64));
  const std::vector<std::byte> value(64, std::byte{7});
  const std::vector<std::byte> sub(16, std::byte{9});
  kv::Batch b;
  b.put("blk7", value, kv::Batch::Guard::kPresent);
  b.write_sub("blk8", 8, sub, kv::Batch::Guard::kPresent);
  b.expect(b.put("blk9", value), std::vector<std::byte>(64));
  b.erase("absent", kv::Batch::Guard::kAbsent);
  kv::Batch again;  // blk9 now holds `value`
  again.put("blk7", value, kv::Batch::Guard::kPresent);
  again.write_sub("blk8", 8, sub, kv::Batch::Guard::kPresent);
  again.expect(again.put("blk9", value), std::vector<std::byte>(value));
  again.erase("absent", kv::Batch::Guard::kAbsent);
  kv::ApplyResult r;
  EXPECT_TRUE(store.apply(b).applied());  // warm-up
  EXPECT_EQ(allocations([&] { r = store.apply(again); }), 0u);
  EXPECT_TRUE(r.applied());
  // A new key allocates (its map node, its key, its value).
  EXPECT_GT(allocations([&] { store.put("new", value); }), 0u);
  EXPECT_EQ(store.size(), 2001u);
}

}  // namespace
}  // namespace dpc
