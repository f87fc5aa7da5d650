#include "kv/kv_store.hpp"
#include "kv/remote.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace dpc::kv {
namespace {

Bytes b(std::string_view s) { return to_bytes(s); }

TEST(KvStore, PutGetErase) {
  KvStore kv;
  EXPECT_FALSE(kv.get("k").has_value());
  kv.put("k", b("v1"));
  EXPECT_EQ(kv.get("k"), b("v1"));
  kv.put("k", b("v2"));
  EXPECT_EQ(kv.get("k"), b("v2"));
  EXPECT_TRUE(kv.erase("k"));
  EXPECT_FALSE(kv.erase("k"));
  EXPECT_FALSE(kv.contains("k"));
}

TEST(KvStore, PutIfAbsentSemantics) {
  KvStore kv;
  EXPECT_TRUE(kv.put_if_absent("k", b("first")));
  EXPECT_FALSE(kv.put_if_absent("k", b("second")));
  EXPECT_EQ(kv.get("k"), b("first"));
}

TEST(KvStore, BinarySafeKeys) {
  KvStore kv;
  std::string key("\x00\x01\xFFkey", 6);
  kv.put(key, b("bin"));
  EXPECT_EQ(kv.get(key), b("bin"));
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, SubRangeReadWrite) {
  KvStore kv;
  kv.write_sub("big", 100, b("hello"));
  EXPECT_EQ(kv.value_size("big"), 105u);
  std::vector<std::byte> out(5);
  EXPECT_EQ(kv.read_sub("big", 100, out), 5u);
  EXPECT_EQ(out, b("hello"));
  // Leading gap reads as zeros.
  std::vector<std::byte> head(4);
  EXPECT_EQ(kv.read_sub("big", 0, head), 4u);
  EXPECT_EQ(head[0], std::byte{0});
  // In-place overwrite does not grow.
  kv.write_sub("big", 100, b("HELLO"));
  EXPECT_EQ(kv.value_size("big"), 105u);
  EXPECT_EQ(kv.read_sub("big", 100, out), 5u);
  EXPECT_EQ(out, b("HELLO"));
  // Beyond-EOF read is empty, missing key is nullopt.
  EXPECT_EQ(kv.read_sub("big", 1000, out), 0u);
  EXPECT_FALSE(kv.read_sub("nope", 0, out).has_value());
  // The only-if-present form updates in place but never creates.
  EXPECT_TRUE(kv.write_sub_if_present("big", 100, b("hello")));
  EXPECT_EQ(kv.read_sub("big", 100, out), 5u);
  EXPECT_EQ(out, b("hello"));
  EXPECT_FALSE(kv.write_sub_if_present("nope", 0, b("x")));
  EXPECT_FALSE(kv.contains("nope"));
}

TEST(KvStore, PrefixScanOrdered) {
  KvStore kv(4);  // multiple shards: scan must merge in key order
  kv.put("dir/c", b("3"));
  kv.put("dir/a", b("1"));
  kv.put("dir/b", b("2"));
  kv.put("other/x", b("9"));
  std::vector<std::string> keys;
  const auto n = kv.scan_prefix("dir/", [&](std::string_view k, const Bytes&) {
    keys.emplace_back(k);
    return true;
  });
  EXPECT_EQ(n, 3u);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "dir/a");
  EXPECT_EQ(keys[1], "dir/b");
  EXPECT_EQ(keys[2], "dir/c");
}

TEST(KvStore, PrefixScanEarlyStop) {
  KvStore kv;
  for (int i = 0; i < 10; ++i) kv.put("p/" + std::to_string(i), b("v"));
  int seen = 0;
  kv.scan_prefix("p/", [&](std::string_view, const Bytes&) {
    return ++seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(KvStore, SizeAndBytes) {
  KvStore kv;
  kv.put("a", b("xy"));
  kv.put("bb", b("z"));
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.bytes_stored(), 1u + 2u + 2u + 1u);
}

TEST(KvStore, ConcurrentMixedOps) {
  KvStore kv;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&kv, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "/" + std::to_string(i % 50);
        kv.put(key, b("value"));
        auto v = kv.get(key);
        ASSERT_TRUE(v.has_value());
        if (i % 7 == 0) kv.erase(key);
      }
    });
  }
  for (auto& t : ts) t.join();
  // Each thread's keyspace is disjoint; no corruption and sane size.
  EXPECT_LE(kv.size(), static_cast<std::size_t>(kThreads) * 50);
}

TEST(RemoteKv, CostsAttachToOps) {
  KvStore kv;
  RemoteKv remote(kv);
  const auto put = remote.put("k", b("0123456789"));
  EXPECT_TRUE(put.value);
  EXPECT_GT(put.cost.ns, 0);
  const auto get = remote.get("k");
  ASSERT_TRUE(get.value.has_value());
  EXPECT_GT(get.cost.ns, 0);
  // Bigger payloads cost more.
  Bytes big(1 << 20, std::byte{1});
  const auto put_big = remote.put("big", big);
  EXPECT_GT(put_big.cost.ns, put.cost.ns);
}

TEST(RemoteKv, ReadCheaperPerByteThanWrite) {
  // Calib: KV read bandwidth > write bandwidth.
  const auto r = RemoteKv::op_cost(true, 1 << 20);
  const auto w = RemoteKv::op_cost(false, 1 << 20);
  EXPECT_LT(r.ns, w.ns);
}

TEST(RemoteKv, FunctionalParityWithLocal) {
  KvStore kv;
  RemoteKv remote(kv);
  remote.put("a", b("1"));
  remote.write_sub("a", 1, b("23"));
  std::vector<std::byte> out(3);
  EXPECT_EQ(remote.read_sub("a", 0, out).value, 3u);
  EXPECT_EQ(out, b("123"));
  EXPECT_EQ(remote.value_size("a").value, 3u);
  EXPECT_TRUE(remote.erase("a").value);
  const auto absent = remote.write_sub_if_present("a", 0, b("x"));
  EXPECT_TRUE(absent.ok());
  EXPECT_FALSE(absent.value);
  EXPECT_FALSE(kv.contains("a"));
}

}  // namespace
}  // namespace dpc::kv
