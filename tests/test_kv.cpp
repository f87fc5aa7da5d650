#include "kv/kv_store.hpp"
#include "kv/remote.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "fault/injector.hpp"
#include "sim/calib.hpp"
#include "sim/rng.hpp"

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
  // Guarded present, it updates in place but never creates.
  const auto hello = b("hello");
  Batch present;
  present.write_sub("big", 100, hello, Batch::Guard::kPresent);
  EXPECT_TRUE(kv.apply(present).applied());
  EXPECT_EQ(kv.read_sub("big", 100, out), 5u);
  EXPECT_EQ(out, hello);
  Batch absent;
  absent.write_sub("nope", 0, hello, Batch::Guard::kPresent);
  EXPECT_FALSE(kv.apply(absent).applied());
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
  Batch del;
  del.erase("a", Batch::Guard::kPresent);
  EXPECT_TRUE(remote.apply(del).value.applied());
  const auto x = b("x");
  Batch sub;
  sub.write_sub("a", 0, x, Batch::Guard::kPresent);
  const auto absent = remote.apply(sub);
  EXPECT_TRUE(absent.ok());
  EXPECT_FALSE(absent.value.applied());
  EXPECT_FALSE(kv.contains("a"));
}

// ---------------------------------------------------------------- batches

TEST(KvBatch, AppliesEveryOpInOrder) {
  KvStore kv;
  kv.put("gone", b("x"));
  kv.put("grow", b("ab"));
  // write_sub takes a span: its source must outlive the batch.
  const Bytes xyz = b("XYZ");
  const Bytes q = b("q");
  const Bytes j = b("J");
  Batch batch;
  batch.put("new", b("hello"), Batch::Guard::kAbsent);
  batch.erase("gone", Batch::Guard::kPresent);
  batch.write_sub("grow", 1, xyz);
  batch.write_sub("fresh", 2, q);  // created, zero-filled below 2
  batch.write_sub("new", 0, j);    // sees the put before it
  const std::size_t eq = batch.put("grow2", b("v"));
  batch.expect(eq, Bytes{});  // kEquals on an absent key fails...
  EXPECT_EQ(kv.apply(batch).failed_guard, eq);
  EXPECT_TRUE(kv.contains("gone"));  // ...and nothing applied

  Batch ok;
  ok.put("new", b("hello"), Batch::Guard::kAbsent);
  ok.erase("gone", Batch::Guard::kPresent);
  ok.write_sub("grow", 1, xyz);
  ok.write_sub("fresh", 2, q);
  ok.write_sub("new", 0, j);
  const std::size_t eq2 = ok.put("grow", b("final"));
  ok.expect(eq2, b("ab"));  // guards see the store before the batch
  ASSERT_TRUE(kv.apply(ok).applied());
  EXPECT_EQ(kv.get("new"), b("Jello"));
  EXPECT_FALSE(kv.contains("gone"));
  EXPECT_EQ(kv.get("grow"), b("final"));
  Bytes fresh(3, std::byte{0});
  fresh[2] = std::byte{'q'};
  EXPECT_EQ(kv.get("fresh"), fresh);
  // Every value the batch wrote carries a valid stamp.
  for (const char* k : {"new", "grow", "fresh"})
    EXPECT_EQ(kv.verify_value(k), ValueCheck::kOk) << k;
}

TEST(KvBatch, FailedGuardAppliesNothingAndNamesTheOp) {
  KvStore kv(4);
  for (int i = 0; i < 16; ++i) kv.put("k" + std::to_string(i), b("old"));
  const auto guarded = [&](Batch::Guard g, std::string_view key) {
    Batch batch;
    for (int i = 0; i < 16; ++i) batch.put("k" + std::to_string(i), b("new"));
    return std::pair{batch.put(std::string(key), b("v"), g),
                     kv.apply(batch)};
  };
  for (const auto& [g, key] :
       {std::pair{Batch::Guard::kAbsent, "k3"},
        std::pair{Batch::Guard::kPresent, "nope"}}) {
    const auto [idx, r] = guarded(g, key);
    EXPECT_FALSE(r.applied());
    EXPECT_EQ(r.failed_guard, idx);
  }
  Batch batch;
  batch.put("k1", b("new"));
  batch.expect(batch.erase("k2"), b("not-old"));
  EXPECT_EQ(kv.apply(batch).failed_guard, 1u);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(kv.get("k" + std::to_string(i)), b("old")) << i;
}

TEST(KvBatch, KeepsThePerValueCorruptionDraws) {
  KvStore kv;
  fault::FaultInjector fi(7);
  kv.attach_fault(&fi);
  fi.arm(kFaultKvBitRot, 1.0);
  Batch batch;
  batch.put("rot", b("payload"));
  ASSERT_TRUE(kv.apply(batch).applied());
  EXPECT_EQ(kv.verify_value("rot"), ValueCheck::kCorrupt);
  fi.disarm(kFaultKvBitRot);
  fi.arm(kFaultKvTornWrite, 1.0);
  kv.put("torn", b("abcdefgh"));
  const Bytes upper = b("ABCDEFGH");
  Batch sub;
  sub.write_sub("torn", 0, upper);
  ASSERT_TRUE(kv.apply(sub).applied());
  EXPECT_EQ(kv.verify_value("torn"), ValueCheck::kCorrupt);
}

/// Every single-key mutation is a one-op batch, so put_if_absent draws the
/// same bit_rot a put does (it drew none before) and a guarded erase
/// answers whether the key was there.
TEST(KvStore, SingleKeyMutationsShareTheBatchFaultDraws) {
  KvStore kv;
  fault::FaultInjector fi(7);
  kv.attach_fault(&fi);
  fi.arm(kFaultKvBitRot, 1.0);
  kv.put("put", b("payload"));
  ASSERT_TRUE(kv.put_if_absent("absent", b("payload")));
  EXPECT_EQ(kv.verify_value("put"), ValueCheck::kCorrupt);
  EXPECT_EQ(kv.verify_value("absent"), ValueCheck::kCorrupt);
  EXPECT_EQ(fi.draws(kFaultKvBitRot), 2u);
  EXPECT_FALSE(kv.put_if_absent("absent", b("other")));
  EXPECT_TRUE(kv.erase("absent"));
  EXPECT_FALSE(kv.erase("absent"));
  EXPECT_EQ(fi.draws(kFaultKvBitRot), 3u);  // the refused put drew; erases not
}

// ------------------------------------------------- stamp granularity ---
//
// A sub-write moves the value's stamp by the CRC of the bytes it changes.
// Damage in bytes it does not overwrite must stay detectable (a re-stamp
// over the whole stored value would launder it), a write covering the
// whole value stamps it fresh, and growth keeps the stamp exact. Seeded
// from DPC_FAULT_SEED, so the scrub stage sweeps the damage positions.

std::uint64_t stamp_seed() { return fault::FaultInjector::seed_from_env(29); }

Bytes random_bytes(sim::Rng& rng, std::size_t n) {
  Bytes v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next_below(256));
  return v;
}

/// The reproduction: rot at byte 6000 of an 8 KiB value, then a 4 KiB
/// page written at 0 (what the flusher sends into a big-file block).
TEST(SilentCorruption, PageWriteKeepsRotInTheColdHalfDetectable) {
  sim::Rng rng(stamp_seed());
  KvStore kv;
  kv.put("blk", random_bytes(rng, 8192));
  ASSERT_TRUE(kv.corrupt_value("blk", 6000 * 8 + rng.next_below(8)));
  ASSERT_EQ(kv.verify_value("blk"), ValueCheck::kCorrupt);
  kv.write_sub("blk", 0, random_bytes(rng, 4096));
  EXPECT_EQ(kv.verify_value("blk"), ValueCheck::kCorrupt);
  Bytes tail(4096);
  ValueCheck check = ValueCheck::kOk;
  EXPECT_FALSE(kv.read_sub_checked("blk", 4096, tail, &check).has_value());
  EXPECT_EQ(check, ValueCheck::kCorrupt);
}

/// Rot anywhere outside a partial write, at any offset and length.
TEST(SilentCorruption, PartialSubWritesNeverLaunderRot) {
  sim::Rng rng(stamp_seed() ^ 0x51);
  for (int round = 0; round < 64; ++round) {
    KvStore kv;
    const std::size_t size = 1 + rng.next_below(9000);
    kv.put("v", random_bytes(rng, size));
    const std::size_t off = rng.next_below(size);
    const std::size_t len = 1 + rng.next_below(size - off);
    if (off == 0 && len == size) continue;  // a whole cover heals
    // A bit outside [off, off + len).
    std::uint64_t byte = rng.next_below(size - len);
    if (byte >= off) byte += len;
    ASSERT_TRUE(kv.corrupt_value("v", byte * 8 + rng.next_below(8)));
    kv.write_sub("v", off, random_bytes(rng, len));
    EXPECT_EQ(kv.verify_value("v"), ValueCheck::kCorrupt)
        << "size " << size << " write [" << off << ", " << off + len
        << ") rot at " << byte;
  }
}

/// Undamaged values: every moved stamp equals a fresh one, through
/// overwrites inside the value, growth that overlaps its end, and growth
/// past it (a zero-filled gap).
TEST(SilentCorruption, MovedStampsMatchFreshOnesThroughGrowth) {
  sim::Rng rng(stamp_seed() ^ 0x52);
  KvStore kv;
  Bytes model = random_bytes(rng, 1 + rng.next_below(5000));
  kv.put("v", model);
  for (int round = 0; round < 200; ++round) {
    const std::size_t off = rng.next_below(model.size() + 600);
    const Bytes src = random_bytes(rng, 1 + rng.next_below(3000));
    kv.write_sub("v", off, src);
    if (model.size() < off + src.size()) model.resize(off + src.size());
    std::copy(src.begin(), src.end(), model.begin() + off);
    ASSERT_EQ(kv.verify_value("v"), ValueCheck::kOk) << "round " << round;
    ValueCheck check = ValueCheck::kCorrupt;
    ASSERT_EQ(kv.get_checked("v", &check), model);
  }
}

/// Growth carries old damage along; only a write covering the whole
/// value, or a put, stamps it fresh and heals it.
TEST(SilentCorruption, GrowthKeepsDamageAndAFullCoverHeals) {
  sim::Rng rng(stamp_seed() ^ 0x53);
  KvStore kv;
  kv.put("v", random_bytes(rng, 4096));
  ASSERT_TRUE(kv.corrupt_value("v", rng.next_below(4096 * 8)));
  kv.write_sub("v", 4096 + rng.next_below(100), random_bytes(rng, 4096));
  EXPECT_EQ(kv.verify_value("v"), ValueCheck::kCorrupt);
  const std::size_t size = *kv.value_size("v");
  kv.write_sub("v", 0, random_bytes(rng, size + rng.next_below(2)));
  EXPECT_EQ(kv.verify_value("v"), ValueCheck::kOk);

  ASSERT_TRUE(kv.corrupt_value("v", rng.next_below(size * 8)));
  kv.put("v", random_bytes(rng, 100));
  EXPECT_EQ(kv.verify_value("v"), ValueCheck::kOk);
  // A sub-write creating its key (zero fill below the offset) is fresh.
  kv.write_sub("new", rng.next_below(100), random_bytes(rng, 50));
  EXPECT_EQ(kv.verify_value("new"), ValueCheck::kOk);
}

// ---- the point-lookup index against an ordered reference ----------------

using Reference = std::map<std::string, Bytes, std::less<>>;

/// Key `n` of the churn's key space: eight prefixes, some keys long enough
/// to be heap strings, a few with binary bytes.
std::string churn_key(std::uint64_t n) {
  std::string k = "p" + std::to_string(n % 8) + "/" + std::to_string(n);
  if (n % 5 == 0) k += std::string(20, 'x');
  if (n % 11 == 0) k += std::string("\x00\xff", 2);
  return k;
}

/// Every point accessor agrees with `ref` on `key`.
void expect_point(const KvStore& kv, const Reference& ref,
                  std::string_view key) {
  const auto it = ref.find(key);
  const bool present = it != ref.end();
  ASSERT_EQ(kv.contains(key), present) << key;
  ASSERT_EQ(kv.get(key).has_value(), present) << key;
  if (present) {
    ASSERT_EQ(*kv.get(key), it->second) << key;
    ASSERT_EQ(kv.value_size(key), it->second.size()) << key;
    ASSERT_EQ(kv.verify_value(key), ValueCheck::kOk) << key;
  } else {
    ASSERT_FALSE(kv.value_size(key).has_value()) << key;
  }
}

/// The scan of `prefix` visits `ref`'s keys under it in order, and the
/// sizes agree.
void expect_scan(const KvStore& kv, const Reference& ref,
                 std::string_view prefix) {
  std::vector<std::pair<std::string, Bytes>> scanned;
  kv.scan_prefix(prefix, [&](std::string_view k, const Bytes& v) {
    scanned.emplace_back(k, v);
    return true;
  });
  std::vector<std::pair<std::string, Bytes>> expected;
  for (auto r = ref.lower_bound(prefix);
       r != ref.end() && r->first.starts_with(prefix); ++r)
    expected.emplace_back(r->first, r->second);
  ASSERT_EQ(scanned, expected) << "prefix " << prefix;
  ASSERT_EQ(kv.size(), ref.size());
}

/// A seeded op sequence over a churning key space — grow past several
/// index doublings, erase most keys, grow again — checked against an
/// ordered reference after every step: the touched key, a random key, a
/// random prefix scan and the size; every key at each phase's end.
TEST(KvIndex, MatchesAnOrderedReferenceThroughChurn) {
  const std::uint64_t seed = fault::FaultInjector::seed_from_env(30);
  SCOPED_TRACE(seed);
  sim::Rng rng(seed);
  KvStore kv(2);  // few shards: each index doubles up to 1 024+ slots
  Reference ref;
  constexpr std::uint64_t kSpace = 2048;
  const auto value = [&] { return random_bytes(rng, rng.next_below(40)); };
  // Per phase: steps, and the share of steps that erase.
  const std::pair<int, double> phases[] = {
      {2000, 0.1}, {2000, 0.8}, {1500, 0.05}, {2000, 0.9}};
  for (const auto& [steps, erase_share] : phases) {
    for (int step = 0; step < steps; ++step) {
      const std::string key = churn_key(rng.next_below(kSpace));
      const bool erase = rng.next_bool(erase_share);
      switch (erase ? 0 : 1 + rng.next_below(5)) {
        case 0: {
          ASSERT_EQ(kv.erase(key), ref.erase(key) == 1) << key;
          break;
        }
        case 1: {
          const Bytes v = value();
          kv.put(key, v);
          ref[key] = v;
          break;
        }
        case 2: {
          const Bytes v = value();
          ASSERT_EQ(kv.put_if_absent(key, v), ref.try_emplace(key, v).second)
              << key;
          break;
        }
        case 3: {
          const std::uint64_t off = rng.next_below(32);
          const Bytes src = random_bytes(rng, 1 + rng.next_below(16));
          kv.write_sub(key, off, src);
          Bytes& r = ref[key];
          if (r.size() < off + src.size()) r.resize(off + src.size());
          std::copy(src.begin(), src.end(), r.begin() + off);
          break;
        }
        case 4: {
          const std::uint64_t delta = 1 + rng.next_below(1000);
          Bytes& r = ref[key];
          if (r.size() != 8) r.assign(8, std::byte{0});
          std::uint64_t cur;
          std::memcpy(&cur, r.data(), 8);
          cur += delta;
          std::memcpy(r.data(), &cur, 8);
          ASSERT_EQ(kv.increment(key, delta), cur) << key;
          break;
        }
        default: {
          // A guarded batch of 2..6 ops; guards are checked against the
          // store before any op applies, and a refusal applies nothing.
          Batch batch;
          std::vector<Bytes> held(6);  // the batch holds spans of these
          const std::size_t n = 2 + rng.next_below(5);
          std::size_t first_refused = ApplyResult::kApplied;
          for (std::size_t i = 0; i < n; ++i) {
            const std::string k = churn_key(rng.next_below(kSpace));
            const auto r = ref.find(k);
            const bool present = r != ref.end();
            const auto guard = static_cast<Batch::Guard>(rng.next_below(4));
            const Batch::Guard plain =
                guard == Batch::Guard::kEquals ? Batch::Guard::kNone : guard;
            held[i] = value();
            std::size_t op = 0;
            switch (rng.next_below(3)) {
              case 0: op = batch.put(k, held[i], plain); break;
              case 1: op = batch.erase(k, plain); break;
              default:
                op = batch.write_sub(k, rng.next_below(16), held[i], plain);
            }
            bool ok = guard == Batch::Guard::kNone ||
                      (guard == Batch::Guard::kAbsent ? !present : present);
            if (guard == Batch::Guard::kEquals) {
              // Half the time the expected bytes are the stored ones.
              Bytes expect =
                  present && rng.next_bool(0.5) ? r->second : value();
              ok = present && expect == r->second;
              batch.expect(op, std::move(expect));
            }
            if (!ok && first_refused == ApplyResult::kApplied)
              first_refused = i;
          }
          const ApplyResult res = kv.apply(batch);
          ASSERT_EQ(res.failed_guard, first_refused);
          if (res.applied()) {
            for (const Batch::Op& op : batch.ops()) {
              if (op.kind == Batch::Kind::kPut) {
                ref[op.key] = Bytes(op.value.begin(), op.value.end());
              } else if (op.kind == Batch::Kind::kErase) {
                ref.erase(op.key);
              } else {
                Bytes& r = ref[op.key];
                if (r.size() < op.offset + op.value.size())
                  r.resize(op.offset + op.value.size());
                std::copy(op.value.begin(), op.value.end(),
                          r.begin() + op.offset);
              }
            }
          }
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_point(kv, ref, key));
      ASSERT_NO_FATAL_FAILURE(
          expect_point(kv, ref, churn_key(rng.next_below(kSpace))));
      ASSERT_NO_FATAL_FAILURE(expect_scan(
          kv, ref, "p" + std::to_string(rng.next_below(8)) + "/"));
    }
    for (std::uint64_t n = 0; n < kSpace; ++n)
      ASSERT_NO_FATAL_FAILURE(expect_point(kv, ref, churn_key(n)));
    ASSERT_NO_FATAL_FAILURE(expect_scan(kv, ref, ""));
  }
}

/// Readers get and scan while a writer churns keys through index
/// doublings and backward-shift erases: a lookup under the shared lock
/// never writes the index (the TSan build checks it), and the readers'
/// own keys stay visible throughout.
TEST(KvIndex, ReadersSeeAStableIndexWhileAWriterChurns) {
  KvStore kv(2);
  constexpr int kStable = 64;
  for (int i = 0; i < kStable; ++i)
    kv.put("s/" + std::to_string(i), b(std::to_string(i)));
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&kv, &done, t] {
      sim::Rng rng(fault::FaultInjector::seed_from_env(30) + 1 + t);
      do {
        const auto i = rng.next_below(kStable);
        const auto v = kv.get("s/" + std::to_string(i));
        ASSERT_TRUE(v.has_value()) << i;
        ASSERT_EQ(*v, b(std::to_string(i)));
        std::string last;
        std::size_t seen = 0;
        kv.scan_prefix("s/", [&](std::string_view k, const Bytes&) {
          EXPECT_LT(last, k);
          last = k;
          ++seen;
          return true;
        });
        ASSERT_EQ(seen, static_cast<std::size_t>(kStable));
        kv.scan_prefix("w/0/12", [](std::string_view, const Bytes&) {
          return true;
        });
      } while (!done.load(std::memory_order_acquire));
    });
  }
  sim::Rng rng(fault::FaultInjector::seed_from_env(30));
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 1500; ++i)
      kv.put("w/" + std::to_string(round) + "/" + std::to_string(i), b("v"));
    for (int i = 0; i < 1500; ++i) {
      if (!rng.next_bool(0.9)) continue;
      kv.erase("w/" + std::to_string(round) + "/" + std::to_string(i));
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
}

TEST(RemoteKv, BatchCostIsRoundTripsPlusWireBytes) {
  using namespace sim::calib;
  const sim::Nanos rt = kNetHop * 2 + kKvServerOp;
  Batch one;
  one.put("a", b("0123456789"));
  EXPECT_EQ(RemoteKv::batch_cost(one).ns,
            (rt + kv_write_transfer(one.wire_bytes())).ns);
  Batch many;
  for (int i = 0; i < 64; ++i) many.put("k" + std::to_string(i), b("v"));
  EXPECT_EQ(RemoteKv::batch_cost(many).ns,
            (rt * 2 + kv_write_transfer(many.wire_bytes())).ns);
  // The shard count (which follows the host's cores) never moves the cost.
  KvStore one_shard(1);
  KvStore wide(64);
  RemoteKv r1(one_shard);
  RemoteKv r64(wide);
  EXPECT_EQ(r1.apply(many).cost.ns, r64.apply(many).cost.ns);
  EXPECT_EQ(r1.apply(many).cost.ns, RemoteKv::batch_cost(many).ns);
}

TEST(RemoteKv, FailedBatchAppliesNothing) {
  KvStore kv;
  fault::FaultInjector fi(3);
  fi.arm(RemoteKv::kFaultSite, 1.0);
  RemoteKv remote(kv, &fi, nullptr, fault::RetryPolicy{1});
  Batch batch;
  batch.put("a", b("1"));
  batch.put("b", b("2"));
  const auto r = remote.apply(batch);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(fi.draws(RemoteKv::kFaultSite), 1u);  // one attempt per batch
}

}  // namespace
}  // namespace dpc::kv
