// dpcbench — closed-loop client benchmark for a live DpcSystem.
//
// Client threads drive one DpcSystem in worker mode (start_dpu(), real DPU
// threads) through its public fs-adapter API and time every call on two
// clocks: wall-clock around the call, and the modelled Io::cost it returns.
// Every read is checked against the bytes the benchmark wrote.
//
// With --trace 1 the run also reports per-layer numbers, all taken from
// outside the program: spans around each DpcSystem call, before/after deltas
// of the metrics() registry and dma_counters(), and layer drives that time
// Kvfs, RemoteKv, Reed-Solomon and DfsClient calls directly.
//
//   dpcbench --workload kvfs-bigfile-dio --seed 1 --seconds 10 --trace 0
//   dpcbench --workload meta-smallfile --seed 1 --seconds 5 --trace 1
//            --spans spans.csv [--sabotage]
//   dpcbench --selftest
//
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric with its unit. perfbench/run.py wraps this binary.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "core/dpc_system.hpp"
#include "dfs/backend.hpp"
#include "dfs/client.hpp"
#include "ec/reed_solomon.hpp"
#include "fault/injector.hpp"
#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "kvfs/kvfs.hpp"
#include "sim/rng.hpp"

namespace {

using namespace dpc;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 2;  // closed-loop client threads, one queue each
constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;
/// Latency samples kept per thread; later calls enter by reservoir sampling.
constexpr std::size_t kSampleCap = std::size_t{1} << 20;
/// Independent trials of an untraced run: each sets the system up afresh
/// and times seconds/kTrials. The wall-clock figures and setup_s are
/// medians over the trials: a burst of outside load spoils one trial, and a
/// system instance settles into a fast or a slow mode (how the two clients
/// phase against the DPU poller's idle back-off) for its whole life.
constexpr int kTrials = 10;
/// Core spans written to the spans file per run (evenly strided).
constexpr std::size_t kSpanWriteCap = 100000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Thread placement on a box with at least kCpusPinned cores: client t on
/// CPU t, the DPU worker on CPU kThreads (it inherits the mask of the thread
/// that calls start_dpu()), the main thread on the last pinned CPU. Fewer
/// cores: no pinning. Migrations and two spinners sharing a core otherwise
/// dominate the run-to-run spread.
constexpr int kCpusPinned = kThreads + 2;
constexpr int kDpuCpu = kThreads;
constexpr int kMainCpu = kThreads + 1;

void pin_self(int cpu) {
  if (std::thread::hardware_concurrency() < kCpusPinned) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ------------------------------------------------------------ verification
//
// Every byte the benchmark writes is a pure function of (seed, region,
// version): a read is correct iff it reproduces the pattern of the version
// the shadow state says was written last.

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t tag_of(std::uint64_t seed, std::uint64_t region,
                     std::uint64_t version) {
  return mix64(seed * 0x9e3779b97f4a7c15ULL + region * 0xc2b2ae3d27d4eb4fULL +
               version + 1);
}

void fill(std::span<std::byte> dst, std::uint64_t tag) {
  for (std::size_t i = 0; i + 8 <= dst.size(); i += 8) {
    const std::uint64_t w = mix64(tag + i);
    std::memcpy(dst.data() + i, &w, 8);
  }
}

bool matches(std::span<const std::byte> got, std::uint64_t tag) {
  for (std::size_t i = 0; i + 8 <= got.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, got.data() + i, 8);
    if (w != mix64(tag + i)) return false;
  }
  return true;
}

// ------------------------------------------------------------------ stats

/// Nearest-rank quantile of an unsorted sample (copied, then partially
/// sorted). 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Median of a small sample (mean of the middle two for an even count).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Ordered metric list, printed as a table and as the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// -------------------------------------------------------------- recording

enum class Cls : std::uint8_t { kRead = 0, kWrite, kMeta, kFsync, kCount_ };
constexpr std::array<const char*, 4> kClsName = {"read", "write", "meta",
                                                 "fsync"};
constexpr std::size_t kNumCls = static_cast<std::size_t>(Cls::kCount_);

/// One DpcSystem call as seen from the client: a span on the wall clock
/// plus the modelled cost the call returned.
struct Sample {
  std::int64_t start_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t model_ns = 0;
  Cls cls = Cls::kRead;
  bool hit = false;
  bool ok = true;
};

/// Per-thread call log. Counts and model sums cover every call; samples are
/// a uniform reservoir of at most kSampleCap calls.
class Recorder {
 public:
  explicit Recorder(std::uint64_t seed) : rng_(seed) {
    // Touch the whole buffer now: page faults inside the timed loop would
    // stall the client and, through it, the DPU poller's idle back-off.
    samples_.resize(kSampleCap);
    samples_.clear();
  }

  void record(Cls c, std::int64_t t0, std::int64_t t1, const core::Io& io,
              bool ok) {
    const Sample s{t0, t1 - t0, io.cost.ns, c, io.cache_hit, ok};
    ++calls_;
    ++by_cls_[static_cast<std::size_t>(c)];
    model_sum_ns_ += static_cast<double>(io.cost.ns);
    if (!ok) ++failed_;
    if (samples_.size() < kSampleCap) {
      samples_.push_back(s);
    } else if (const auto j = rng_.next_below(calls_); j < kSampleCap) {
      samples_[j] = s;
    }
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t calls(Cls c) const {
    return by_cls_[static_cast<std::size_t>(c)];
  }
  double model_sum_ns() const { return model_sum_ns_; }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  sim::Rng rng_;
  std::vector<Sample> samples_;
  std::uint64_t calls_ = 0;
  std::uint64_t failed_ = 0;
  std::array<std::uint64_t, kNumCls> by_cls_{};
  double model_sum_ns_ = 0;
};

/// Times one call and records it; `check` validates a successful result
/// (read bytes, returned ino, size).
template <typename Call, typename Check>
core::Io timed(Recorder& rec, Cls c, Call&& call, Check&& check) {
  const std::int64_t t0 = now_ns();
  core::Io io = call();
  const std::int64_t t1 = now_ns();
  rec.record(c, t0, t1, io, io.ok() && check(io));
  return io;
}

template <typename Call>
core::Io timed(Recorder& rec, Cls c, Call&& call) {
  return timed(rec, c, std::forward<Call>(call),
               [](const core::Io&) { return true; });
}

// --------------------------------------------------------------- workloads

core::DpcOptions base_options() {
  core::DpcOptions o;
  o.queues = kThreads;
  o.dpu_workers = 1;
  o.with_dfs = false;
  return o;
}

/// One workload: the system it needs, how to populate it, and one client
/// call per step. Each thread only touches its own regions, so the shadow
/// state needs no locking.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {
    for (int t = 0; t < kThreads; ++t)
      rngs_.emplace_back(mix64(seed + 0x1000 * static_cast<std::uint64_t>(t)));
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual core::DpcOptions options() const = 0;
  /// Builds the working set; false if any call failed.
  virtual bool populate(core::DpcSystem& sys) = 0;
  /// Issues exactly one DpcSystem call on behalf of client thread `t`.
  virtual void step(core::DpcSystem& sys, int t, Recorder& rec) = 0;
  /// Live user bytes and files at the end of the run (space_amp base).
  virtual std::uint64_t live_bytes() const = 0;
  virtual std::uint64_t live_kvfs_files() const = 0;
  /// The parameter block recorded with every result.
  virtual std::string params() const = 0;

 protected:
  std::uint64_t tag(std::uint64_t region, std::uint64_t version) const {
    return tag_of(seed_, region, version);
  }
  /// Writes `bytes` of version-0 content in 1 MiB calls, `unit`-sized
  /// regions numbered from offset 0. `write` issues one call.
  bool fill_file(std::uint64_t bytes, std::uint64_t unit,
                 const std::function<core::Io(std::uint64_t,
                                              std::span<const std::byte>)>&
                     write) const {
    std::vector<std::byte> chunk(kMiB);
    for (std::uint64_t off = 0; off < bytes; off += kMiB) {
      for (std::uint64_t u = 0; u < kMiB; u += unit)
        fill(std::span(chunk).subspan(u, unit), tag((off + u) / unit, 0));
      if (!write(off, chunk).ok()) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  std::vector<sim::Rng> rngs_;
};

/// 70/30 random read/overwrite of fixed-size regions of one pre-filled
/// file; thread t owns the t-th contiguous share of the regions.
class RandomRegions : public Workload {
 public:
  RandomRegions(std::uint64_t seed, std::uint64_t file_bytes,
                std::uint64_t unit)
      : Workload(seed),
        unit_(unit),
        regions_(file_bytes / unit),
        version_(regions_, 0) {}

  std::uint64_t live_bytes() const override { return regions_ * unit_; }

 protected:
  struct Pick {
    bool read;
    std::uint64_t region;
  };
  Pick pick_uniform(int t) {
    const std::uint64_t share = regions_ / kThreads;
    auto& rng = rngs_[static_cast<std::size_t>(t)];
    const bool read = rng.next_double() < 0.7;
    const std::uint64_t base = static_cast<std::uint64_t>(t) * share;
    return {read, base + rng.next_below(share)};
  }
  /// The generic read-or-overwrite call for one region.
  void issue(int t, Recorder& rec, Pick p,
             const std::function<core::Io(std::uint64_t, std::span<std::byte>)>&
                 read,
             const std::function<core::Io(std::uint64_t,
                                          std::span<const std::byte>)>& write) {
    auto& buf = bufs_[static_cast<std::size_t>(t)];
    buf.resize(unit_);
    const std::uint64_t off = p.region * unit_;
    if (p.read) {
      const std::uint64_t want = tag(p.region, version_[p.region]);
      timed(rec, Cls::kRead, [&] { return read(off, buf); },
            [&](const core::Io& io) {
              return io.bytes == unit_ && matches(buf, want);
            });
    } else {
      const std::uint32_t v = version_[p.region] + 1;
      fill(buf, tag(p.region, v));
      const core::Io io =
          timed(rec, Cls::kWrite, [&] { return write(off, buf); });
      if (io.ok()) version_[p.region] = v;
    }
  }

  std::uint64_t unit_;
  std::uint64_t regions_;
  std::vector<std::uint32_t> version_;
  std::array<std::vector<std::byte>, kThreads> bufs_;
};

/// kvfs-bigfile-dio: one 256 MiB KVFS file, DIRECT_IO 8 KiB calls, 70%
/// reads / 30% overwrites at uniform random 8 KiB-aligned offsets.
class BigFileDio final : public RandomRegions {
 public:
  static constexpr std::uint64_t kFile = 256 * kMiB;
  static constexpr std::uint64_t kIo = 8 * kKiB;
  explicit BigFileDio(std::uint64_t seed) : RandomRegions(seed, kFile, kIo) {}

  core::DpcOptions options() const override { return base_options(); }
  bool populate(core::DpcSystem& sys) override {
    const core::Io f = sys.create(kvfs::kRootIno, "big.dat");
    ino_ = f.ino;
    return f.ok() && fill_file(kFile, kIo, [&](std::uint64_t off, auto src) {
             return sys.write(ino_, off, src, /*direct=*/true);
           });
  }
  void step(core::DpcSystem& sys, int t, Recorder& rec) override {
    issue(
        t, rec, pick_uniform(t),
        [&](std::uint64_t off, std::span<std::byte> dst) {
          return sys.read(ino_, off, dst, true);
        },
        [&](std::uint64_t off, std::span<const std::byte> src) {
          return sys.write(ino_, off, src, true);
        });
  }
  std::uint64_t live_kvfs_files() const override { return 1; }
  std::string params() const override {
    return "threads=2 queues=2 dpu_workers=1 file=256MiB io=8KiB direct "
           "read=70% overwrite=30% offsets=uniform";
  }

 private:
  std::uint64_t ino_ = 0;
};

/// cache-hot-buffered: one 64 MiB file (4x the 16 MiB hybrid cache),
/// buffered 4 KiB calls, 70/30 read/write, 90% of accesses to a hot 10%;
/// every 64 writes a thread fsyncs, with the NVM WAL on.
class CacheHot final : public RandomRegions {
 public:
  static constexpr std::uint64_t kFile = 64 * kMiB;
  static constexpr std::uint64_t kIo = 4 * kKiB;
  static constexpr int kFsyncEvery = 64;
  explicit CacheHot(std::uint64_t seed)
      : RandomRegions(seed, kFile, kIo), hot_(regions_ / 10 / 2 * 2) {}

  core::DpcOptions options() const override {
    core::DpcOptions o = base_options();
    o.enable_nvm_wal = true;
    return o;
  }
  bool populate(core::DpcSystem& sys) override {
    const core::Io f = sys.create(kvfs::kRootIno, "hot.dat");
    ino_ = f.ino;
    if (!f.ok() || !fill_file(kFile, kIo, [&](std::uint64_t off, auto src) {
          return sys.write(ino_, off, src, /*direct=*/true);
        }))
      return false;
    // Warm the hot set into the hybrid cache, as a running application
    // would have.
    std::vector<std::byte> page(kIo);
    for (std::uint64_t p = 0; p < hot_; ++p) {
      if (!sys.read(ino_, p * kIo, page).ok() || !matches(page, tag(p, 0)))
        return false;
    }
    return true;
  }
  void step(core::DpcSystem& sys, int t, Recorder& rec) override {
    auto& writes = writes_[static_cast<std::size_t>(t)];
    if (writes == kFsyncEvery) {
      writes = 0;
      timed(rec, Cls::kFsync, [&] { return sys.fsync(ino_); });
      return;
    }
    // Page p belongs to thread p % 2; the hot set is the first 10%.
    auto& rng = rngs_[static_cast<std::size_t>(t)];
    const bool read = rng.next_double() < 0.7;
    const bool hot = rng.next_double() < 0.9;
    const std::uint64_t lo = hot ? 0 : hot_;
    const std::uint64_t span = hot ? hot_ : regions_ - hot_;
    const std::uint64_t page =
        lo + 2 * rng.next_below(span / 2) + static_cast<std::uint64_t>(t);
    if (!read) ++writes;
    issue(
        t, rec, {read, page},
        [&](std::uint64_t off, std::span<std::byte> dst) {
          return sys.read(ino_, off, dst);
        },
        [&](std::uint64_t off, std::span<const std::byte> src) {
          return sys.write(ino_, off, src);
        });
  }
  std::uint64_t live_kvfs_files() const override { return 1; }
  std::string params() const override {
    return "threads=2 queues=2 dpu_workers=1 file=64MiB cache=16MiB io=4KiB "
           "buffered read=70% write=30% hot=10%(6.4MiB) hot_share=90% "
           "fsync_every=64_writes nvm_wal=on";
  }

 private:
  std::uint64_t ino_ = 0;
  std::uint64_t hot_;
  std::array<int, kThreads> writes_{};
};

/// dfs-ec-stripe: one 64 MiB DFS file, 70% dfs_read / 30% dfs_write of
/// random full 32 KiB RS(4,2) stripes.
class DfsStripe final : public RandomRegions {
 public:
  static constexpr std::uint64_t kFile = 64 * kMiB;
  static constexpr std::uint64_t kStripe = 32 * kKiB;
  explicit DfsStripe(std::uint64_t seed)
      : RandomRegions(seed, kFile, kStripe) {}

  core::DpcOptions options() const override {
    core::DpcOptions o = base_options();
    o.with_dfs = true;
    return o;
  }
  bool populate(core::DpcSystem& sys) override {
    const core::Io f = sys.dfs_create("/bench.dat", kFile);
    ino_ = f.ino;
    return f.ok() && fill_file(kFile, kStripe, [&](std::uint64_t off,
                                                   auto src) {
             return sys.dfs_write(ino_, off, src);
           });
  }
  void step(core::DpcSystem& sys, int t, Recorder& rec) override {
    issue(
        t, rec, pick_uniform(t),
        [&](std::uint64_t off, std::span<std::byte> dst) {
          return sys.dfs_read(ino_, off, dst);
        },
        [&](std::uint64_t off, std::span<const std::byte> src) {
          return sys.dfs_write(ino_, off, src);
        });
  }
  std::uint64_t live_kvfs_files() const override { return 0; }
  std::string params() const override {
    return "threads=2 queues=2 dpu_workers=1 dfs_file=64MiB stripe=32KiB "
           "RS(4,2) read=70% write=30% offsets=uniform_stripes";
  }

 private:
  std::uint64_t ino_ = 0;
};

/// meta-smallfile: each thread owns a directory with a steady population
/// of 4 KiB small-file-KV files and loops create + DIO write of a new file,
/// lookup, getattr, DIO read of an existing file, rename of the new file,
/// unlink of the oldest.
class MetaSmall final : public Workload {
 public:
  static constexpr std::uint64_t kPopulation = 1000;  // files per thread
  static constexpr std::uint64_t kIo = 4 * kKiB;
  explicit MetaSmall(std::uint64_t seed) : Workload(seed) {}

  core::DpcOptions options() const override { return base_options(); }
  bool populate(core::DpcSystem& sys) override {
    std::vector<std::byte> buf(kIo);
    for (int t = 0; t < kThreads; ++t) {
      auto& th = threads_[static_cast<std::size_t>(t)];
      const core::Io d =
          sys.mkdir(kvfs::kRootIno, std::string("t") + std::to_string(t));
      if (!d.ok()) return false;
      th.dir = d.ino;
      for (std::uint64_t i = 0; i < kPopulation; ++i) {
        const File f{serial(t, th.next++), 0};
        const core::Io c = sys.create(th.dir, name(f.serial, 'f'));
        fill(buf, tag(f.serial, 0));
        if (!c.ok() || !sys.write(c.ino, 0, buf, true).ok()) return false;
        th.files.push_back({f.serial, c.ino});
      }
    }
    return true;
  }
  void step(core::DpcSystem& sys, int t, Recorder& rec) override {
    auto& th = threads_[static_cast<std::size_t>(t)];
    auto& rng = rngs_[static_cast<std::size_t>(t)];
    auto& buf = th.buf;
    buf.resize(kIo);
    auto random_file = [&] {
      return th.files[rng.next_below(th.files.size())];
    };
    switch (th.phase) {
      case 0: {  // create a new file under a temporary name
        th.fresh = {serial(t, th.next++), 0};
        const core::Io io = timed(rec, Cls::kMeta, [&] {
          return sys.create(th.dir, name(th.fresh.serial, 'n'));
        });
        th.fresh.ino = io.ino;
        break;
      }
      case 1:  // fill it: 4 KiB DIRECT_IO write
        fill(buf, tag(th.fresh.serial, 0));
        timed(rec, Cls::kWrite,
              [&] { return sys.write(th.fresh.ino, 0, buf, true); });
        break;
      case 2: {
        const File f = random_file();
        timed(rec, Cls::kMeta,
              [&] { return sys.lookup(th.dir, name(f.serial, 'f')); },
              [&](const core::Io& io) { return io.ino == f.ino; });
        th.probe = f;
        break;
      }
      case 3: {
        kvfs::Attr attr;
        timed(rec, Cls::kMeta, [&] { return sys.getattr(th.probe.ino, &attr); },
              [&](const core::Io&) { return attr.size == kIo; });
        break;
      }
      case 4: {
        const File f = random_file();
        timed(rec, Cls::kRead, [&] { return sys.read(f.ino, 0, buf, true); },
              [&](const core::Io& io) {
                return io.bytes == kIo && matches(buf, tag(f.serial, 0));
              });
        break;
      }
      case 5:
        timed(rec, Cls::kMeta, [&] {
          return sys.rename(th.dir, name(th.fresh.serial, 'n'), th.dir,
                            name(th.fresh.serial, 'f'));
        });
        th.files.push_back(th.fresh);
        break;
      default: {
        const File f = th.files.front();
        th.files.pop_front();
        timed(rec, Cls::kMeta,
              [&] { return sys.unlink(th.dir, name(f.serial, 'f')); });
        break;
      }
    }
    th.phase = (th.phase + 1) % 7;
  }
  std::uint64_t live_bytes() const override {
    std::uint64_t n = 0;
    for (const auto& th : threads_) n += th.files.size() * kIo;
    return n;
  }
  std::uint64_t live_kvfs_files() const override {
    return live_bytes() / kIo;
  }
  std::string params() const override {
    return "threads=2 queues=2 dpu_workers=1 population=1000_files/thread "
           "file=4KiB(small-file KV) cycle=create,write(DIO),lookup,getattr,"
           "read(DIO),rename,unlink";
  }

 private:
  struct File {
    std::uint64_t serial;
    std::uint64_t ino;
  };
  struct Thread {
    std::uint64_t dir = 0;
    std::uint64_t next = 0;
    int phase = 0;
    File fresh{0, 0};
    File probe{0, 0};
    std::deque<File> files;
    std::vector<std::byte> buf;
  };
  static std::uint64_t serial(int t, std::uint64_t i) {
    return (static_cast<std::uint64_t>(t) << 40) | i;
  }
  static std::string name(std::uint64_t serial, char prefix) {
    std::string n(1, prefix);
    return n += std::to_string(serial);
  }
  std::array<Thread, kThreads> threads_;
};

const std::array<const char*, 4> kWorkloads = {
    "kvfs-bigfile-dio", "cache-hot-buffered", "meta-smallfile",
    "dfs-ec-stripe"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "kvfs-bigfile-dio") return std::make_unique<BigFileDio>(seed);
  if (name == "cache-hot-buffered") return std::make_unique<CacheHot>(seed);
  if (name == "meta-smallfile") return std::make_unique<MetaSmall>(seed);
  if (name == "dfs-ec-stripe") return std::make_unique<DfsStripe>(seed);
  return nullptr;
}

// ------------------------------------------------------------ timed phase

struct Phase {
  std::int64_t start_ns = 0;
  double elapsed_s = 0;
  std::vector<Recorder> recs;

  std::uint64_t calls() const {
    std::uint64_t n = 0;
    for (const auto& r : recs) n += r.calls();
    return n;
  }
  std::uint64_t calls(Cls c) const {
    std::uint64_t n = 0;
    for (const auto& r : recs) n += r.calls(c);
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& r : recs) n += r.failed();
    return n;
  }
  double model_sum_ns() const {
    double s = 0;
    for (const auto& r : recs) s += r.model_sum_ns();
    return s;
  }
  double model_mean_us() const {
    return ratio(model_sum_ns(), static_cast<double>(calls())) / 1e3;
  }
  /// Wall (or modelled) microseconds of the kept samples passing `keep`.
  std::vector<double> values(bool model,
                             const std::function<bool(const Sample&)>& keep =
                                 nullptr) const {
    std::vector<double> v;
    for (const auto& r : recs)
      for (const auto& s : r.samples())
        if (!keep || keep(s))
          v.push_back(static_cast<double>(model ? s.model_ns : s.wall_ns) /
                      1e3);
    return v;
  }
};

/// Runs kThreads closed-loop clients, each waiting for its call to return
/// before issuing the next, for `seconds` (or `ops_per_thread` calls each
/// when given — the deterministic self-test mode).
Phase run_clients(core::DpcSystem& sys, Workload& wl, std::uint64_t seed,
                  double seconds, std::uint64_t ops_per_thread = 0) {
  Phase ph;
  for (int t = 0; t < kThreads; ++t)
    ph.recs.emplace_back(mix64(seed ^ (0xabcdULL + static_cast<unsigned>(t))));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Recorder& rec = ph.recs[static_cast<std::size_t>(t)];
      pin_self(t);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (ops_per_thread > 0) {
        for (std::uint64_t i = 0; i < ops_per_thread; ++i) wl.step(sys, t, rec);
      } else {
        while (!stop.load(std::memory_order_relaxed)) wl.step(sys, t, rec);
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  const auto t0 = Clock::now();
  ph.start_ns = now_ns();
  go.store(true, std::memory_order_release);
  if (ops_per_thread == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& c : clients) c.join();
  ph.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return ph;
}

/// Wall-clock figures of one timed phase, over its kept samples.
struct WallStats {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::size_t samples = 0;
};
WallStats wall_stats(const Phase& ph) {
  const std::vector<double> wall = ph.values(false);
  return {static_cast<double>(ph.calls()) / ph.elapsed_s,
          quantile(wall, 0.5), quantile(wall, 0.99), wall.size()};
}

// ----------------------------------------------------- registry snapshots

const std::array<const char*, 30> kCounters = {
    "dispatch/backend_ns",       "dispatch/ops",
    "dispatch/wal_fast_acks",    "retry/attempts",
    "nvme.ini/sq_doorbells",     "nvme.ini/cq_doorbells",
    "nvme.ini/queue_full_waits", "cache.host/read_hits",
    "cache.host/read_misses",    "cache.host/write_stalls",
    "cache.host/seqlock_retries", "cache.host/locked_fallbacks",
    "cache.ctl/pages_evicted",   "cache.ctl/pages_flushed",
    "cache.ctl/pages_prefetched", "cache.ctl/flush_lock_conflicts",
    "kvfs/dentry_hits",          "kvfs/dentry_misses",
    "kvfs/attr_hits",            "kvfs/attr_misses",
    "kvfs/big_inplace_writes",   "kvfs/small_rewrites",
    "kvfs.journal/appends",      "dfs.client/mds_ops",
    "dfs.client/ds_ops",         "dfs.client/forwards",
    "ec/degraded_reads",         "wal/appends",
    "wal/ring_full",             "nvm.dev/fences"};

/// Histograms read over the timed phase only (reset when it starts).
const std::array<const char*, 5> kHistograms = {
    "trace/submit_to_fetch_ns", "trace/dispatch_to_backend_ns",
    "trace/cqe_to_reap_ns", "cache.ctl/flush_pass_ns",
    "dfs.client/backend_ns"};

struct Snapshot {
  std::map<std::string, std::uint64_t> c;
  std::array<std::uint64_t, 4> dma_ops{};
  std::array<std::uint64_t, 4> dma_bytes{};
};

Snapshot snapshot(core::DpcSystem& sys) {
  Snapshot s;
  for (const char* n : kCounters) s.c[n] = sys.metrics().counter(n).load();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto cls = static_cast<pcie::DmaClass>(i);
    s.dma_ops[i] = sys.dma_counters().ops(cls);
    s.dma_bytes[i] = sys.dma_counters().bytes(cls);
  }
  return s;
}

// ------------------------------------------------------------ layer drives
//
// Each drive builds the layer on its own and times calls into its public
// functions, sized like the workloads above. Spans go to `spans`.

struct Span {
  const char* layer;
  const char* op;
  std::int64_t start_ns;
  std::int64_t wall_ns;
  std::int64_t model_ns;
};

struct DriveLog {
  std::vector<Span> spans;
  bool ok = true;

  /// Times `fn` (returning its modelled ns, or -1 on failure).
  void run(const char* layer, const char* op,
           const std::function<std::int64_t()>& fn) {
    const std::int64_t t0 = now_ns();
    const std::int64_t model = fn();
    const std::int64_t t1 = now_ns();
    if (model < 0) ok = false;
    spans.push_back({layer, op, t0, t1 - t0, std::max<std::int64_t>(model, 0)});
  }
  /// Wall (or modelled) microseconds of the spans in [from, to).
  std::vector<double> us(std::string_view layer, std::string_view op,
                         bool model = false, std::size_t from = 0,
                         std::size_t to = SIZE_MAX) const {
    std::vector<double> v;
    for (std::size_t i = from; i < std::min(to, spans.size()); ++i) {
      const Span& s = spans[i];
      if (layer == s.layer && op == s.op)
        v.push_back(static_cast<double>(model ? s.model_ns : s.wall_ns) / 1e3);
    }
    return v;
  }
};

/// KVFS over RemoteKv, 8 KiB 70/30 random read/overwrite on a file of
/// `file_bytes`. Returns the span index where the timed ops begin.
std::size_t drive_kvfs_bigfile(DriveLog& log, fault::FaultInjector* fi,
                               std::uint64_t seed, std::uint64_t file_bytes,
                               int ops) {
  kv::KvStore store;
  kv::RemoteKv remote(store, fi);
  kvfs::Kvfs fs(remote);
  const auto f = fs.create(kvfs::kRootIno, "drive.dat", 0644);
  if (!f.ok()) {
    log.ok = false;
    return log.spans.size();
  }
  std::vector<std::byte> chunk(kMiB);
  for (std::uint64_t off = 0; off < file_bytes; off += kMiB) {
    fill(chunk, tag_of(seed, off, 0));
    if (!fs.write(f.value, off, chunk).ok()) log.ok = false;
  }
  const std::size_t from = log.spans.size();
  sim::Rng rng(seed ^ file_bytes);
  std::vector<std::byte> buf(8 * kKiB);
  const std::uint64_t blocks = file_bytes / buf.size();
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t off = rng.next_below(blocks) * buf.size();
    if (rng.next_double() < 0.7) {
      log.run("kvfs", "read", [&] {
        const auto r = fs.read(f.value, off, buf);
        return r.ok() && r.value == buf.size() ? r.cost.ns : -1;
      });
    } else {
      fill(buf, tag_of(seed, off, 1 + static_cast<std::uint64_t>(i)));
      log.run("kvfs", "write", [&] {
        const auto r = fs.write(f.value, off, buf);
        return r.ok() ? r.cost.ns : -1;
      });
    }
  }
  return from;
}

void drive_kvfs_meta(DriveLog& log, fault::FaultInjector* fi, int files) {
  kv::KvStore store;
  kv::RemoteKv remote(store, fi);
  kvfs::Kvfs fs(remote);
  std::vector<std::byte> buf(4 * kKiB, std::byte{0x5a});
  std::vector<kvfs::Ino> inos;
  for (int i = 0; i < files; ++i) {
    log.run("kvfs", "create", [&] {
      const auto r =
          fs.create(kvfs::kRootIno, std::string("f") + std::to_string(i), 0644);
      if (!r.ok()) return std::int64_t{-1};
      inos.push_back(r.value);
      return fs.write(r.value, 0, buf).ok() ? r.cost.ns : -1;
    });
  }
  for (const kvfs::Ino ino : inos) {
    log.run("kvfs", "getattr", [&] {
      const auto r = fs.getattr(ino);
      return r.ok() && r.value.size == buf.size() ? r.cost.ns : -1;
    });
  }
}

/// RemoteKv at the value sizes KVFS uses: 4 KiB small-file values
/// (get/put) and 8 KiB block values (read_sub/write_sub).
void drive_kv(DriveLog& log, fault::FaultInjector* fi, std::uint64_t seed,
              int keys) {
  kv::KvStore store;
  kv::RemoteKv remote(store, fi);
  std::vector<std::byte> small(4 * kKiB);
  std::vector<std::byte> block(8 * kKiB);
  auto key = [](char tagc, int i) {
    std::string k(1, tagc);
    return k += std::to_string(i);
  };
  for (int i = 0; i < keys; ++i) {
    fill(small, tag_of(seed, static_cast<std::uint64_t>(i), 0));
    log.run("kv", "put", [&] {
      const auto r = remote.put(key('S', i), small);
      return r.ok() ? r.cost.ns : -1;
    });
    fill(block, tag_of(seed, static_cast<std::uint64_t>(i), 1));
    store.put(key('B', i), block);
  }
  for (int i = 0; i < keys; ++i) {
    log.run("kv", "get", [&] {
      const auto r = remote.get(key('S', i));
      return r.ok() && r.value && r.value->size() == small.size() ? r.cost.ns
                                                                  : -1;
    });
    log.run("kv", "read_sub", [&] {
      const auto r = remote.read_sub(key('B', i), 0, block);
      return r.ok() && r.value && matches(block, tag_of(seed, i, 1))
                 ? r.cost.ns
                 : -1;
    });
    log.run("kv", "write_sub", [&] {
      const auto r = remote.write_sub(key('B', i), 0, block);
      return r.ok() && r.value ? r.cost.ns : -1;
    });
  }
}

/// RS(4,2) over 32 KiB stripes: encode, then reconstruct two erased data
/// shards. Timed in batches, so each span covers `batch` stripes.
void drive_ec(DriveLog& log, std::uint64_t seed, int batches, int batch) {
  const ec::ReedSolomon rs(4, 2);
  constexpr std::size_t kUnit = 8 * kKiB;
  std::vector<std::vector<std::byte>> shards(6, std::vector<std::byte>(kUnit));
  for (int d = 0; d < 4; ++d)
    fill(shards[static_cast<std::size_t>(d)], tag_of(seed, d, 7));
  std::vector<std::span<const std::byte>> data;
  std::vector<std::span<std::byte>> parity;
  std::vector<std::span<std::byte>> all;
  for (int d = 0; d < 4; ++d) data.emplace_back(shards[d]);
  for (int p = 4; p < 6; ++p) parity.emplace_back(shards[p]);
  for (auto& s : shards) all.emplace_back(s);
  const std::array<bool, 6> present = {false, false, true, true, true, true};
  for (int b = 0; b < batches; ++b) {
    log.run("ec", "encode_batch", [&] {
      for (int i = 0; i < batch; ++i) rs.encode(data, parity);
      return std::int64_t{0};
    });
  }
  for (int b = 0; b < batches; ++b) {
    log.run("ec", "decode_batch", [&] {
      for (int i = 0; i < batch; ++i) {
        std::memset(shards[0].data(), 0, kUnit);
        std::memset(shards[1].data(), 0, kUnit);
        rs.reconstruct(all, present);
      }
      return matches(shards[0], tag_of(seed, 0, 7)) &&
                     matches(shards[1], tag_of(seed, 1, 7))
                 ? std::int64_t{0}
                 : std::int64_t{-1};
    });
  }
}

/// The offloaded DFS client straight on MDS + data servers: full-stripe
/// writes, then verified reads, on a 16 MiB file.
struct DfsDrive {
  double write_dpu_cpu_us = 0;
  double write_host_cpu_us = 0;
};
DfsDrive drive_dfs(DriveLog& log, std::uint64_t seed, int stripes) {
  dfs::MdsCluster mds;
  dfs::DataServers ds;
  dfs::DfsClient client(1, mds, ds, dfs::ClientConfig::dpc_offloaded());
  constexpr std::uint64_t kStripe = 32 * kKiB;
  const auto f =
      client.create("/drive.dat", kStripe * static_cast<unsigned>(stripes));
  DfsDrive out;
  if (!f.ok()) {
    log.ok = false;
    return out;
  }
  std::vector<std::byte> buf(kStripe);
  for (int s = 0; s < stripes; ++s) {
    fill(buf, tag_of(seed, static_cast<std::uint64_t>(s), 3));
    log.run("dfs", "write", [&] {
      const auto r = client.write(f.ino, s * kStripe, buf);
      out.write_dpu_cpu_us += r.prof.dpu_cpu.us();
      out.write_host_cpu_us += r.prof.host_cpu.us();
      return r.ok() ? (r.prof.ds + r.prof.mds + r.prof.net).ns : -1;
    });
  }
  out.write_dpu_cpu_us /= stripes;
  out.write_host_cpu_us /= stripes;
  for (int s = 0; s < stripes; ++s) {
    log.run("dfs", "read", [&] {
      const auto r = client.read(f.ino, s * kStripe, buf);
      const auto region = static_cast<std::uint64_t>(s);
      return r.ok() && matches(buf, tag_of(seed, region, 3))
                 ? (r.prof.ds + r.prof.mds + r.prof.net).ns
                 : -1;
    });
  }
  return out;
}

// -------------------------------------------------------------- the run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool sabotage = false;
  bool selftest = false;
  std::string spans_path;
};

std::unique_ptr<fault::FaultInjector> make_sabotage(std::uint64_t seed) {
  auto fi = std::make_unique<fault::FaultInjector>(seed);
  fault::FaultInjector::SlowSpec slow;
  slow.multiplier = 3.0;  // every remote KV op serves 3x slower
  fi->arm_slow(kv::RemoteKv::kSlowSite, slow);
  return fi;
}

struct Built {
  std::unique_ptr<Workload> wl;
  std::unique_ptr<core::DpcSystem> sys;
};

/// Construction + start_dpu() + populating the working set; returns the
/// wall seconds taken, or nothing when a populating call failed.
std::optional<double> set_up(const std::string& workload, std::uint64_t seed,
                             fault::FaultInjector* fi, Built& b) {
  const auto t0 = Clock::now();
  b.wl = make_workload(workload, seed);
  core::DpcOptions opts = b.wl->options();
  opts.fault = fi;
  b.sys = std::make_unique<core::DpcSystem>(opts);
  pin_self(kDpuCpu);
  b.sys->start_dpu();
  pin_self(kMainCpu);
  if (!b.wl->populate(*b.sys)) {
    std::cerr << "dpcbench: populating the working set failed\n";
    return std::nullopt;
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void add_hist(Metrics& m, core::DpcSystem& sys, const char* hist,
              const std::string& name, double pct) {
  m.push_back(
      {name, sys.metrics().histogram(hist).percentile(pct).us(), "us"});
}

/// Per-layer metrics of the traced run: spans, registry deltas, DMA deltas
/// and layer drives. Ratios are per timed call unless the name gives
/// another base.
void layer_metrics(Metrics& m, core::DpcSystem& sys,
                   const Workload& wl, const Phase& ph, const Snapshot& a,
                   const Snapshot& b) {
  auto d = [&](const char* n) {
    return static_cast<double>(b.c.at(n) - a.c.at(n));
  };
  const double calls = static_cast<double>(ph.calls());
  const double reads = static_cast<double>(ph.calls(Cls::kRead));
  const double writes = static_cast<double>(ph.calls(Cls::kWrite));
  const double fsyncs = static_cast<double>(ph.calls(Cls::kFsync));
  auto p = [&](bool model, double q,
               const std::function<bool(const Sample&)>& k) {
    return quantile(ph.values(model, k), q);
  };
  auto data = [](const Sample& s) {
    return s.cls == Cls::kRead || s.cls == Cls::kWrite;
  };

  // core — spans around every DpcSystem call + dispatch/* deltas.
  for (std::size_t c = 0; c < kNumCls; ++c) {
    m.push_back({std::string("core.") + kClsName[c] + "_wall_us_p50",
                 p(false, 0.5,
                   [c](const Sample& s) {
                     return static_cast<std::size_t>(s.cls) == c;
                   }),
                 "us"});
  }
  m.push_back({"core.hit_wall_us_p50",
               p(false, 0.5, [&](const Sample& s) { return data(s) && s.hit; }),
               "us"});
  m.push_back(
      {"core.miss_wall_us_p99",
       p(false, 0.99, [&](const Sample& s) { return data(s) && !s.hit; }),
       "us"});
  m.push_back({"core.backend_model_us_per_op",
               ratio(d("dispatch/backend_ns"), d("dispatch/ops")) / 1e3, "us"});
  m.push_back({"core.retries_per_op", ratio(d("retry/attempts"), calls),
               "count"});
  m.push_back({"core.traced_ops_per_s", calls / ph.elapsed_s, "1/s"});
  m.push_back({"model_lat_p50_us", p(true, 0.5, nullptr), "us"});
  m.push_back({"model_lat_p99_us", p(true, 0.99, nullptr), "us"});
  m.push_back({"fail_ratio", ratio(static_cast<double>(ph.failed()), calls),
               "ratio"});

  // nvme — trace/* stage histograms (timed phase) + nvme.ini/* deltas.
  add_hist(m, sys, "trace/submit_to_fetch_ns", "nvme.submit_to_fetch_us_p50",
           50);
  add_hist(m, sys, "trace/submit_to_fetch_ns", "nvme.submit_to_fetch_us_p99",
           99);
  add_hist(m, sys, "trace/dispatch_to_backend_ns",
           "nvme.dispatch_to_backend_us_p50", 50);
  add_hist(m, sys, "trace/dispatch_to_backend_ns",
           "nvme.dispatch_to_backend_us_p99", 99);
  add_hist(m, sys, "trace/cqe_to_reap_ns", "nvme.cqe_to_reap_us_p50", 50);
  m.push_back({"nvme.sq_doorbells_per_op",
               ratio(d("nvme.ini/sq_doorbells"), calls), "count"});
  m.push_back({"nvme.cq_doorbells_per_op",
               ratio(d("nvme.ini/cq_doorbells"), calls), "count"});
  m.push_back({"nvme.queue_full_waits_per_op",
               ratio(d("nvme.ini/queue_full_waits"), calls), "count"});

  // pcie — dma_counters() deltas.
  auto dma = [&](pcie::DmaClass c, bool bytes) {
    const auto i = static_cast<std::size_t>(c);
    return static_cast<double>(bytes ? b.dma_bytes[i] - a.dma_bytes[i]
                                     : b.dma_ops[i] - a.dma_ops[i]);
  };
  m.push_back({"pcie.dma_ops_per_op",
               ratio(dma(pcie::DmaClass::kDescriptor, false) +
                         dma(pcie::DmaClass::kData, false),
                     calls),
               "count"});
  m.push_back({"pcie.dma_bytes_per_op",
               ratio(dma(pcie::DmaClass::kDescriptor, true) +
                         dma(pcie::DmaClass::kData, true),
                     calls),
               "B"});
  m.push_back({"pcie.doorbells_per_op",
               ratio(dma(pcie::DmaClass::kDoorbell, false), calls), "count"});
  m.push_back({"pcie.atomics_per_op",
               ratio(dma(pcie::DmaClass::kAtomic, false), calls), "count"});

  // cache — cache.host/* and cache.ctl/* deltas.
  const double lookups =
      d("cache.host/read_hits") + d("cache.host/read_misses");
  m.push_back({"cache.read_hit_ratio",
               ratio(d("cache.host/read_hits"), lookups), "ratio"});
  m.push_back({"cache.write_stall_ratio",
               ratio(d("cache.host/write_stalls"), writes), "ratio"});
  m.push_back({"cache.pages_evicted_per_op",
               ratio(d("cache.ctl/pages_evicted"), calls), "count"});
  m.push_back({"cache.seqlock_retry_ratio",
               ratio(d("cache.host/seqlock_retries"), lookups), "ratio"});
  m.push_back({"cache.locked_fallbacks_per_read",
               ratio(d("cache.host/locked_fallbacks"), reads), "count"});
  m.push_back({"cache.pages_flushed_per_write",
               ratio(d("cache.ctl/pages_flushed"), writes), "count"});
  m.push_back({"cache.pages_prefetched_per_op",
               ratio(d("cache.ctl/pages_prefetched"), calls), "count"});
  m.push_back({"cache.flush_lock_conflicts_per_flush",
               ratio(d("cache.ctl/flush_lock_conflicts"),
                     d("cache.ctl/pages_flushed")),
               "count"});
  add_hist(m, sys, "cache.ctl/flush_pass_ns", "cache.flush_pass_model_us_p50",
           50);

  // kvfs — kvfs/* deltas.
  m.push_back({"kvfs.dentry_hit_ratio",
               ratio(d("kvfs/dentry_hits"),
                     d("kvfs/dentry_hits") + d("kvfs/dentry_misses")),
               "ratio"});
  m.push_back({"kvfs.attr_hit_ratio",
               ratio(d("kvfs/attr_hits"),
                     d("kvfs/attr_hits") + d("kvfs/attr_misses")),
               "ratio"});
  m.push_back({"kvfs.big_inplace_writes_per_write",
               ratio(d("kvfs/big_inplace_writes"), writes), "count"});
  m.push_back({"kvfs.small_rewrites_per_write",
               ratio(d("kvfs/small_rewrites"), writes), "count"});
  m.push_back({"kvfs.journal_appends_per_op",
               ratio(d("kvfs.journal/appends"), calls), "count"});

  // kv — keys per live KVFS file (the space_amp side).
  m.push_back({"kv.keys_per_file",
               ratio(static_cast<double>(sys.kv_store().size()),
                     static_cast<double>(wl.live_kvfs_files())),
               "count"});

  // dfs — dfs.client/* deltas + backend-cost histogram.
  m.push_back({"dfs.mds_ops_per_op", ratio(d("dfs.client/mds_ops"), calls),
               "count"});
  m.push_back({"dfs.ds_ops_per_op", ratio(d("dfs.client/ds_ops"), calls),
               "count"});
  m.push_back({"dfs.forwards_per_op", ratio(d("dfs.client/forwards"), calls),
               "count"});
  add_hist(m, sys, "dfs.client/backend_ns", "dfs.backend_model_us_p50", 50);
  m.push_back({"ec.degraded_reads_per_read",
               ratio(d("ec/degraded_reads"), reads), "count"});

  // nvm — WAL and device deltas, per fsync.
  m.push_back({"nvm.wal_fast_ack_ratio",
               ratio(d("dispatch/wal_fast_acks"), fsyncs), "ratio"});
  m.push_back({"nvm.fences_per_fsync", ratio(d("nvm.dev/fences"), fsyncs),
               "count"});
  m.push_back({"nvm.wal_appends_per_fsync", ratio(d("wal/appends"), fsyncs),
               "count"});
  m.push_back({"nvm.ring_full_per_fsync", ratio(d("wal/ring_full"), fsyncs),
               "count"});
}

/// Layer drives; appends the kvfs/kv/ec/dfs drive metrics.
void drive_metrics(Metrics& m, const Options& o, fault::FaultInjector* fi,
                   DriveLog& log) {
  const std::size_t small_from =
      drive_kvfs_bigfile(log, fi, o.seed, 16 * kMiB, 3000);
  const std::size_t big_from =
      drive_kvfs_bigfile(log, fi, o.seed, 256 * kMiB, 3000);
  // The 256 MiB file is the workload's size; the 16 MiB file is the base of
  // kvfs.write_size_growth.
  const double w16 =
      quantile(log.us("kvfs", "write", false, small_from, big_from), 0.5);
  const double w256 = quantile(log.us("kvfs", "write", false, big_from), 0.5);
  m.push_back({"kvfs.read_wall_us_p50",
               quantile(log.us("kvfs", "read", false, big_from), 0.5), "us"});
  m.push_back({"kvfs.write_wall_us_p50", w256, "us"});
  m.push_back({"kvfs.write_model_us_p50",
               quantile(log.us("kvfs", "write", true, big_from), 0.5), "us"});
  m.push_back({"kvfs.write_size_growth", ratio(w256, w16), "ratio"});
  drive_kvfs_meta(log, fi, 2000);
  m.push_back({"kvfs.create_wall_us_p50",
               quantile(log.us("kvfs", "create"), 0.5), "us"});
  m.push_back({"kvfs.getattr_wall_us_p50",
               quantile(log.us("kvfs", "getattr"), 0.5), "us"});

  drive_kv(log, fi, o.seed, 4000);
  for (const char* op : {"get", "put", "read_sub", "write_sub"}) {
    m.push_back({std::string("kv.") + op + "_wall_us_p50",
                 quantile(log.us("kv", op), 0.5), "us"});
    m.push_back({std::string("kv.") + op + "_model_us_p50",
                 quantile(log.us("kv", op, true), 0.5), "us"});
  }

  constexpr int kBatch = 100;
  drive_ec(log, o.seed, 20, kBatch);
  m.push_back({"ec.encode_wall_us_per_stripe",
               quantile(log.us("ec", "encode_batch"), 0.5) / kBatch, "us"});
  m.push_back({"ec.decode_wall_us_per_stripe",
               quantile(log.us("ec", "decode_batch"), 0.5) / kBatch, "us"});

  const DfsDrive dd = drive_dfs(log, o.seed, 512);
  m.push_back({"dfs.write_dpu_cpu_us", dd.write_dpu_cpu_us, "us"});
  m.push_back({"dfs.write_host_cpu_us", dd.write_host_cpu_us, "us"});
  m.push_back({"dfs.read_wall_us_p50", quantile(log.us("dfs", "read"), 0.5),
               "us"});
  m.push_back({"dfs.write_wall_us_p50", quantile(log.us("dfs", "write"), 0.5),
               "us"});
}

void write_spans(const std::string& path, const Phase& ph,
                 const DriveLog& log) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "dpcbench: cannot write spans to " << path << "\n";
    return;
  }
  out << "layer,op,thread,start_ns,wall_ns,model_ns,cache_hit,ok\n";
  std::size_t kept = 0;
  for (const auto& r : ph.recs) kept += r.samples().size();
  const std::size_t stride = std::max<std::size_t>(1, kept / kSpanWriteCap);
  for (std::size_t t = 0; t < ph.recs.size(); ++t) {
    const auto& ss = ph.recs[t].samples();
    for (std::size_t i = 0; i < ss.size(); i += stride) {
      const Sample& s = ss[i];
      out << "core," << kClsName[static_cast<std::size_t>(s.cls)] << ',' << t
          << ',' << s.start_ns << ',' << s.wall_ns << ',' << s.model_ns << ','
          << s.hit << ',' << s.ok << '\n';
    }
  }
  for (const Span& s : log.spans)
    out << s.layer << ',' << s.op << ",0," << s.start_ns << ',' << s.wall_ns
        << ',' << s.model_ns << ",0,1\n";
}

void print(const Metrics& m, bool correct, std::uint64_t attempted,
           std::uint64_t failed) {
  for (const Metric& x : m)
    std::printf("  %-40s %14.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  std::ostringstream js;
  js.precision(10);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
    js << (i ? ", " : "") << '"' << m[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

int run(const Options& o) {
  const auto fi = o.sabotage ? make_sabotage(o.seed) : nullptr;
  const int trials = o.trace ? 1 : kTrials;
  std::vector<double> setup_s, rate, p50, p99;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double model_sum_ns = 0;
  Metrics m;
  std::optional<Phase> traced;
  Built b;
  for (int i = 0; i < trials; ++i) {
    b = Built{};  // tear the previous copy down before building the next
    const std::uint64_t seed =
        mix64(o.seed * kTrials + static_cast<std::uint64_t>(i));
    const std::optional<double> took = set_up(o.workload, seed, fi.get(), b);
    if (!took) return 3;
    setup_s.push_back(*took);
    if (i == 0) {
      std::printf("dpcbench: %s seed=%llu seconds=%g trace=%d%s\n"
                  "  params: %s\n",
                  o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                  o.seconds, o.trace ? 1 : 0, o.sabotage ? " sabotage" : "",
                  b.wl->params().c_str());
    }
    core::DpcSystem& sys = *b.sys;
    const Snapshot before = snapshot(sys);
    for (const char* h : kHistograms) sys.metrics().histogram(h).reset();
    Phase ph = run_clients(sys, *b.wl, seed, o.seconds / trials);
    const Snapshot after = snapshot(sys);
    sys.stop_dpu();
    attempted += ph.calls();
    failed += ph.failed();
    model_sum_ns += ph.model_sum_ns();
    if (o.trace) {
      layer_metrics(m, sys, *b.wl, ph, before, after);
      traced = std::move(ph);
      continue;
    }
    const WallStats ws = wall_stats(ph);
    rate.push_back(ws.ops_per_s);
    p50.push_back(ws.p50_us);
    p99.push_back(ws.p99_us);
    std::printf("  trial %d: setup %.3fs, %llu calls (%zu latency samples) "
                "in %.3fs: %.1f ops/s, p50 %.3fus, p99 %.3fus\n",
                i, setup_s.back(), static_cast<unsigned long long>(ph.calls()),
                ws.samples, ph.elapsed_s, ws.ops_per_s, ws.p50_us, ws.p99_us);
  }
  if (!o.trace) {
    core::DpcSystem& sys = *b.sys;
    const double stored =
        static_cast<double>(sys.kv_store().bytes_stored()) +
        (sys.data_servers() != nullptr
             ? static_cast<double>(sys.data_servers()->stored_shards().size() *
                                   dfs::FileMeta{}.stripe_unit)
             : 0.0);
    m.push_back({"ops_per_s", median(rate), "1/s"});
    m.push_back({"lat_p50_us", median(p50), "us"});
    m.push_back({"lat_p99_us", median(p99), "us"});
    m.push_back({"model_lat_mean_us",
                 ratio(model_sum_ns, static_cast<double>(attempted)) / 1e3,
                 "us"});
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"space_amp",
                 ratio(stored, static_cast<double>(b.wl->live_bytes())),
                 "ratio"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  }
  b = Built{};

  DriveLog log;
  if (o.trace) {
    drive_metrics(m, o, fi.get(), log);
    if (!o.spans_path.empty()) write_spans(o.spans_path, *traced, log);
  }
  const bool correct = failed == 0 && log.ok && attempted > 0;
  print(m, correct, attempted, failed);
  return correct ? 0 : 1;
}

/// Two fixed-length runs with one seed must return identical modelled
/// latencies: the op streams, and the costs they produce, are seeded.
int selftest() {
  int bad = 0;
  for (const std::string w : {"kvfs-bigfile-dio", "meta-smallfile"}) {
    std::array<std::array<double, 3>, 2> got{};
    for (int rep = 0; rep < 2; ++rep) {
      Built b;
      if (!set_up(w, 42, nullptr, b)) return 3;
      const Phase ph = run_clients(*b.sys, *b.wl, 42, 0, 2000);
      const auto model = ph.values(true);
      got[static_cast<std::size_t>(rep)] = {quantile(model, 0.5),
                                            quantile(model, 0.99),
                                            ph.model_mean_us()};
      if (ph.failed() != 0) ++bad;
    }
    const bool same = got[0] == got[1];
    std::printf("selftest %-18s model p50/p99/mean %.3f/%.3f/%.3f us vs "
                "%.3f/%.3f/%.3f us: %s\n",
                w.c_str(), got[0][0], got[0][1], got[0][2], got[1][0],
                got[1][1], got[1][2], same ? "identical" : "DIFFERENT");
    if (!same) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--spans") o.spans_path = next();
    else if (a == "--sabotage") o.sabotage = true;
    else if (a == "--selftest") o.selftest = true;
    else return false;
  }
  if (o.selftest) return true;
  return make_workload(o.workload, 0) != nullptr && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    if (!parse(argc, argv, o)) {
      std::cerr << "usage: dpcbench --workload <";
      for (std::size_t i = 0; i < kWorkloads.size(); ++i)
        std::cerr << (i ? "|" : "") << kWorkloads[i];
      std::cerr << "> --seed N --seconds S --trace 0|1 "
                   "[--spans FILE] [--sabotage] | --selftest\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "dpcbench: bad numeric argument\n";
    return 2;
  }
  return o.selftest ? selftest() : run(o);
}
