// Shadow-model property tests: run long random operation sequences against
// the real stacks and an in-memory reference model simultaneously; every
// divergence (content, size, existence, error code class) is a bug. This is
// the broadest functional net in the suite — it has no idea how the
// implementation works, only what a file system must do.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/dpc_system.hpp"
#include "hostfs/ext4like.hpp"
#include "kvfs/fsck.hpp"
#include "sim/rng.hpp"

namespace dpc {
namespace {

/// The reference: a flat map of file name → contents (single directory).
class ShadowFs {
 public:
  bool create(const std::string& name) {
    return files_.try_emplace(name).second;
  }
  bool unlink(const std::string& name) { return files_.erase(name) > 0; }
  bool exists(const std::string& name) const {
    return files_.contains(name);
  }
  void write(const std::string& name, std::uint64_t off,
             std::span<const std::byte> src) {
    auto& f = files_.at(name);
    if (f.size() < off + src.size()) f.resize(off + src.size());
    std::copy(src.begin(), src.end(),
              f.begin() + static_cast<std::ptrdiff_t>(off));
  }
  std::vector<std::byte> read(const std::string& name, std::uint64_t off,
                              std::size_t n) const {
    const auto& f = files_.at(name);
    std::vector<std::byte> out;
    if (off < f.size()) {
      const auto take = std::min<std::size_t>(n, f.size() - off);
      out.assign(f.begin() + static_cast<std::ptrdiff_t>(off),
                 f.begin() + static_cast<std::ptrdiff_t>(off + take));
    }
    return out;
  }
  void truncate(const std::string& name, std::uint64_t size) {
    files_.at(name).resize(size);
  }
  std::uint64_t size(const std::string& name) const {
    return files_.at(name).size();
  }
  const std::map<std::string, std::vector<std::byte>>& files() const {
    return files_;
  }

 private:
  std::map<std::string, std::vector<std::byte>> files_;
};

struct OpMix {
  int create = 20, unlink = 10, write = 35, read = 25, truncate = 10;
};

template <typename CreateFn, typename UnlinkFn, typename WriteFn,
          typename ReadFn, typename TruncFn, typename SizeFn>
void run_shadow(std::uint64_t seed, int ops, const OpMix& mix,
                CreateFn do_create, UnlinkFn do_unlink, WriteFn do_write,
                ReadFn do_read, TruncFn do_trunc, SizeFn do_size) {
  sim::Rng rng(seed);
  ShadowFs shadow;
  const int total = mix.create + mix.unlink + mix.write + mix.read +
                    mix.truncate;

  auto pick_name = [&] {
    return "f" + std::to_string(rng.next_below(12));
  };
  auto rand_bytes = [&](std::size_t n) {
    std::vector<std::byte> v(n);
    for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
    return v;
  };

  for (int i = 0; i < ops; ++i) {
    const auto dice = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(total)));
    const auto name = pick_name();
    const bool existed = shadow.exists(name);
    if (dice < mix.create) {
      const bool ok = do_create(name);
      ASSERT_EQ(ok, !existed) << "create(" << name << ") op " << i;
      if (!existed) shadow.create(name);
    } else if (dice < mix.create + mix.unlink) {
      const bool ok = do_unlink(name);
      ASSERT_EQ(ok, existed) << "unlink(" << name << ") op " << i;
      if (existed) shadow.unlink(name);
    } else if (dice < mix.create + mix.unlink + mix.write) {
      if (!existed) continue;
      const auto off = rng.next_below(96 * 1024);
      const auto len = rng.next_below(24 * 1024) + 1;
      const auto data = rand_bytes(len);
      ASSERT_TRUE(do_write(name, off, data)) << "write op " << i;
      shadow.write(name, off, data);
    } else if (dice < mix.create + mix.unlink + mix.write + mix.read) {
      if (!existed) continue;
      const auto off = rng.next_below(128 * 1024);
      const auto len = rng.next_below(16 * 1024) + 1;
      std::vector<std::byte> got;
      ASSERT_TRUE(do_read(name, off, len, got)) << "read op " << i;
      const auto expect = shadow.read(name, off, len);
      ASSERT_EQ(got, expect)
          << "content divergence at " << name << "+" << off << " op " << i;
    } else {
      if (!existed) continue;
      const auto size = rng.next_below(64 * 1024);
      ASSERT_TRUE(do_trunc(name, size)) << "truncate op " << i;
      shadow.truncate(name, size);
    }
  }
  // Final audit: sizes of every surviving file.
  for (const auto& [name, content] : shadow.files()) {
    ASSERT_EQ(do_size(name), content.size()) << "final size of " << name;
  }
}

class DpcShadow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpcShadow, RandomOpsMatchReference) {
  core::DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.with_dfs = false;
  o.cache_geo = {128, 16};
  core::DpcSystem sys(o);
  const bool buffered = GetParam() % 2 == 0;

  auto ino_of = [&](const std::string& name) {
    return sys.lookup(kvfs::kRootIno, name);
  };
  run_shadow(
      GetParam(), 400, OpMix{},
      [&](const std::string& n) {
        return sys.create(kvfs::kRootIno, n).ok();
      },
      [&](const std::string& n) {
        return sys.unlink(kvfs::kRootIno, n).ok();
      },
      [&](const std::string& n, std::uint64_t off,
          std::span<const std::byte> d) {
        const auto f = ino_of(n);
        return f.ok() && sys.write(f.ino, off, d, !buffered).ok();
      },
      [&](const std::string& n, std::uint64_t off, std::size_t len,
          std::vector<std::byte>& out) {
        const auto f = ino_of(n);
        if (!f.ok()) return false;
        out.resize(len);
        const auto r = sys.read(f.ino, off, out, !buffered);
        if (!r.ok()) return false;
        out.resize(r.bytes);
        return true;
      },
      [&](const std::string& n, std::uint64_t size) {
        const auto f = ino_of(n);
        return f.ok() && sys.truncate(f.ino, size).ok();
      },
      [&](const std::string& n) -> std::uint64_t {
        kvfs::Attr attr;
        const auto f = ino_of(n);
        if (!f.ok() || !sys.getattr(f.ino, &attr).ok()) return ~0ull;
        return attr.size;
      });

  // After the storm: flush and fsck the keyspace.
  std::vector<kvfs::DirEntry> entries;
  ASSERT_TRUE(sys.readdir(kvfs::kRootIno, &entries).ok());
  for (const auto& e : entries) sys.fsync(e.ino);
  const auto report = kvfs::fsck(sys.kv_store());
  EXPECT_TRUE(report.clean())
      << (report.issues.empty()
              ? ""
              : std::string(kvfs::to_string(report.issues[0].kind)) + ": " +
                    report.issues[0].detail);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpcShadow,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class Ext4Shadow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Ext4Shadow, RandomOpsMatchReference) {
  ssd::SsdModel disk;
  hostfs::Ext4likeOptions o;
  o.total_blocks = 1 << 16;
  hostfs::Ext4like fs(disk, o);
  const bool buffered = GetParam() % 2 == 1;

  auto ino_of = [&](const std::string& name) {
    return fs.lookup(hostfs::kRootIno, name);
  };
  run_shadow(
      GetParam(), 300, OpMix{},
      [&](const std::string& n) {
        return fs.create(hostfs::kRootIno, n, 0644).ok();
      },
      [&](const std::string& n) {
        return fs.unlink(hostfs::kRootIno, n).ok();
      },
      [&](const std::string& n, std::uint64_t off,
          std::span<const std::byte> d) {
        const auto f = ino_of(n);
        return f.ok() && fs.write(f.value, off, d, !buffered).ok();
      },
      [&](const std::string& n, std::uint64_t off, std::size_t len,
          std::vector<std::byte>& out) {
        const auto f = ino_of(n);
        if (!f.ok()) return false;
        out.resize(len);
        const auto r = fs.read(f.value, off, out, !buffered);
        if (!r.ok()) return false;
        out.resize(r.value);
        return true;
      },
      [&](const std::string& n, std::uint64_t size) {
        const auto f = ino_of(n);
        return f.ok() && fs.truncate(f.value, size).ok();
      },
      [&](const std::string& n) -> std::uint64_t {
        const auto f = ino_of(n);
        if (!f.ok()) return ~0ull;
        return fs.getattr(f.value).value.size;
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ext4Shadow,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dpc
