#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/check.hpp"

namespace dpc::sim {
namespace {

WorkloadSpec base_spec(Pattern p) {
  WorkloadSpec s;
  s.pattern = p;
  s.io_size = 8 * 1024;
  s.file_size = 1ULL << 30;
  return s;
}

TEST(Workload, RandReadProducesAlignedReads) {
  WorkloadGen gen(base_spec(Pattern::kRandRead), 0);
  for (int i = 0; i < 1000; ++i) {
    const IoOp op = gen.next();
    EXPECT_EQ(op.type, OpType::kRead);
    EXPECT_EQ(op.offset % op.length, 0u);
    EXPECT_LT(op.offset + op.length, (1ULL << 30) + 1);
  }
}

TEST(Workload, SeqWriteAdvancesAndWraps) {
  auto spec = base_spec(Pattern::kSeqWrite);
  spec.file_size = 4 * spec.io_size;
  WorkloadGen gen(spec, 0);
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 8; ++i) offs.push_back(gen.next().offset);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(offs[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i) * spec.io_size);
    EXPECT_EQ(offs[static_cast<std::size_t>(i + 4)],
              offs[static_cast<std::size_t>(i)]);  // wrapped
  }
}

TEST(Workload, MixedReadFraction) {
  auto spec = base_spec(Pattern::kMixed);
  spec.read_fraction = 0.7;  // the Fig. 1 mix
  WorkloadGen gen(spec, 1);
  int reads = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i)
    reads += gen.next().type == OpType::kRead ? 1 : 0;
  EXPECT_NEAR(reads, 70000, 1500);
}

TEST(Workload, LocalityHitsHotRegion) {
  auto spec = base_spec(Pattern::kRandRead);
  spec.locality = 0.9;
  spec.hot_fraction = 0.1;
  WorkloadGen gen(spec, 2);
  const std::uint64_t hot_end = static_cast<std::uint64_t>(
      static_cast<double>(spec.file_size) * spec.hot_fraction);
  int hot = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i)
    hot += gen.next().offset < hot_end ? 1 : 0;
  // ≈ 0.9 + 0.1*0.1 = 91%
  EXPECT_NEAR(hot, 91000, 2000);
}

TEST(Workload, CreatesAreUniquePerStream) {
  auto spec = base_spec(Pattern::kCreate);
  WorkloadGen g0(spec, 0), g1(spec, 1);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ids.insert(g0.next().file_id).second);
    EXPECT_TRUE(ids.insert(g1.next().file_id).second);
  }
}

TEST(Workload, DeterministicPerStream) {
  auto spec = base_spec(Pattern::kRandWrite);
  WorkloadGen a(spec, 5), b(spec, 5);
  for (int i = 0; i < 100; ++i) {
    const IoOp oa = a.next(), ob = b.next();
    EXPECT_EQ(oa.offset, ob.offset);
    EXPECT_EQ(oa.file_id, ob.file_id);
  }
}

TEST(Workload, StreamsAreIndependent) {
  auto spec = base_spec(Pattern::kRandWrite);
  WorkloadGen a(spec, 0), b(spec, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next().offset == b.next().offset;
  EXPECT_LT(same, 5);
}

TEST(Workload, MultipleFilesCovered) {
  auto spec = base_spec(Pattern::kRandRead);
  spec.file_count = 8;
  WorkloadGen gen(spec, 0);
  std::set<std::uint64_t> files;
  for (int i = 0; i < 1000; ++i) files.insert(gen.next().file_id);
  EXPECT_EQ(files.size(), 8u);
}

TEST(Workload, RejectsBadSpec) {
  auto spec = base_spec(Pattern::kRandRead);
  spec.io_size = 0;
  EXPECT_THROW(WorkloadGen(spec, 0), CheckFailure);
  spec = base_spec(Pattern::kRandRead);
  spec.file_size = 4096;
  spec.io_size = 8192;
  EXPECT_THROW(WorkloadGen(spec, 0), CheckFailure);
}

TEST(Workload, DefaultSweepIsPowersOfTwo) {
  const auto sweep = default_thread_sweep(256);
  EXPECT_EQ(sweep.front(), 1);
  EXPECT_EQ(sweep.back(), 256);
  for (std::size_t i = 1; i < sweep.size(); ++i)
    EXPECT_EQ(sweep[i], sweep[i - 1] * 2);
}

// The contract every bench relies on, per pattern: each op is one
// io_size-aligned extent inside the file, of the type the pattern names.
struct PatternCase {
  const char* name;
  Pattern pattern;
  bool reads;
  bool writes;
  bool creates;
};

class WorkloadPattern : public ::testing::TestWithParam<PatternCase> {};

TEST_P(WorkloadPattern, OpsStayInsideTheFileWithTheirType) {
  const PatternCase& c = GetParam();
  auto spec = base_spec(c.pattern);
  spec.file_size = 64 * spec.io_size;  // small enough to wrap
  spec.file_count = 4;
  spec.locality = 0.5;
  WorkloadGen gen(spec, 3);
  std::set<OpType> seen;
  std::set<std::uint64_t> created;
  for (int i = 0; i < 1000; ++i) {
    const IoOp op = gen.next();
    seen.insert(op.type);
    EXPECT_EQ(op.length, spec.io_size);
    EXPECT_EQ(op.offset % spec.io_size, 0u);
    EXPECT_LE(op.offset + op.length, spec.file_size);
    if (op.type == OpType::kCreate) {
      EXPECT_EQ(op.offset, 0u);
      EXPECT_TRUE(created.insert(op.file_id).second) << op.file_id;
    } else {
      EXPECT_LT(op.file_id, spec.file_count);
    }
  }
  EXPECT_EQ(seen.count(OpType::kRead) == 1, c.reads);
  EXPECT_EQ(seen.count(OpType::kWrite) == 1, c.writes);
  EXPECT_EQ(seen.count(OpType::kCreate) == 1, c.creates);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, WorkloadPattern,
    ::testing::Values(PatternCase{"RandRead", Pattern::kRandRead, true, false,
                                  false},
                      PatternCase{"RandWrite", Pattern::kRandWrite, false,
                                  true, false},
                      PatternCase{"SeqRead", Pattern::kSeqRead, true, false,
                                  false},
                      PatternCase{"SeqWrite", Pattern::kSeqWrite, false, true,
                                  false},
                      PatternCase{"Mixed", Pattern::kMixed, true, true, false},
                      PatternCase{"Create", Pattern::kCreate, false, false,
                                  true}),
    [](const ::testing::TestParamInfo<PatternCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dpc::sim
