// ModelSched unit tests: the scheduler's exploration mechanics on small
// synthetic scenarios with known interleaving counts, smoke runs of the
// product scenario catalog, and the full mutation sweep (the same check as
// `dpc_check --mutate all`). The larger clean tiers run via dpc_check in
// CI's check stage.
#include "check/model_sched.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "check/scenarios.hpp"
#include "sim/schedhook.hpp"

namespace dpc::check {
namespace {

namespace sh = sim::schedhook;

// ---------------------------------------------------------------------------
// Exploration mechanics on synthetic scenarios.

// Two threads × two decision points each: a thread takes 3 scheduler grants
// (start→p1, p1→p2, p2→finish), so the interleaving space is C(6,3) = 20.
// DFS must enumerate exactly that — no duplicates, no misses.
TEST(ModelSched, ExhaustiveEnumeratesTwoByTwoCompletely) {
  const auto fn = [](ModelSched& sched) {
    sched.spawn([] {
      sh::point("t.p1");
      sh::point("t.p2");
    });
    sched.spawn([] {
      sh::point("u.p1");
      sh::point("u.p2");
    });
    sched.run();
  };
  const auto r = explore_exhaustive(fn, nullptr, 10000, 1000);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
  EXPECT_EQ(r.schedules, 20u);
  EXPECT_EQ(r.truncated, 0u);
}

// The classic lost-update race: both threads read-modify-write a shared
// counter with a yield point between read and write. Exhaustive search must
// find the interleaving where an update is lost, and the recorded choice
// list must replay to the identical violation.
TEST(ModelSched, FindsLostUpdateAndReplaysIt) {
  int x = 0;
  const auto fn = [&x](ModelSched& sched) {
    x = 0;
    for (int t = 0; t < 2; ++t) {
      sched.spawn([&x] {
        const int v = x;
        sh::point("racy.rmw");
        x = v + 1;
      });
    }
    sched.run();
    sched.require(x == 2, "lost update: both increments read the same value");
  };
  const auto r = explore_exhaustive(fn, nullptr, 10000, 1000);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_NE(r.violation->message.find("lost update"), std::string::npos);
  EXPECT_FALSE(r.violation->trace.empty());

  const auto rep = replay_run(fn, nullptr, r.violation->choices, 1000);
  ASSERT_TRUE(rep.violation.has_value());
  EXPECT_EQ(rep.violation->message, r.violation->message);
}

// A thread spinning with nobody left to wake it is a deadlock, reported
// with the blocked site in the message.
TEST(ModelSched, ReportsDeadlockWhenOnlySpinnersRemain) {
  const auto fn = [](ModelSched& sched) {
    sched.spawn([] {
      for (;;) sh::spin("stuck.forever");
    });
    sched.run();
  };
  const auto r = explore_exhaustive(fn, nullptr, 10, 1000);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_NE(r.violation->message.find("deadlock"), std::string::npos);
  EXPECT_NE(r.violation->message.find("stuck.forever"), std::string::npos);
}

// Threads that stay runnable forever (a livelock ping-pong through real
// decision points) exhaust the step budget — reported as a violation, not
// filed silently under "truncated": correct code never nears the budget.
TEST(ModelSched, StepBudgetExhaustionIsAViolation) {
  const auto fn = [](ModelSched& sched) {
    std::atomic<bool> stop{false};
    sched.spawn([&] {
      while (!stop.load()) sh::point("live.a");
      // Unreachable under the tiny budget; keeps the loop well-formed.
    });
    sched.spawn([&] {
      for (;;) sh::point("live.b");
    });
    sched.run();
    stop.store(true);
  };
  const auto r = explore_exhaustive(fn, nullptr, 1, 50);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_NE(r.violation->message.find("step budget"), std::string::npos);
}

// power_cut(): managed threads die at their next decision point with
// fault::CrashException (swallowed by the wrapper — a modelled power loss,
// not an error), and the driver can inspect the post-crash state.
TEST(ModelSched, PowerCutStopsManagedThreads) {
  int reached = 0;
  const auto fn = [&reached](ModelSched& sched) {
    reached = 0;
    // Power thread spawned FIRST: the DFS first path grants thread ids in
    // order, so the cut is armed before the victim's first decision point
    // and must kill it there (crash_now on the spawn park).
    sched.spawn([&sched] { sched.power_cut(); });
    sched.spawn([&reached] {
      for (int i = 0; i < 100; ++i) {
        sh::point("victim.step");
        ++reached;
      }
    });
    sched.run();
    sched.require(sched.crashed(), "power cut not recorded");
  };
  DfsStrategy dfs;
  dfs.begin_run();
  ModelSched sched(dfs, {1000, nullptr});
  fn(sched);
  EXPECT_LT(reached, 100);
}

// PCT exploration is deterministic per seed: the violating seed's recorded
// choices replay to the same violation.
TEST(ModelSched, PctFindsAndReplaysRace) {
  int x = 0;
  const auto fn = [&x](ModelSched& sched) {
    x = 0;
    for (int t = 0; t < 2; ++t) {
      sched.spawn([&x] {
        const int v = x;
        sh::point("racy.rmw");
        x = v + 1;
      });
    }
    sched.run();
    sched.require(x == 2, "lost update");
  };
  const auto r = explore_pct(fn, nullptr, /*seed_base=*/1, /*seeds=*/64,
                             /*depth=*/3, 1000);
  ASSERT_TRUE(r.violation.has_value());
  const auto rep = replay_run(fn, nullptr, r.violation->choices, 1000);
  ASSERT_TRUE(rep.violation.has_value());
  EXPECT_EQ(rep.violation->message, r.violation->message);
}

// ---------------------------------------------------------------------------
// The product scenario catalog.

TEST(Scenarios, CatalogIsComplete) {
  ASSERT_EQ(scenarios().size(), 10u);
  for (const Scenario& s : scenarios()) {
    EXPECT_NE(find_scenario(s.name), nullptr);
    EXPECT_NE(s.mutation[0], '\0') << s.name << " has no paired mutation";
  }
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

// Small catalog scenarios, clean code, full enumeration: no violations.
TEST(Scenarios, DrrDispatchCleanExhaustive) {
  const Scenario* s = find_scenario("drr_dispatch");
  ASSERT_NE(s, nullptr);
  const auto r = explore_exhaustive(s->fn, nullptr, s->max_schedules,
                                    s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
  EXPECT_EQ(r.schedules, 2u);  // the two staged arrival orders
}

TEST(Scenarios, WalFsyncFlushCleanExhaustive) {
  const Scenario* s = find_scenario("wal_fsync_flush");
  ASSERT_NE(s, nullptr);
  const auto r = explore_exhaustive(s->fn, nullptr, s->max_schedules,
                                    s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
  EXPECT_GT(r.schedules, 1u);
  EXPECT_EQ(r.truncated, 0u);
}

TEST(Scenarios, WalAppendCleanExhaustive) {
  const Scenario* s = find_scenario("wal_append");
  ASSERT_NE(s, nullptr);
  const auto r = explore_exhaustive(s->fn, nullptr, s->max_schedules,
                                    s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
  EXPECT_GT(r.schedules, 10u);
  EXPECT_EQ(r.truncated, 0u);
}

// Mutation sensitivity, over the whole catalog: arming each scenario's
// paired DPC_CHECK_MUTATE site must produce a violation in the scenario's
// own tier (exhaustive, or its PCT seed budget), and the recorded schedule
// must replay to the identical violation.
class MutationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MutationSweep, MutationIsCaughtAndReplays) {
  const Scenario& s = scenarios()[GetParam()];
  const auto r =
      s.exhaustive
          ? explore_exhaustive(s.fn, s.mutation, s.max_schedules, s.max_steps)
          : explore_pct(s.fn, s.mutation, /*seed_base=*/1, s.mutate_seeds,
                        /*depth=*/3, s.max_steps);
  ASSERT_TRUE(r.violation.has_value())
      << "checker is blind to " << s.mutation;
  const auto rep =
      replay_run(s.fn, s.mutation, r.violation->choices, s.max_steps);
  ASSERT_TRUE(rep.violation.has_value())
      << s.mutation << " caught but the schedule did not replay";
  EXPECT_EQ(rep.violation->message, r.violation->message);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, MutationSweep,
    ::testing::Range<std::size_t>(0, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(scenarios()[info.param].name);
    });

// PCT smoke of the two big scenarios (a couple of seeds; the full sweep is
// CI's job). Clean code: no violation.
TEST(Scenarios, SqSubmitAbortCleanPctSmoke) {
  const Scenario* s = find_scenario("sq_submit_abort");
  ASSERT_NE(s, nullptr);
  const auto r =
      explore_pct(s->fn, nullptr, /*seed_base=*/1, /*seeds=*/2, 3,
                  s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
}

TEST(Scenarios, WriteThroughVsPrefetchCleanPct) {
  const Scenario* s = find_scenario("writethrough_vs_prefetch");
  ASSERT_NE(s, nullptr);
  const auto r = explore_pct(s->fn, nullptr, /*seed_base=*/1, s->mutate_seeds,
                             3, s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
}

TEST(Scenarios, IdlePassLossCleanPct) {
  const Scenario* s = find_scenario("idle_pass_loss");
  ASSERT_NE(s, nullptr);
  const auto r = explore_pct(s->fn, nullptr, /*seed_base=*/1, s->mutate_seeds,
                             3, s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
}

TEST(Scenarios, DirtyPublishCleanPct) {
  const Scenario* s = find_scenario("dirty_publish");
  ASSERT_NE(s, nullptr);
  const auto r = explore_pct(s->fn, nullptr, /*seed_base=*/1, s->mutate_seeds,
                             3, s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
}

TEST(Scenarios, BatchAtomicCleanPct) {
  const Scenario* s = find_scenario("batch_atomic");
  ASSERT_NE(s, nullptr);
  const auto r = explore_pct(s->fn, nullptr, /*seed_base=*/1, s->mutate_seeds,
                             3, s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
}

TEST(Scenarios, RestartVsPumpCleanPctSmoke) {
  const Scenario* s = find_scenario("restart_vs_pump");
  ASSERT_NE(s, nullptr);
  const auto r =
      explore_pct(s->fn, nullptr, /*seed_base=*/1, /*seeds=*/1, 3,
                  s->max_steps);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
}

}  // namespace
}  // namespace dpc::check
