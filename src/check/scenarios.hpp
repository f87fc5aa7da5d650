// The model-checked scenario catalog: each entry builds one small bounded
// system around a protocol the paper's client depends on (the seqlock'd
// cache entry, the NVM write-ahead log, the SQ/CQ pair, the DRR
// dispatcher, restart-vs-pump, idle-pass loss detection, the dirty-bitmap
// publish, the multi-shard KV batch), runs 2–3 managed threads through it
// under ModelSched, and asserts the protocol's invariants over every
// explored interleaving.
//
// Each scenario is paired with exactly one DPC_CHECK_MUTATE site in the
// product code that deletes/reorders the fence or guard the protocol
// depends on. Running the scenario with its mutation armed MUST find a
// violation — that is the evidence the harness actually observes the
// protocol, not just executes it (a checker that passes mutated code is
// vacuous). `dpc_check --mutate` enforces this, and replays the violating
// schedule from its printed choice list to prove the report deterministic.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "check/model_sched.hpp"

namespace dpc::check {

struct Scenario {
  const char* name;
  const char* description;
  /// The paired DPC_CHECK_MUTATE site; armed by `--mutate`.
  const char* mutation;
  /// True: the decision tree is small enough to enumerate completely —
  /// run in the exhaustive tier (and report the full interleaving count).
  /// False: PCT tier only.
  bool exhaustive;
  /// Step budget per schedule (livelock bound).
  int max_steps;
  /// Ceiling for the exhaustive tier (hitting it is reported, not silent).
  std::uint64_t max_schedules;
  /// PCT seeds to sweep when hunting the armed mutation.
  std::uint64_t mutate_seeds;
  ScenarioFn fn;
};

/// All registered scenarios, stable order.
const std::vector<Scenario>& scenarios();

/// nullptr when `name` is unknown.
const Scenario* find_scenario(std::string_view name);

}  // namespace dpc::check
