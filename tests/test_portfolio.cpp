/// Portfolio-racing suite: serial-replay-oracle agreement, winner
/// determinism across thread counts (1/2/8, unclamped pools, so the
/// cross-thread cancellation paths really run under TSan), sticky-interrupt
/// hardening for the racing case (interrupt before the first solve,
/// interrupt concurrent with deferred GC, interrupt storms), warm repeated
/// races on one engine set, classifier-guided race planning, and
/// fault-injection coverage of the race.* audit rules.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/race_audit.hpp"
#include "core/neuroselect.hpp"
#include "gen/generators.hpp"
#include "portfolio/engine_config.hpp"
#include "portfolio/racer.hpp"
#include "portfolio/select.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/solver.hpp"

namespace ns::portfolio {
namespace {

/// Small-but-nontrivial corpus: every race finishes in a few rounds even
/// under TSan, yet engines diverge enough for cancellation to matter.
std::vector<std::pair<std::string, CnfFormula>> race_instances() {
  std::vector<std::pair<std::string, CnfFormula>> out;
  out.emplace_back("php_6_5", gen::pigeonhole(6, 5));
  out.emplace_back("php_7_6", gen::pigeonhole(7, 6));
  out.emplace_back("ksat_60_258_s11", gen::random_ksat(60, 258, 3, 11));
  out.emplace_back("ksat_60_258_s12", gen::random_ksat(60, 258, 3, 12));
  out.emplace_back("xor_120_unsat", gen::xor_chain(120, true, 5));
  out.emplace_back("xor_120_sat", gen::xor_chain(120, false, 5));
  return out;
}

/// Registry used throughout: the stock 6-way portfolio over a base tuned
/// for small instances (frequent restarts/reductions, like the golden
/// trajectory grid).
EngineConfigRegistry test_registry(std::size_t k = 6) {
  solver::SolverOptions base;
  base.reduce_interval = 40;
  base.restart_interval = 16;
  return EngineConfigRegistry::default_portfolio(k, base);
}

RacerOptions quick_race(runtime::ThreadPool* pool = nullptr,
                        bool eager = true) {
  RacerOptions o;
  o.slice_ticks = 5'000;  // several rounds per race on these instances
  o.eager_cancel = eager;
  o.pool = pool;
  return o;
}

void expect_same_race(const RaceResult& a, const RaceResult& b,
                      const char* where, bool full) {
  EXPECT_EQ(a.result, b.result) << where;
  EXPECT_EQ(a.winner, b.winner) << where;
  EXPECT_EQ(a.winner_ticks, b.winner_ticks) << where;
  EXPECT_EQ(a.model, b.model) << where;
  ASSERT_EQ(a.core.size(), b.core.size()) << where;
  for (std::size_t i = 0; i < a.core.size(); ++i) {
    EXPECT_EQ(a.core[i], b.core[i]) << where;
  }
  if (!full) return;  // loser records may differ under eager cancellation
  EXPECT_EQ(a.rounds, b.rounds) << where;
  ASSERT_EQ(a.engines.size(), b.engines.size()) << where;
  for (std::size_t i = 0; i < a.engines.size(); ++i) {
    const EngineRaceResult& x = a.engines[i];
    const EngineRaceResult& y = b.engines[i];
    EXPECT_EQ(x.participated, y.participated) << where << " engine " << i;
    EXPECT_EQ(x.decided, y.decided) << where << " engine " << i;
    EXPECT_EQ(x.cancelled, y.cancelled) << where << " engine " << i;
    EXPECT_EQ(x.result, y.result) << where << " engine " << i;
    EXPECT_EQ(x.why, y.why) << where << " engine " << i;
    EXPECT_EQ(x.ticks, y.ticks) << where << " engine " << i;
    EXPECT_EQ(x.slices, y.slices) << where << " engine " << i;
  }
}

TEST(PortfolioRacerTest, AgreesWithSerialReplayOracle) {
  // The racer's winner must be exactly core::label_portfolio's best — the
  // serial replay of the same slice schedule — with the same ticks and
  // result, eager cancellation on or off.
  const EngineConfigRegistry registry = test_registry();
  const std::vector<solver::SolverOptions> configs = registry.options_list();
  for (const auto& [name, formula] : race_instances()) {
    const core::PortfolioLabel oracle =
        core::label_portfolio(formula, configs, 5'000, 0);
    ASSERT_GE(oracle.best, 0) << name;
    for (const bool eager : {true, false}) {
      PortfolioRacer racer(registry, quick_race(nullptr, eager));
      racer.load(formula);
      const RaceResult race = racer.race();
      EXPECT_EQ(race.result, oracle.result) << name;
      EXPECT_EQ(race.winner, oracle.best) << name;
      EXPECT_EQ(race.winner_ticks,
                oracle.ticks[static_cast<std::size_t>(oracle.best)])
          << name;
      EXPECT_TRUE(audit::check_race(race).empty()) << name;
    }
  }
}

TEST(PortfolioRacerTest, WinnerBitwiseIdenticalAcross1_2_8Threads) {
  // Acceptance criterion: status, model/core, and winner config id are
  // bitwise identical at any thread count. Pools are unclamped so 2- and
  // 8-thread races really interleave engines (and TSan sees the
  // cross-thread watermark/interrupt traffic) even on small machines.
  const EngineConfigRegistry registry = test_registry();
  for (const auto& [name, formula] : race_instances()) {
    RaceResult baseline;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      runtime::ThreadPool pool(threads, /*clamp_to_hardware=*/false);
      PortfolioRacer racer(registry, quick_race(&pool));
      racer.load(formula);
      const RaceResult race = racer.race();
      EXPECT_TRUE(audit::check_race(race).empty()) << name;
      if (threads == 1) {
        baseline = race;
      } else {
        expect_same_race(race, baseline, name.c_str(), /*full=*/false);
      }
    }
  }
}

TEST(PortfolioRacerTest, NoEagerCancelIsFullyDeterministic) {
  // With eager_cancel off the *entire* RaceResult — loser classifications,
  // tick counts, slice counts, rounds — is a pure function of the inputs.
  const EngineConfigRegistry registry = test_registry();
  for (const auto& [name, formula] : race_instances()) {
    RaceResult baseline;
    for (const std::size_t threads : {1u, 8u}) {
      runtime::ThreadPool pool(threads, /*clamp_to_hardware=*/false);
      PortfolioRacer racer(registry, quick_race(&pool, /*eager=*/false));
      racer.load(formula);
      const RaceResult race = racer.race();
      if (threads == 1) {
        baseline = race;
      } else {
        expect_same_race(race, baseline, name.c_str(), /*full=*/true);
      }
    }
  }
}

TEST(PortfolioRacerTest, ExactlyOneWinnerAndLosersCarryInterrupt) {
  const EngineConfigRegistry registry = test_registry();
  runtime::ThreadPool pool(4, /*clamp_to_hardware=*/false);
  PortfolioRacer racer(registry, quick_race(&pool));
  racer.load(gen::pigeonhole(7, 6));
  const RaceResult race = racer.race();
  ASSERT_EQ(race.result, solver::SatResult::kUnsat);
  ASSERT_GE(race.winner, 0);

  std::size_t decided = 0;
  for (const EngineRaceResult& e : race.engines) {
    ASSERT_TRUE(e.participated);
    if (e.config_id == static_cast<std::uint32_t>(race.winner)) {
      EXPECT_TRUE(e.decided);
      EXPECT_FALSE(e.cancelled);
      EXPECT_EQ(e.why, solver::StopReason::kNone);
    } else if (e.cancelled) {
      // Every cancelled loser reports the sticky-interrupt stop reason.
      EXPECT_FALSE(e.decided);
      EXPECT_EQ(e.why, solver::StopReason::kInterrupted);
    } else if (e.decided) {
      // A decided loser lost on the (ticks, id) order, not by interrupt.
      const bool worse =
          e.ticks > race.winner_ticks ||
          (e.ticks == race.winner_ticks &&
           e.config_id > static_cast<std::uint32_t>(race.winner));
      EXPECT_TRUE(worse);
    }
    if (e.decided) ++decided;
    // race.stats invariant: summed slice deltas == lifetime race delta.
    EXPECT_EQ(e.stats.ticks, e.ticks);
    EXPECT_EQ(e.stats.queries, e.slices);
  }
  EXPECT_GE(decided, 1u);
  EXPECT_TRUE(audit::check_race(race).empty());
}

TEST(PortfolioRacerTest, WarmRepeatedRacesAreReproducible) {
  // Racing is an incremental session: engines keep learned clauses across
  // races. Two identical racers must replay an identical 3-race stream
  // (bitwise, eager cancellation off), including races under assumptions.
  const EngineConfigRegistry registry = test_registry(4);
  const CnfFormula formula = gen::random_ksat(60, 258, 3, 11);
  const std::vector<Lit> assume{Lit(3, true), Lit(11, false)};

  const auto run_stream = [&](runtime::ThreadPool* pool) {
    PortfolioRacer racer(registry, quick_race(pool, /*eager=*/false));
    racer.load(formula);
    std::vector<RaceResult> stream;
    stream.push_back(racer.race());
    stream.push_back(racer.race(assume));
    stream.push_back(racer.race());
    return stream;
  };

  runtime::ThreadPool pool(8, /*clamp_to_hardware=*/false);
  const std::vector<RaceResult> serial = run_stream(nullptr);
  const std::vector<RaceResult> parallel = run_stream(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NE(serial[i].result, solver::SatResult::kUnknown);
    expect_same_race(parallel[i], serial[i], "warm race", /*full=*/true);
    EXPECT_TRUE(audit::check_race(serial[i]).empty());
  }
}

TEST(PortfolioRacerTest, SubsetRacesOnlyRequestedConfigs) {
  const EngineConfigRegistry registry = test_registry();
  PortfolioRacer racer(registry, quick_race());
  racer.load(gen::pigeonhole(6, 5));
  const std::vector<std::uint32_t> ids{1, 3, 3, 99};  // dupe + out of range
  const RaceResult race = racer.race_subset(ids);
  ASSERT_EQ(race.result, solver::SatResult::kUnsat);
  EXPECT_TRUE(race.winner == 1 || race.winner == 3);
  for (const EngineRaceResult& e : race.engines) {
    const bool raced = e.config_id == 1 || e.config_id == 3;
    EXPECT_EQ(e.participated, raced) << e.config_id;
    if (!raced) {
      EXPECT_EQ(e.slices, 0u);
      EXPECT_EQ(e.ticks, 0u);
    }
  }
  EXPECT_TRUE(audit::check_race(race).empty());
}

TEST(PortfolioRacerTest, EmptySubsetAndUnloadedRacerAreInert) {
  const EngineConfigRegistry registry = test_registry(3);
  PortfolioRacer unloaded(registry, quick_race());
  EXPECT_EQ(unloaded.race().result, solver::SatResult::kUnknown);

  PortfolioRacer racer(registry, quick_race());
  racer.load(gen::pigeonhole(6, 5));
  const RaceResult race = racer.race_subset(std::vector<std::uint32_t>{});
  EXPECT_EQ(race.result, solver::SatResult::kUnknown);
  EXPECT_EQ(race.winner, -1);
  EXPECT_TRUE(audit::check_race(race).empty());
}

TEST(PortfolioRacerTest, MaxTicksExhaustsWithoutCancellation) {
  // A race cap that no engine can decide under: everyone leaves exhausted
  // (kTickBudget), nobody is "cancelled", and the race is undecided.
  const EngineConfigRegistry registry = test_registry(3);
  RacerOptions options = quick_race();
  options.slice_ticks = 400;
  options.max_ticks = 800;
  PortfolioRacer racer(registry, options);
  racer.load(gen::pigeonhole(8, 7));  // far harder than 800 ticks
  const RaceResult race = racer.race();
  EXPECT_EQ(race.result, solver::SatResult::kUnknown);
  EXPECT_EQ(race.winner, -1);
  EXPECT_EQ(race.why, solver::StopReason::kTickBudget);
  for (const EngineRaceResult& e : race.engines) {
    EXPECT_FALSE(e.cancelled) << e.config_id;
    EXPECT_EQ(e.why, solver::StopReason::kTickBudget) << e.config_id;
    EXPECT_GE(e.ticks, options.max_ticks) << e.config_id;
  }
  EXPECT_TRUE(audit::check_race(race).empty());
}

// --- sticky-interrupt hardening for the racing case -----------------------

TEST(RacingInterruptTest, InterruptBeforeFirstSolveReturnsImmediately) {
  // The racer may cancel an engine that has not started its first query;
  // that query must come back instantly as kUnknown / kInterrupted.
  solver::Solver engine{solver::SolverOptions{}};
  engine.load(gen::pigeonhole(8, 7));
  engine.interrupt();
  const solver::SolveOutcome out = engine.solve();
  EXPECT_EQ(out.result, solver::SatResult::kUnknown);
  EXPECT_EQ(out.why, solver::StopReason::kInterrupted);
  EXPECT_EQ(out.stats.conflicts, 0u);

  // The flag is sticky until cleared (MiniSat semantics) — then the engine
  // solves normally.
  EXPECT_EQ(engine.solve().why, solver::StopReason::kInterrupted);
  engine.clear_interrupt();
  EXPECT_EQ(engine.solve().result, solver::SatResult::kUnsat);
}

TEST(RacingInterruptTest, InterruptConcurrentWithDeferredGcIsSafe) {
  // An interrupt storm runs against an engine whose clause-arena
  // collections fire mid-stream. Cancelled queries must always
  // carry kInterrupted, the engine must stay usable, and TSan must see no
  // race between the collector and the flag.
  solver::SolverOptions options;
  options.reduce_interval = 20;
  options.restart_interval = 16;
  solver::Solver engine{options};
  engine.load(gen::pigeonhole(8, 7));
  engine.set_budget({.conflicts = 0, .propagations = 0, .ticks = 2'000});

  std::atomic<bool> stop{false};
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.interrupt();
      (void)engine.ticks_observed();
    }
  });
  std::uint64_t interrupted = 0;
  for (int q = 0; q < 200; ++q) {
    const solver::SolveOutcome out = engine.solve();
    if (out.result != solver::SatResult::kUnknown) break;
    ASSERT_TRUE(out.why == solver::StopReason::kInterrupted ||
                out.why == solver::StopReason::kTickBudget);
    if (out.why == solver::StopReason::kInterrupted) ++interrupted;
    engine.clear_interrupt();
  }
  stop.store(true, std::memory_order_relaxed);
  storm.join();
  EXPECT_GT(interrupted, 0u);  // the storm really landed

  // Post-storm the engine is intact: clear and solve to completion.
  engine.clear_interrupt();
  engine.set_budget({});
  EXPECT_EQ(engine.solve().result, solver::SatResult::kUnsat);
  EXPECT_GT(engine.stats().garbage_collections, 0u);
}

TEST(RacingInterruptTest, RaceSurvivesExternalInterruptStorm) {
  // Threads hammer every engine's interrupt flag while races run. The race
  // may come back early (cancelled lanes) or decided, but it must
  // terminate, stay audit-clean, and leave the racer reusable — the next
  // race clears the flags and wins normally.
  const EngineConfigRegistry registry = test_registry(4);
  runtime::ThreadPool pool(4, /*clamp_to_hardware=*/false);
  PortfolioRacer racer(registry, quick_race(&pool));
  racer.load(gen::pigeonhole(7, 6));

  std::atomic<bool> stop{false};
  std::vector<std::thread> storm;
  for (int t = 0; t < 3; ++t) {
    storm.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < racer.size(); ++i) {
          racer.engine(i).interrupt();
          (void)racer.engine(i).ticks_observed();
        }
      }
    });
  }
  for (int r = 0; r < 5; ++r) {
    const RaceResult race = racer.race();
    EXPECT_TRUE(audit::check_race(race).empty()) << "storm race " << r;
    if (race.result == solver::SatResult::kUnknown) {
      EXPECT_EQ(race.winner, -1);
    } else {
      EXPECT_EQ(race.result, solver::SatResult::kUnsat);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : storm) t.join();

  const RaceResult calm = racer.race();
  EXPECT_EQ(calm.result, solver::SatResult::kUnsat);
  EXPECT_TRUE(audit::check_race(calm).empty());
}

TEST(RacingInterruptTest, TickWatermarkIsExactBetweenQueries) {
  solver::Solver engine{solver::SolverOptions{}};
  engine.load(gen::pigeonhole(7, 6));
  EXPECT_EQ(engine.ticks_observed(), 0u);
  engine.set_budget({.conflicts = 0, .propagations = 0, .ticks = 3'000});
  std::uint64_t last = 0;
  for (int q = 0; q < 5; ++q) {
    (void)engine.solve();
    EXPECT_EQ(engine.ticks_observed(), engine.stats().ticks);  // exact
    EXPECT_GE(engine.ticks_observed(), last);                  // monotone
    last = engine.ticks_observed();
  }
  engine.load(gen::pigeonhole(6, 5));  // reload resets the probe
  EXPECT_EQ(engine.ticks_observed(), 0u);
}

// --- classifier-guided planning -------------------------------------------

TEST(PortfolioSelectTest, PlanModesPickExpectedSubsets) {
  const EngineConfigRegistry registry = test_registry();
  const CnfFormula formula = gen::random_ksat(60, 258, 3, 11);

  const SelectionPlan fixed =
      plan_race(SelectMode::kFixed, nullptr, registry, formula);
  ASSERT_EQ(fixed.subset_ids.size(), registry.size());

  const SelectionPlan single =
      plan_race(SelectMode::kSingleBest, nullptr, registry, formula);
  ASSERT_EQ(single.subset_ids.size(), 1u);
  EXPECT_EQ(single.subset_ids[0], registry.single_best());

  const SelectionPlan guided =
      plan_race(SelectMode::kClassifier, nullptr, registry, formula);
  EXPECT_EQ(guided.subset_ids.size(), (registry.size() + 1) / 2);
  EXPECT_EQ(guided.selection.ranked.size(), registry.size());
  for (const std::uint32_t id : guided.subset_ids) {
    EXPECT_LT(id, registry.size());
  }
  // With no model the ranking runs at p = 0.5: every analytic head ties
  // and ascending ids win — the racer's own tie-break order.
  EXPECT_EQ(guided.selection.primary, 0u);
  EXPECT_EQ(guided.subset_ids[0], 0u);

  // A planned subset feeds straight into a race.
  PortfolioRacer racer(registry, quick_race());
  racer.load(formula);
  const RaceResult race = racer.race_subset(guided.subset_ids);
  EXPECT_NE(race.result, solver::SatResult::kUnknown);
  EXPECT_TRUE(audit::check_race(race).empty());
}

TEST(PortfolioSelectTest, BinarySelectionMatchesHistoricalThreshold) {
  // core::binary_selection is the paper's p > 0.5 rule, bit-exactly.
  for (const float p : {0.0f, 0.25f, 0.4999999f, 0.5f, 0.5000001f, 0.75f,
                        1.0f}) {
    const core::PolicySelection sel = core::binary_selection(p);
    ASSERT_EQ(sel.ranked.size(), 2u);
    EXPECT_EQ(sel.primary == 1u, p > 0.5f) << p;
  }
}

TEST(PortfolioSelectTest, PriorityHeadsRankFrequencyConfigsByProbability) {
  const EngineConfigRegistry registry = test_registry();
  core::PortfolioSelector selector(nullptr, registry.options_list());
  // High p: frequency-deletion configs (1, 4, 5) outrank the others.
  const core::PolicySelection high = selector.select_from_probability(0.9f);
  EXPECT_EQ(high.ranked[0], 1u);
  EXPECT_GT(high.priority[1], high.priority[0]);
  // Low p: the default-deletion configs (0, 2, 3) lead, id order on ties.
  const core::PolicySelection low = selector.select_from_probability(0.1f);
  EXPECT_EQ(low.ranked[0], 0u);
  EXPECT_GT(low.priority[0], low.priority[1]);
}

TEST(PortfolioSelectTest, TrainedHeadsStayDeterministicAndRankable) {
  // Tiny deterministic training run: same inputs → identical heads, and
  // the heads still produce a full ranking.
  const EngineConfigRegistry registry = test_registry(3);
  std::vector<gen::NamedInstance> train;
  train.push_back({"php_6_5", "php", gen::pigeonhole(6, 5)});
  train.push_back({"ksat_s11", "ksat", gen::random_ksat(60, 258, 3, 11)});
  core::PriorityTrainOptions options;
  options.slice_ticks = 5'000;
  options.max_ticks = 200'000;
  options.epochs = 50;
  const auto heads_a = core::train_priority_heads(
      nullptr, train, registry.options_list(), options);
  const auto heads_b = core::train_priority_heads(
      nullptr, train, registry.options_list(), options);
  ASSERT_EQ(heads_a.size(), registry.size());
  for (std::size_t c = 0; c < heads_a.size(); ++c) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(heads_a[c][k], heads_b[c][k]) << c << "," << k;
    }
  }
  core::PortfolioSelector selector(nullptr, registry.options_list());
  selector.set_heads(heads_a);
  const core::PolicySelection sel = selector.select_from_probability(0.5f);
  EXPECT_EQ(sel.ranked.size(), registry.size());
}

// --- race.* audit fault injection -----------------------------------------

RaceResult valid_race_fixture() {
  RaceResult race;
  race.result = solver::SatResult::kUnsat;
  race.winner = 1;
  race.winner_ticks = 100;
  race.rounds = 2;
  race.engines.resize(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    race.engines[i].config_id = i;
    race.engines[i].participated = true;
  }
  race.engines[0].cancelled = true;
  race.engines[0].why = solver::StopReason::kInterrupted;
  race.engines[0].ticks = 150;
  race.engines[0].stats.ticks = 150;
  race.engines[0].slices = 2;
  race.engines[1].decided = true;
  race.engines[1].result = solver::SatResult::kUnsat;
  race.engines[1].ticks = 100;
  race.engines[1].stats.ticks = 100;
  race.engines[1].slices = 2;
  race.engines[2].decided = true;
  race.engines[2].result = solver::SatResult::kUnsat;
  race.engines[2].ticks = 120;
  race.engines[2].stats.ticks = 120;
  race.engines[2].slices = 2;
  return race;
}

bool has_rule(const std::vector<audit::Violation>& vs, const char* rule) {
  for (const audit::Violation& v : vs) {
    if (v.rule == rule) return true;
  }
  return false;
}

TEST(RaceAuditTest, CleanFixturePasses) {
  EXPECT_TRUE(audit::check_race(valid_race_fixture()).empty());
}

TEST(RaceAuditTest, DetectsWinnerViolations) {
  RaceResult race = valid_race_fixture();
  race.winner = 7;  // out of range
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.winner"));

  race = valid_race_fixture();
  race.engines[1].why = solver::StopReason::kTickBudget;
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.winner"));

  race = valid_race_fixture();
  race.winner_ticks = 99;  // disagrees with the winner engine
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.winner"));

  race = valid_race_fixture();
  race.result = solver::SatResult::kUnknown;  // decided engines, no result
  race.winner = -1;
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.winner"));
}

TEST(RaceAuditTest, DetectsTiebreakViolations) {
  // Engine 2 decided faster than the named winner.
  RaceResult race = valid_race_fixture();
  race.engines[2].ticks = 80;
  race.engines[2].stats.ticks = 80;
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.tiebreak"));

  // Equal ticks, lower id: id 0 must have won the tie.
  race = valid_race_fixture();
  race.engines[0].cancelled = false;
  race.engines[0].decided = true;
  race.engines[0].result = solver::SatResult::kUnsat;
  race.engines[0].why = solver::StopReason::kNone;
  race.engines[0].ticks = 100;
  race.engines[0].stats.ticks = 100;
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.tiebreak"));
}

TEST(RaceAuditTest, DetectsLoserStopViolations) {
  RaceResult race = valid_race_fixture();
  race.engines[0].why = solver::StopReason::kTickBudget;  // cancelled but
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.loser_stop"));

  race = valid_race_fixture();
  race.engines[0].cancelled = false;
  race.engines[0].why = solver::StopReason::kNone;  // no reason to stop
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.loser_stop"));
}

TEST(RaceAuditTest, DetectsStatsViolations) {
  RaceResult race = valid_race_fixture();
  race.engines[2].stats.ticks = 119;  // slice sum != lifetime delta
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.stats"));

  race = valid_race_fixture();
  race.engines[0].participated = false;  // "idle" engine with activity
  EXPECT_TRUE(has_rule(audit::check_race(race), "race.stats"));
}

}  // namespace
}  // namespace ns::portfolio
