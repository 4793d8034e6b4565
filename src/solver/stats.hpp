#pragma once
/// \file stats.hpp
/// Solver statistics and result vocabulary. Propagation count doubles as
/// the deterministic "runtime" proxy used throughout the evaluation (the
/// paper uses the same proxy to label training data, Sec. 5.1).
///
/// Multi-query semantics (incremental engine): the engine accumulates one
/// `Statistics` over its whole lifetime; each `solve()` call returns the
/// *per-query delta* computed with `delta_since` against a snapshot taken
/// when the previous query ended. For a freshly loaded solver the first
/// query's delta equals the lifetime counters (the snapshot is all-zero),
/// which keeps single-shot trajectories bit-identical to the golden suite.

#include <cstdint>
#include <string>

namespace ns::solver {

/// Outcome of a solve() call. (Lives here rather than solver.hpp so the
/// engine hooks can report query results without a circular include.)
enum class SatResult : std::uint8_t { kSat, kUnsat, kUnknown };

/// Why a solve() call returned kUnknown (kNone for decided results).
enum class StopReason : std::uint8_t {
  kNone,               ///< result is kSat or kUnsat
  kConflictBudget,     ///< conflict budget (per-query or lifetime) exhausted
  kPropagationBudget,  ///< propagation budget exhausted
  kTickBudget,         ///< tick budget exhausted
  kInterrupted,        ///< interrupt() observed
};

/// Stable lowercase identifier for JSON output / logs.
inline const char* stop_reason_name(StopReason r) {
  switch (r) {
    case StopReason::kNone:
      return "none";
    case StopReason::kConflictBudget:
      return "conflict-budget";
    case StopReason::kPropagationBudget:
      return "propagation-budget";
    case StopReason::kTickBudget:
      return "tick-budget";
    case StopReason::kInterrupted:
      return "interrupt";
  }
  return "none";
}

/// Counters accumulated over an engine lifetime (see delta_since for the
/// per-query view).
struct Statistics {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;   ///< variable assignments made by BCP
  std::uint64_t ticks = 0;          ///< watch-list visits (finer time proxy)
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t reductions = 0;     ///< clause-DB reduce passes
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t minimized_literals = 0;  ///< removed by clause minimization
  std::uint64_t max_trail = 0;      ///< watermark; query-scoped (see below)

  // --- incremental lifecycle --------------------------------------------
  std::uint64_t queries = 0;              ///< solve() calls since load
  std::uint64_t garbage_collections = 0;  ///< clause-arena compactions

  // --- binary-vs-long propagation split ---------------------------------
  // Watch visits and BCP enqueues broken down by clause class. The splits
  // partition their parents exactly except for `propagations`: root-level
  // unit assignments (input units, preprocessing, level-0 learned units)
  // count toward `propagations` but come from no watch list.
  std::uint64_t ticks_binary = 0;  ///< watch visits of inline binary entries
  std::uint64_t ticks_long = 0;    ///< watch visits that dereference a clause
  std::uint64_t propagations_binary = 0;  ///< enqueues from binary watches
  std::uint64_t propagations_long = 0;    ///< enqueues from long clauses

  // --- per-subsystem work counters --------------------------------------
  // One counter per search subsystem, in the same "ticks" spirit: the
  // dominant inner-loop step of that phase, so profiles of where a run
  // spends its deterministic time can be read off the stats alone.
  std::uint64_t analyze_ticks = 0;  ///< literals examined in 1-UIP analysis
  std::uint64_t minimize_ticks = 0;  ///< reason literals examined minimizing
  std::uint64_t decide_ticks = 0;   ///< heap pops + VMTF walk steps
  std::uint64_t reduce_ticks = 0;   ///< learned clauses scored at reduce

  /// Per-query view: every counter minus its value in `base` (the snapshot
  /// taken when the previous query ended). `max_trail` is a watermark, not
  /// a counter — the engine re-arms it to the root-trail height at query
  /// begin, so the current value *is* the per-query maximum and is copied
  /// verbatim rather than subtracted.
  Statistics delta_since(const Statistics& base) const {
    Statistics d;
    d.decisions = decisions - base.decisions;
    d.propagations = propagations - base.propagations;
    d.ticks = ticks - base.ticks;
    d.conflicts = conflicts - base.conflicts;
    d.restarts = restarts - base.restarts;
    d.reductions = reductions - base.reductions;
    d.learned_clauses = learned_clauses - base.learned_clauses;
    d.learned_literals = learned_literals - base.learned_literals;
    d.deleted_clauses = deleted_clauses - base.deleted_clauses;
    d.minimized_literals = minimized_literals - base.minimized_literals;
    d.max_trail = max_trail;  // watermark, see above
    d.queries = queries - base.queries;
    d.garbage_collections = garbage_collections - base.garbage_collections;
    d.ticks_binary = ticks_binary - base.ticks_binary;
    d.ticks_long = ticks_long - base.ticks_long;
    d.propagations_binary = propagations_binary - base.propagations_binary;
    d.propagations_long = propagations_long - base.propagations_long;
    d.analyze_ticks = analyze_ticks - base.analyze_ticks;
    d.minimize_ticks = minimize_ticks - base.minimize_ticks;
    d.decide_ticks = decide_ticks - base.decide_ticks;
    d.reduce_ticks = reduce_ticks - base.reduce_ticks;
    return d;
  }

  /// Deterministic pseudo-seconds: proportional to ticks. The constant is
  /// calibrated so typical suite instances land in a 0..5000 "second" range
  /// mirroring the paper's 5000 s timeout scale.
  double proxy_seconds() const {
    return static_cast<double>(ticks) / 1.0e5;
  }

  std::string summary() const {
    return "conflicts=" + std::to_string(conflicts) +
           " decisions=" + std::to_string(decisions) +
           " propagations=" + std::to_string(propagations) +
           " restarts=" + std::to_string(restarts) +
           " reductions=" + std::to_string(reductions);
  }
};

}  // namespace ns::solver
