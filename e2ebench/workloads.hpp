#pragma once
/// \file workloads.hpp
/// The three benchmark workloads behind one interface, plus the answer
/// checks they share. Every workload is a closed loop with one client: the
/// loop in main.cpp calls `run_op` again only after the previous op
/// returned. Inputs come from `ns::gen` families generated in `setup`, and
/// instances are rendered to DIMACS text there, so parsing stays on the
/// timed path.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnf/formula.hpp"
#include "solver/solver.hpp"
#include "trace.hpp"

namespace e2e {

/// What the family fixes about an instance's answer.
enum class Expect : std::uint8_t { kSat, kUnsat, kUnknown };

/// Deterministic outcome of one op. Everything but `errors` is a pure
/// function of the seed and the op index, so main.cpp compares digests
/// across repeats and thread counts.
struct OpOutcome {
  std::uint32_t answers = 0;    ///< solver answers the op produced
  std::uint32_t decided = 0;    ///< of those, SAT or UNSAT
  std::uint32_t selections = 0;  ///< policy choices made by the classifier
  std::uint32_t frequency = 0;   ///< of those, the frequency policy
  ns::solver::Statistics stats;  ///< summed solver counters of the op
  double straggler_share = 0.0;  ///< label_batch: max / total propagations
  std::uint64_t digest = 0;      ///< hash of answers, counts, probabilities
  std::vector<std::string> errors;  ///< failed answer checks; empty = ok
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`, renders them to DIMACS, builds the
  /// model and warms up. Everything here is untimed in op latency.
  virtual void setup(std::uint64_t seed) = 0;

  /// Ops in one pass over the inputs. decided_frac and the determinism
  /// check cover exactly ops [0, pass_ops()); op k repeats op
  /// k % pass_ops() exactly.
  virtual std::size_t pass_ops() const = 0;

  /// Threads of the runtime pool the ops run on in a timed or a traced
  /// run, pinned for the whole run (capped at nproc). Timed runs use one:
  /// on a shared VM, CPU contention from other guests moves wall-clock far
  /// more with several busy threads than with one.
  virtual std::size_t pool_threads(bool traced) const {
    (void)traced;
    return 1;
  }

  /// Runs op `k`. Spans go to `tr` when it is enabled.
  virtual OpOutcome run_op(std::size_t k, Tracer& tr) = 0;

  /// Answer checks kept off the timed path (re-solves). Returns one line
  /// per failed check; `notes` receives counts of what was checked.
  virtual std::vector<std::string> verify_offline(
      std::vector<std::string>& notes) = 0;

  /// Determinism checks beyond same-seed repeats (label_batch: other pool
  /// thread counts against the timed runs'). Returns one line per
  /// mismatch.
  virtual std::vector<std::string> check_determinism_extra(
      const std::vector<OpOutcome>& pass) {
    (void)pass;
    return {};
  }

  /// Negative self-test: feeds corrupted answers (a falsified model, a
  /// false UNSAT, ...) to the same checks the ops use. Returns one line per
  /// corruption the checks failed to flag.
  virtual std::vector<std::string> self_test() = 0;
};

std::unique_ptr<Workload> make_select_easy();
std::unique_ptr<Workload> make_select_hard();
std::unique_ptr<Workload> make_label_batch();

// --- shared answer checks ----------------------------------------------------

/// Empty when `model` satisfies `f`; otherwise a diagnostic.
std::string check_model(const ns::CnfFormula& f, const ns::Model& model);

/// Empty when the answer agrees with what the family fixes.
std::string check_expected(ns::solver::SatResult result, Expect expect);

/// A model that falsifies some clause of `f` (every literal of the first
/// non-empty clause made false): the negative self-test's flipped bits.
ns::Model falsify(const ns::CnfFormula& f, ns::Model model);

/// Order-sensitive 64-bit hash combine (splitmix64 finalizer).
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + 0x9e3779b97f4a7c15ull + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Adds the solver counters the determinism check compares.
inline std::uint64_t mix_stats(std::uint64_t h,
                               const ns::solver::Statistics& s) {
  for (std::uint64_t v : {s.propagations, s.ticks, s.conflicts,
                          s.decisions, s.reductions, s.analyze_ticks,
                          s.minimize_ticks, s.decide_ticks, s.reduce_ticks}) {
    h = mix(h, v);
  }
  return h;
}

inline void add_stats(ns::solver::Statistics& into,
                      const ns::solver::Statistics& s) {
  into.propagations += s.propagations;
  into.ticks += s.ticks;
  into.conflicts += s.conflicts;
  into.decisions += s.decisions;
  into.reductions += s.reductions;
  into.analyze_ticks += s.analyze_ticks;
  into.minimize_ticks += s.minimize_ticks;
  into.decide_ticks += s.decide_ticks;
  into.reduce_ticks += s.reduce_ticks;
}

/// Attaches the solver counters of one solve to a span.
inline void count_stats(Tracer::Scope& span,
                        const ns::solver::Statistics& s) {
  span.count("propagations", static_cast<double>(s.propagations));
  span.count("ticks", static_cast<double>(s.ticks));
  span.count("conflicts", static_cast<double>(s.conflicts));
  span.count("reductions", static_cast<double>(s.reductions));
  span.count("analyze_ticks", static_cast<double>(s.analyze_ticks));
  span.count("minimize_ticks", static_cast<double>(s.minimize_ticks));
  span.count("decide_ticks", static_cast<double>(s.decide_ticks));
  span.count("reduce_ticks", static_cast<double>(s.reduce_ticks));
}

}  // namespace e2e
