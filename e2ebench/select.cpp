/// \file select.cpp
/// select_easy and select_hard: the paper's NeuroSelect-Kissat pipeline on
/// one instance per op. DIMACS text is parsed, the variable-clause graph
/// built, the classifier's forward pass recorded and run, the deletion
/// policy picked from its probability, the instance solved under that
/// policy with a propagation budget, and the answer checked.

#include <cstring>
#include <random>

#include "cnf/dimacs.hpp"
#include "core/neuroselect.hpp"
#include "gen/generators.hpp"
#include "nn/models.hpp"
#include "solver/solver.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using ns::solver::SatResult;

constexpr std::size_t kWarmupOps = 4;

struct Instance {
  std::string name;
  std::string dimacs;
  ns::CnfFormula formula;  ///< as generated; the ops check the parsed copy
  Expect expect = Expect::kUnknown;
};

/// One workload's instance mix. `make(i, rng)` builds instance i.
struct SelectSpec {
  std::size_t instances;
  std::uint64_t budget_propagations;  ///< the deterministic "timeout"
  Instance (*make)(std::size_t i, std::mt19937_64& rng);
};

// select_easy: the EDA families. Parity and adder miters alternate, and
// within each family the injected bug alternates, so half the answers are
// SAT and half UNSAT, each fixed by construction. Sizes step through each
// family's range, so every seed gets the same sizes and the seed picks only
// the instances' structure. Solving is cheaper than inference, so parse,
// graph and inference dominate op time.
Instance make_easy(std::size_t i, std::mt19937_64& rng) {
  const std::size_t j = i / 2;  // index within the family
  const bool bug = j % 2 == 1;
  const std::uint64_t seed = rng();
  Instance in;
  if (i % 2 == 0) {
    const std::size_t width = 20 + (j / 2) % 12;
    in.name = "parity_w" + std::to_string(width);
    in.formula = ns::gen::parity_equivalence(width, bug, seed);
  } else {
    const std::size_t bits = 8 + (j / 2) % 6;
    in.name = "adder_b" + std::to_string(bits);
    in.formula = ns::gen::scramble(
        ns::gen::adder_equivalence(bits, bug, seed), seed);
  }
  in.name += bug ? "_bug" : "_eq";
  in.expect = bug ? Expect::kSat : Expect::kUnsat;
  return in;
}

// select_hard: pigeonhole (UNSAT by construction) and near-threshold
// random 3-SAT (status unknown) under a propagation budget, so the solver
// dominates op time and some instances time out, as in the paper's Table 3.
Instance make_hard(std::size_t i, std::mt19937_64& rng) {
  const std::uint64_t seed = rng();
  Instance in;
  if (i % 2 == 0) {
    const std::size_t holes = 7;
    in.name = "pigeonhole_h" + std::to_string(holes);
    in.formula = ns::gen::scramble(ns::gen::pigeonhole(holes + 1, holes), seed);
    in.expect = Expect::kUnsat;
  } else {
    const std::size_t n = 180;
    in.name = "random3sat_xl_n" + std::to_string(n);
    in.formula = ns::gen::random_ksat(n, static_cast<std::size_t>(4.26 * n),
                                      3, seed);
    in.expect = Expect::kUnknown;
  }
  return in;
}

class SelectWorkload final : public Workload {
 public:
  explicit SelectWorkload(SelectSpec spec) : spec_(spec) {}

  void setup(std::uint64_t seed) override {
    std::mt19937_64 rng(seed);
    instances_.clear();
    for (std::size_t i = 0; i < spec_.instances; ++i) {
      Instance in = spec_.make(i, rng);
      in.name = std::to_string(i) + "/" + in.name;
      in.dimacs = ns::to_dimacs_string(in.formula);
      instances_.push_back(std::move(in));
    }
    pending_unsat_.assign(instances_.size(), -1);
    // The paper configuration with its default weight seed: --seed varies
    // the instances only. (An untrained model picks nearly the same policy
    // for every instance, so weights seeded by --seed would switch the
    // whole pass between policies from one seed to the next.)
    const ns::nn::NeuroSelectConfig config;
    model_ = std::make_unique<ns::nn::NeuroSelectModel>(config);
    // Warm-up, untraced, so lazy allocations are paid here: the first
    // kWarmupOps instances of the first family (pigeonhole on select_hard,
    // whose solves vary less with the seed than random 3-SAT near the
    // threshold), so set-up time does not hang on one instance.
    Tracer off;
    for (std::size_t k = 0; k < 2 * kWarmupOps; k += 2) run_op(k, off);
  }

  std::size_t pass_ops() const override { return instances_.size(); }

  OpOutcome run_op(std::size_t k, Tracer& tr) override {
    const std::size_t idx = k % instances_.size();
    const Instance& in = instances_[idx];
    OpOutcome out;

    ns::ParseResult parsed;
    {
      auto span = tr.span("cnf.parse");
      parsed = ns::parse_dimacs_string(in.dimacs);
      span.count("bytes", static_cast<double>(in.dimacs.size()));
    }
    if (!parsed.ok) {
      out.errors.push_back(in.name + ": parse failed: " + parsed.error);
      return out;
    }
    const ns::CnfFormula& f = parsed.formula;

    ns::nn::GraphBatch graph;
    {
      auto span = tr.span("nn.graph_build");
      graph = ns::nn::GraphBatch::build(f);
      span.count("nodes",
                 static_cast<double>(graph.vc.num_vars + graph.vc.num_clauses));
      span.count("edges", static_cast<double>(graph.vc.svc.nnz()));
    }
    float p = 0.0f;
    {
      std::unique_ptr<ns::nn::InferenceSession> session;
      {
        auto span = tr.span("nn.record");
        session = std::make_unique<ns::nn::InferenceSession>(*model_, graph);
      }
      auto span = tr.span("nn.infer", /*measure_cpu=*/true);
      p = session->predict_probability();
    }
    ns::policy::PolicyKind kind = ns::policy::PolicyKind::kDefault;
    {
      auto span = tr.span("policy.select");
      if (ns::core::binary_selection(p).primary == 1) {
        kind = ns::policy::PolicyKind::kFrequency;
      }
      span.count("frequency", kind == ns::policy::PolicyKind::kFrequency);
    }
    ns::solver::SolveOutcome solved;
    {
      auto span = tr.span("solver.solve");
      solved = ns::solver::solve_formula(f, solver_options(kind, 1));
      count_stats(span, solved.stats);
    }
    {
      auto span = tr.span("cnf.verify");
      out.errors = check_answer(in, f, solved);
    }
    if (solved.result == SatResult::kUnsat && in.expect == Expect::kUnknown) {
      pending_unsat_[idx] = static_cast<int>(kind);
    }

    out.answers = 1;
    out.decided = solved.result != SatResult::kUnknown;
    out.selections = 1;
    out.frequency = kind == ns::policy::PolicyKind::kFrequency;
    out.stats = solved.stats;
    std::uint32_t p_bits = 0;
    static_assert(sizeof(p_bits) == sizeof(p));
    std::memcpy(&p_bits, &p, sizeof(p));
    out.digest = mix_stats(
        mix(mix(mix(idx, p_bits), static_cast<std::uint64_t>(kind)),
            static_cast<std::uint64_t>(solved.result)),
        solved.stats);
    return out;
  }

  std::vector<std::string> verify_offline(
      std::vector<std::string>& notes) override {
    std::vector<std::string> errors;
    std::size_t checked = 0;
    std::size_t confirmed = 0;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      if (pending_unsat_[i] < 0) continue;
      ++checked;
      const auto kind = static_cast<ns::policy::PolicyKind>(pending_unsat_[i]);
      const CrossCheck c = cross_check_unsat(instances_[i], kind);
      if (!c.error.empty()) errors.push_back(c.error);
      confirmed += c.confirmed;
    }
    notes.push_back("UNSAT answers of unknown-status instances cross-checked "
                    "with the other policy: " + std::to_string(checked) +
                    ", confirmed UNSAT: " + std::to_string(confirmed) +
                    ", other policy undecided: " +
                    std::to_string(checked - confirmed - errors.size()));
    return errors;
  }

  std::vector<std::string> self_test() override {
    std::vector<std::string> missed;
    std::mt19937_64 rng(7);
    Instance in;
    in.name = "self_test_parity_bug";
    in.formula = ns::gen::parity_equivalence(12, /*inject_bug=*/true, rng());
    in.expect = Expect::kSat;
    const ns::solver::SolveOutcome real = ns::solver::solve_formula(
        in.formula, solver_options(ns::policy::PolicyKind::kDefault, 1));
    if (real.result != SatResult::kSat ||
        !check_answer(in, in.formula, real).empty()) {
      missed.push_back("self-test instance did not solve to a checked SAT");
      return missed;
    }
    ns::solver::SolveOutcome flipped = real;
    flipped.model = falsify(in.formula, real.model);
    if (check_answer(in, in.formula, flipped).empty()) {
      missed.push_back("a model with flipped bits passed the model check");
    }
    ns::solver::SolveOutcome false_unsat;
    false_unsat.result = SatResult::kUnsat;
    if (check_answer(in, in.formula, false_unsat).empty()) {
      missed.push_back("a false UNSAT on a known-SAT instance passed");
    }
    in.expect = Expect::kUnknown;
    in.dimacs = ns::to_dimacs_string(in.formula);
    if (cross_check_unsat(in, ns::policy::PolicyKind::kDefault).error.empty()) {
      missed.push_back("a false UNSAT on an unknown-status instance passed "
                       "the cross-policy check");
    }
    return missed;
  }

 private:
  struct CrossCheck {
    std::string error;
    bool confirmed = false;
  };

  ns::solver::SolverOptions solver_options(ns::policy::PolicyKind kind,
                                           std::uint64_t budget_scale) const {
    ns::solver::SolverOptions o;
    o.deletion_policy = kind;
    o.max_propagations = spec_.budget_propagations * budget_scale;
    return o;
  }

  /// Checks one answer against the parsed formula and the family's status.
  static std::vector<std::string> check_answer(
      const Instance& in, const ns::CnfFormula& f,
      const ns::solver::SolveOutcome& solved) {
    std::vector<std::string> errors;
    const std::string status = check_expected(solved.result, in.expect);
    if (!status.empty()) errors.push_back(in.name + ": " + status);
    if (solved.result == SatResult::kSat) {
      const std::string bad = check_model(f, solved.model);
      if (!bad.empty()) errors.push_back(in.name + ": " + bad);
    }
    return errors;
  }

  /// Re-solves an instance answered UNSAT under `kind` with the other
  /// policy and twice the budget; a verified model from it refutes the
  /// UNSAT answer.
  CrossCheck cross_check_unsat(const Instance& in,
                               ns::policy::PolicyKind kind) const {
    const ns::policy::PolicyKind other =
        kind == ns::policy::PolicyKind::kDefault
            ? ns::policy::PolicyKind::kFrequency
            : ns::policy::PolicyKind::kDefault;
    const ns::solver::SolveOutcome o =
        ns::solver::solve_formula(in.formula, solver_options(other, 2));
    CrossCheck c;
    if (o.result == SatResult::kSat) {
      c.error = check_model(in.formula, o.model).empty()
                    ? in.name + ": UNSAT answer refuted by a checked model"
                    : in.name + ": cross-check policy returned a bad model";
    }
    c.confirmed = o.result == SatResult::kUnsat;
    return c;
  }

  SelectSpec spec_;
  std::vector<Instance> instances_;
  std::unique_ptr<ns::nn::NeuroSelectModel> model_;
  /// Per instance: the policy (as int) whose UNSAT answer awaits the
  /// cross-policy check; -1 when none does.
  std::vector<int> pending_unsat_;
};

}  // namespace

// Both mixes divide evenly into their families (and select_easy's into its
// sizes), and a pass of either has the ops the p90 needs.
std::unique_ptr<Workload> make_select_easy() {
  return std::make_unique<SelectWorkload>(SelectSpec{192, 2'000'000, &make_easy});
}

std::unique_ptr<Workload> make_select_hard() {
  return std::make_unique<SelectWorkload>(SelectSpec{120, 300'000, &make_hard});
}

}  // namespace e2e
