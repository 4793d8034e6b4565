/// \file label_batch.cpp
/// label_batch: the offline data pipeline. One op takes a fixed-size batch
/// of DIMACS texts drawn from the six-family competition-style split,
/// parses them, labels them with `core::label_dataset` (one solve per
/// deletion policy per instance) and scores the labelled graphs with
/// `core::classify_batch`. It is the only workload where runtime
/// scheduling, the static-chunk straggler and batched inference matter, so
/// its traced run uses a pool of two threads and the per-layer core.* and
/// runtime.* metrics describe that pool. Its timed runs use one thread: on
/// a shared VM the hypervisor steals 8-16% of the CPU while two threads are
/// busy, which moves two-thread wall-clock by a fifth from run to run
/// (CPU time per op stays within 4%). Every run re-runs batches at the
/// other thread counts, 2 and 4 included, for the determinism check.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "cnf/dimacs.hpp"
#include "core/labeling.hpp"
#include "core/neuroselect.hpp"
#include "gen/dataset.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/solver.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using ns::solver::SatResult;

constexpr std::size_t kBatch = 6;         // one instance of each family
constexpr std::size_t kBatches = 120;     // distinct batches per seed
constexpr std::size_t kCheckBatches = 4;  // re-run at other thread counts
constexpr std::size_t kTimedThreads = 1;
constexpr std::size_t kTracedThreads = 2;
constexpr int kYear = 2022;               // the test-year split

struct Instance {
  std::string name;
  std::string family;
  std::string dimacs;
  ns::CnfFormula formula;  ///< as generated; the ops check the parsed copy
  Expect expect = Expect::kUnknown;
};

/// Answers recorded the first time an instance is labelled; the offline
/// check re-solves against them.
struct Recorded {
  bool seen = false;
  SatResult result[2] = {SatResult::kUnknown, SatResult::kUnknown};
  std::uint64_t propagations[2] = {0, 0};
};

constexpr ns::policy::PolicyKind kPolicies[2] = {
    ns::policy::PolicyKind::kDefault, ns::policy::PolicyKind::kFrequency};

/// What `gen::generate_split` fixes about each family's answer: instance i
/// has family i % 6, and the miter families inject a bug on odd indices
/// (which the parity and adder slots, 3 and 5, always are).
Expect expected_status(const std::string& family) {
  if (family == "pigeonhole") return Expect::kUnsat;
  if (family == "parity" || family == "miter") return Expect::kSat;
  return Expect::kUnknown;
}

class LabelBatchWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    std::vector<ns::gen::NamedInstance> split =
        ns::gen::generate_split(kYear, kBatch * kBatches, seed);
    instances_.clear();
    for (ns::gen::NamedInstance& g : split) {
      Instance in;
      in.name = g.name;
      in.family = g.family;
      in.expect = expected_status(g.family);
      in.dimacs = ns::to_dimacs_string(g.formula);
      in.formula = std::move(g.formula);
      instances_.push_back(std::move(in));
    }
    recorded_.assign(instances_.size(), Recorded{});
    first_probs_.clear();
    options_ = ns::core::LabelingOptions{};
    options_.max_propagations = 15'000;
    // The paper configuration with its default weight seed: --seed varies
    // the instances only. (An untrained model picks nearly the same policy
    // for every instance, so weights seeded by --seed would switch the
    // whole pass between policies from one seed to the next.)
    const ns::nn::NeuroSelectConfig config;
    model_ = std::make_unique<ns::nn::NeuroSelectModel>(config);
    Tracer off;
    run_op(0, off);  // warm-up
  }

  std::size_t pass_ops() const override { return kBatches; }
  std::size_t pool_threads(bool traced) const override {
    return traced ? kTracedThreads : kTimedThreads;
  }

  OpOutcome run_op(std::size_t k, Tracer& tr) override {
    const std::size_t b = k % kBatches;
    OpOutcome out;

    std::vector<ns::gen::NamedInstance> split(kBatch);
    {
      auto span = tr.span("cnf.parse");
      double bytes = 0.0;
      for (std::size_t j = 0; j < kBatch; ++j) {
        const Instance& in = instances_[b * kBatch + j];
        ns::ParseResult parsed = ns::parse_dimacs_string(in.dimacs);
        if (!parsed.ok) {
          out.errors.push_back(in.name + ": parse failed: " + parsed.error);
          return out;
        }
        split[j].name = in.name;
        split[j].family = in.family;
        split[j].formula = std::move(parsed.formula);
        bytes += static_cast<double>(in.dimacs.size());
      }
      span.count("bytes", bytes);
    }

    std::vector<ns::core::LabeledInstance> labeled;
    {
      auto span = tr.span("core.label_dataset", /*measure_cpu=*/true);
      labeled = ns::core::label_dataset(std::move(split), options_);
      std::uint64_t total = 0;
      std::uint64_t max_one = 0;
      for (const ns::core::LabeledInstance& l : labeled) {
        const std::uint64_t p = l.propagations_default + l.propagations_frequency;
        total += p;
        max_one = std::max(max_one, p);
      }
      out.straggler_share =
          total == 0 ? 0.0
                     : static_cast<double>(max_one) / static_cast<double>(total);
      out.stats.propagations = total;
      span.count("propagations", static_cast<double>(total));
      span.count("straggler_share", out.straggler_share);
    }

    std::vector<float> probs;
    {
      auto span = tr.span("core.classify_batch", /*measure_cpu=*/true);
      std::vector<const ns::nn::GraphBatch*> graphs;
      graphs.reserve(labeled.size());
      for (const ns::core::LabeledInstance& l : labeled) {
        graphs.push_back(&l.graph);
      }
      probs = ns::core::classify_batch(*model_, graphs);
    }

    {
      auto span = tr.span("cnf.verify");
      for (std::size_t j = 0; j < kBatch; ++j) {
        std::vector<std::string> e = check_labeled(
            instances_[b * kBatch + j], labeled[j],
            j < probs.size() ? probs[j] : NAN);
        out.errors.insert(out.errors.end(), e.begin(), e.end());
      }
    }

    std::uint64_t h = b;
    for (std::size_t j = 0; j < labeled.size(); ++j) {
      const ns::core::LabeledInstance& l = labeled[j];
      Recorded& r = recorded_[b * kBatch + j];
      if (!r.seen) {
        r = Recorded{true,
                     {l.result_default, l.result_frequency},
                     {l.propagations_default, l.propagations_frequency}};
      }
      out.answers += 2;
      out.decided += (l.result_default != SatResult::kUnknown) +
                     (l.result_frequency != SatResult::kUnknown);
      std::uint32_t p_bits = 0;
      if (j < probs.size()) std::memcpy(&p_bits, &probs[j], sizeof(p_bits));
      for (std::uint64_t v :
           {static_cast<std::uint64_t>(l.result_default),
            static_cast<std::uint64_t>(l.result_frequency),
            l.propagations_default, l.propagations_frequency,
            static_cast<std::uint64_t>(l.label),
            static_cast<std::uint64_t>(p_bits)}) {
        h = mix(h, v);
      }
    }
    out.digest = h;
    if (b == 0 && first_probs_.empty()) first_probs_ = probs;
    return out;
  }

  std::vector<std::string> verify_offline(
      std::vector<std::string>& notes) override {
    // Every SAT answer is re-derived with the labelling run's exact options:
    // the re-solve must repeat the answer and propagation count, and its
    // model must satisfy the generated formula.
    std::vector<std::vector<std::string>> per(instances_.size());
    std::vector<int> models(instances_.size(), 0);
    ns::runtime::parallel_for(instances_.size(), [&](std::size_t lo,
                                                     std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (!recorded_[i].seen) continue;
        for (int p = 0; p < 2; ++p) {
          if (recorded_[i].result[p] != SatResult::kSat) continue;
          std::vector<std::string> e =
              resolve_and_check(instances_[i], recorded_[i], p);
          per[i].insert(per[i].end(), e.begin(), e.end());
          ++models[i];
        }
      }
    });
    std::vector<std::string> errors;
    std::size_t checked = 0;
    std::size_t unconfirmed = 0;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      errors.insert(errors.end(), per[i].begin(), per[i].end());
      checked += static_cast<std::size_t>(models[i]);
      const Recorded& r = recorded_[i];
      for (int p = 0; p < 2; ++p) {
        if (r.seen && r.result[p] == SatResult::kUnsat &&
            instances_[i].expect == Expect::kUnknown &&
            r.result[1 - p] != SatResult::kUnsat) {
          ++unconfirmed;
        }
      }
    }
    // Batched inference must be bitwise equal to per-graph inference.
    for (std::size_t j = 0; j < first_probs_.size(); ++j) {
      const ns::nn::GraphBatch g =
          ns::nn::GraphBatch::build(instances_[j].formula);
      const float single = model_->predict_probability(g);
      if (std::memcmp(&single, &first_probs_[j], sizeof(float)) != 0) {
        errors.push_back(instances_[j].name +
                         ": classify_batch differs from predict_probability");
      }
    }
    notes.push_back("SAT models re-solved and checked: " +
                    std::to_string(checked) +
                    "; unknown-status UNSAT answers the other policy did not "
                    "confirm: " + std::to_string(unconfirmed) +
                    "; batch-vs-single inference compared: " +
                    std::to_string(kBatch));
    return errors;
  }

  std::vector<std::string> check_determinism_extra(
      const std::vector<OpOutcome>& pass) override {
    std::vector<std::string> mismatches;
    const std::size_t threads = ns::runtime::global_pool().size();
    const std::size_t nproc =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    Tracer off;
    for (std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (t == threads || t > nproc) continue;
      ns::runtime::set_global_thread_count(t);
      for (std::size_t b = 0; b < kCheckBatches && b < pass.size(); ++b) {
        if (run_op(b, off).digest != pass[b].digest) {
          mismatches.push_back("batch " + std::to_string(b) + ": " +
                               std::to_string(t) + " threads differ from " +
                               std::to_string(threads));
        }
      }
    }
    ns::runtime::set_global_thread_count(threads);
    return mismatches;
  }

  std::vector<std::string> self_test() override {
    std::vector<std::string> missed;
    // A pigeonhole instance answered SAT by one policy and UNSAT by the
    // other: both the status check and the cross-policy check must fire.
    Instance php;
    php.name = "self_test_pigeonhole";
    php.family = "pigeonhole";
    php.expect = Expect::kUnsat;
    ns::core::LabeledInstance fake;
    fake.result_default = SatResult::kSat;
    fake.result_frequency = SatResult::kUnsat;
    if (check_labeled(php, fake, 0.5f).size() < 2) {
      missed.push_back("a contradictory labelling passed the checks");
    }
    if (check_labeled(php, fake, NAN).size() < 3) {
      missed.push_back("a NaN probability passed the checks");
    }
    // A recorded SAT answer whose re-solve disagrees must be flagged.
    if (!instances_.empty()) {
      Recorded wrong;
      wrong.seen = true;
      wrong.result[0] = SatResult::kSat;
      wrong.propagations[0] = 1;  // no real solve stops after one propagation
      if (resolve_and_check(instances_[0], wrong, 0).empty()) {
        missed.push_back("a SAT answer the re-solve does not repeat passed");
      }
    }
    ns::CnfFormula f(2);
    f.add_clause({ns::Lit(0, false), ns::Lit(1, false)});
    if (check_model(f, falsify(f, ns::Model{true, true})).empty()) {
      missed.push_back("a model with flipped bits passed the model check");
    }
    return missed;
  }

 private:
  static std::vector<std::string> check_labeled(
      const Instance& in, const ns::core::LabeledInstance& l, float prob) {
    std::vector<std::string> errors;
    for (SatResult r : {l.result_default, l.result_frequency}) {
      const std::string status = check_expected(r, in.expect);
      if (!status.empty()) errors.push_back(in.name + ": " + status);
    }
    const bool sat = l.result_default == SatResult::kSat ||
                     l.result_frequency == SatResult::kSat;
    const bool unsat = l.result_default == SatResult::kUnsat ||
                       l.result_frequency == SatResult::kUnsat;
    if (sat && unsat) {
      errors.push_back(in.name + ": the two policies disagree (SAT vs UNSAT)");
    }
    if (!(prob >= 0.0f && prob <= 1.0f)) {
      errors.push_back(in.name + ": classifier probability out of [0, 1]");
    }
    return errors;
  }

  std::vector<std::string> resolve_and_check(const Instance& in,
                                             const Recorded& r,
                                             int policy) const {
    ns::solver::SolverOptions o = options_.base_solver;
    o.max_propagations = options_.max_propagations;
    o.deletion_policy = kPolicies[policy];
    const ns::solver::SolveOutcome s = ns::solver::solve_formula(in.formula, o);
    std::vector<std::string> errors;
    if (s.result != r.result[policy] ||
        s.stats.propagations != r.propagations[policy]) {
      errors.push_back(in.name + ": re-solve does not repeat the labelled "
                       "answer and propagation count");
    }
    if (s.result == SatResult::kSat) {
      const std::string bad = check_model(in.formula, s.model);
      if (!bad.empty()) errors.push_back(in.name + ": " + bad);
    }
    return errors;
  }

  std::vector<Instance> instances_;
  std::vector<Recorded> recorded_;
  std::vector<float> first_probs_;  ///< batch 0's classify_batch result
  ns::core::LabelingOptions options_;
  std::unique_ptr<ns::nn::NeuroSelectModel> model_;
};

}  // namespace

std::unique_ptr<Workload> make_label_batch() {
  return std::make_unique<LabelBatchWorkload>();
}

}  // namespace e2e
