/// \file checks.cpp
/// Answer checks shared by the workloads.

#include <string>

#include "workloads.hpp"

namespace e2e {

std::string check_model(const ns::CnfFormula& f, const ns::Model& model) {
  if (model.size() < f.num_vars()) return "model shorter than the formula";
  if (f.satisfied_by(model)) return {};
  for (std::size_t i = 0; i < f.num_clauses(); ++i) {
    if (!ns::CnfFormula::clause_satisfied_by(f.clause(i), model)) {
      return "model falsifies clause " + std::to_string(i);
    }
  }
  return "model falsifies the formula";
}

std::string check_expected(ns::solver::SatResult result, Expect expect) {
  using ns::solver::SatResult;
  if (result == SatResult::kSat && expect == Expect::kUnsat) {
    return "SAT answer on an instance that is UNSAT by construction";
  }
  if (result == SatResult::kUnsat && expect == Expect::kSat) {
    return "UNSAT answer on an instance that is SAT by construction";
  }
  return {};
}

ns::Model falsify(const ns::CnfFormula& f, ns::Model model) {
  for (const ns::Clause& c : f.clauses()) {
    if (c.empty()) continue;
    for (ns::Lit l : c) model[l.var()] = l.negated();
    break;
  }
  return model;
}

}  // namespace e2e
