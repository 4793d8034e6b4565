#include <gtest/gtest.h>

#include <algorithm>

#include "gen/generators.hpp"
#include "solver/solver.hpp"

namespace ns::solver {
namespace {

bool contains(const std::vector<Lit>& v, Lit l) {
  return std::find(v.begin(), v.end(), l) != v.end();
}

TEST(AssumptionsTest, SatUnderCompatibleAssumptions) {
  // (x0 ∨ x1) with assumption x0.
  CnfFormula f(2);
  f.add_clause({Lit(0, false), Lit(1, false)});
  Solver s{SolverOptions{}};
  s.load(f);
  const Lit a[] = {Lit(0, false)};
  const SolveOutcome out = s.solve(a);
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_TRUE(out.model[0]);
}

TEST(AssumptionsTest, UnsatUnderContradictoryAssumptions) {
  // x0 -> x1, assumptions {x0, ~x1}.
  CnfFormula f(2);
  f.add_clause({Lit(0, true), Lit(1, false)});
  Solver s{SolverOptions{}};
  s.load(f);
  const Lit a[] = {Lit(0, false), Lit(1, true)};
  const SolveOutcome out = s.solve(a);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  // Both assumptions participate in the conflict.
  const auto& core = s.failed_assumptions();
  EXPECT_FALSE(core.empty());
  for (const Lit l : core) {
    EXPECT_TRUE(l == a[0] || l == a[1]) << l.to_string();
  }
}

TEST(AssumptionsTest, FailedCoreIsSubsetAndSufficient) {
  // Chain x0 -> x1 -> x2; assumptions {x5, x0, ~x2, x6} over 7 vars.
  CnfFormula f(7);
  f.add_clause({Lit(0, true), Lit(1, false)});
  f.add_clause({Lit(1, true), Lit(2, false)});
  Solver s{SolverOptions{}};
  s.load(f);
  const Lit a[] = {Lit(5, false), Lit(0, false), Lit(2, true), Lit(6, false)};
  const SolveOutcome out = s.solve(a);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  const std::vector<Lit> core = s.failed_assumptions();
  // Irrelevant assumptions x5, x6 must not be in the core.
  EXPECT_FALSE(contains(core, Lit(5, false)));
  EXPECT_FALSE(contains(core, Lit(6, false)));
  EXPECT_TRUE(contains(core, Lit(0, false)));
  EXPECT_TRUE(contains(core, Lit(2, true)));

  // The core alone must still be UNSAT.
  Solver s2{SolverOptions{}};
  s2.load(f);
  EXPECT_EQ(s2.solve(core).result, SatResult::kUnsat);
}

TEST(AssumptionsTest, GloballyUnsatFormulaGivesEmptyCore) {
  CnfFormula f = gen::pigeonhole(4, 3);
  Solver s{SolverOptions{}};
  s.load(f);
  const Lit a[] = {Lit(0, false)};
  const SolveOutcome out = s.solve(a);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  // The formula is UNSAT regardless; the core never needs the assumption —
  // either empty (root conflict) or it may mention the assumption if the
  // search path used it, but re-solving without assumptions is still UNSAT.
  EXPECT_EQ(s.solve().result, SatResult::kUnsat);
}

TEST(AssumptionsTest, IncrementalReuseAcrossCalls) {
  // A satisfiable colouring instance: probe different assumption sets on
  // one loaded solver, interleaving SAT and UNSAT calls.
  const CnfFormula f = gen::graph_coloring(8, 0.4, 3, 2);  // satisfiable
  Solver s{SolverOptions{}};
  s.load(f);

  const SolveOutcome free_run = s.solve();
  ASSERT_EQ(free_run.result, SatResult::kSat);

  // Vertex 0 gets exactly one colour in any model; forcing two colours on
  // vertex 0 simultaneously is UNSAT (at-most-one constraints).
  const Lit two_colors[] = {Lit(0, false), Lit(1, false)};
  EXPECT_EQ(s.solve(two_colors).result, SatResult::kUnsat);

  // Forcing just one specific colour stays SAT (symmetry).
  const Lit one_color[] = {Lit(1, false)};
  const SolveOutcome forced = s.solve(one_color);
  ASSERT_EQ(forced.result, SatResult::kSat);
  EXPECT_TRUE(forced.model[1]);
  EXPECT_TRUE(f.satisfied_by(forced.model));

  // And the solver still answers the free query correctly afterwards.
  EXPECT_EQ(s.solve().result, SatResult::kSat);
}

TEST(AssumptionsTest, AssumptionsAlreadyImpliedAreHarmless) {
  // Unit clause x0; assumption x0 is already true at the root.
  CnfFormula f(2);
  f.add_clause({Lit(0, false)});
  f.add_clause({Lit(0, true), Lit(1, false)});
  Solver s{SolverOptions{}};
  s.load(f);
  const Lit a[] = {Lit(0, false), Lit(1, false)};
  const SolveOutcome out = s.solve(a);
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_TRUE(out.model[0]);
  EXPECT_TRUE(out.model[1]);
}

TEST(AssumptionsTest, MiterDebuggingWorkflow) {
  // Realistic incremental use: fix a subset of miter inputs and ask whether
  // a discrepancy is still reachable (SAT) or excluded (UNSAT).
  const CnfFormula f = gen::adder_equivalence(3, /*inject_bug=*/true, 1);
  Solver s{SolverOptions{}};
  s.load(f);
  ASSERT_EQ(s.solve().result, SatResult::kSat);

  // Pin every primary input of the LHS copy to false: 0 + 0 has no carry
  // chain, so the injected carry bug cannot fire -> UNSAT under these
  // assumptions. Input variables are the Tseitin variables of signals
  // 2..2+2*bits of the first encoded circuit; with the encoding order used
  // by miter_cnf they are variables 2..7.
  std::vector<Lit> zeros;
  for (Var v = 2; v <= 7; ++v) zeros.push_back(Lit(v, true));
  EXPECT_EQ(s.solve(zeros).result, SatResult::kUnsat);
  EXPECT_FALSE(s.failed_assumptions().empty());
}

}  // namespace
}  // namespace ns::solver
