#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cnf/dimacs.hpp"
#include "cnf/formula.hpp"
#include "cnf/types.hpp"

namespace ns {
namespace {

// --- Lit -----------------------------------------------------------------

TEST(LitTest, EncodingRoundTrips) {
  const Lit a(3, false);
  EXPECT_EQ(a.var(), 3u);
  EXPECT_FALSE(a.negated());
  EXPECT_EQ(a.code(), 6u);

  const Lit b(3, true);
  EXPECT_EQ(b.var(), 3u);
  EXPECT_TRUE(b.negated());
  EXPECT_EQ(b.code(), 7u);
}

TEST(LitTest, NegationIsInvolution) {
  for (Var v = 0; v < 10; ++v) {
    for (bool neg : {false, true}) {
      const Lit l(v, neg);
      EXPECT_EQ(~~l, l);
      EXPECT_NE(~l, l);
      EXPECT_EQ((~l).var(), l.var());
      EXPECT_EQ((~l).negated(), !l.negated());
    }
  }
}

TEST(LitTest, DimacsConversion) {
  EXPECT_EQ(Lit::from_dimacs(1), Lit(0, false));
  EXPECT_EQ(Lit::from_dimacs(-1), Lit(0, true));
  EXPECT_EQ(Lit::from_dimacs(5), Lit(4, false));
  EXPECT_EQ(Lit::from_dimacs(-7).to_dimacs(), -7);
  EXPECT_EQ(Lit::from_dimacs(42).to_dimacs(), 42);
}

TEST(LitTest, UndefIsDistinct) {
  EXPECT_FALSE(Lit::undef().is_defined());
  EXPECT_TRUE(Lit(0, false).is_defined());
  EXPECT_EQ(Lit::undef().to_string(), "<undef>");
}

TEST(LitTest, OrderingFollowsCode) {
  EXPECT_LT(Lit(0, false), Lit(0, true));
  EXPECT_LT(Lit(0, true), Lit(1, false));
}

TEST(LBoolTest, NegateTernary) {
  EXPECT_EQ(negate(LBool::kTrue), LBool::kFalse);
  EXPECT_EQ(negate(LBool::kFalse), LBool::kTrue);
  EXPECT_EQ(negate(LBool::kUndef), LBool::kUndef);
}

// --- CnfFormula ----------------------------------------------------------

TEST(FormulaTest, AddClauseRegistersVariables) {
  CnfFormula f;
  f.add_clause({Lit(4, false), Lit(2, true)});
  EXPECT_EQ(f.num_vars(), 5u);
  EXPECT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.num_literals(), 2u);
}

TEST(FormulaTest, DuplicateLiteralsRemoved) {
  CnfFormula f(3);
  f.add_clause({Lit(0, false), Lit(0, false), Lit(1, true)});
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 2u);
}

TEST(FormulaTest, TautologyDropped) {
  CnfFormula f(2);
  EXPECT_FALSE(f.add_clause({Lit(0, false), Lit(0, true)}));
  EXPECT_EQ(f.num_clauses(), 0u);
}

TEST(FormulaTest, EmptyClauseMarksUnsat) {
  CnfFormula f(1);
  EXPECT_FALSE(f.has_empty_clause());
  f.add_clause({});
  EXPECT_TRUE(f.has_empty_clause());
}

TEST(FormulaTest, SatisfiedByEvaluatesCorrectly) {
  // (x0 ∨ x1) ∧ (~x1 ∨ x2)
  CnfFormula f(3);
  f.add_clause({Lit(0, false), Lit(1, false)});
  f.add_clause({Lit(1, true), Lit(2, false)});
  EXPECT_TRUE(f.satisfied_by({true, false, false}));
  EXPECT_TRUE(f.satisfied_by({false, true, true}));
  EXPECT_FALSE(f.satisfied_by({false, true, false}));
  EXPECT_FALSE(f.satisfied_by({false, false, false}));
}

TEST(FormulaTest, NewVarGrowsUniverse) {
  CnfFormula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(f.num_vars(), 2u);
}

TEST(FormulaTest, SummaryMentionsCounts) {
  CnfFormula f(2);
  f.add_clause({Lit(0, false), Lit(1, false)});
  EXPECT_NE(f.summary().find("vars=2"), std::string::npos);
  EXPECT_NE(f.summary().find("clauses=1"), std::string::npos);
}

// --- DIMACS --------------------------------------------------------------

TEST(DimacsTest, ParsesSimpleFormula) {
  const std::string text =
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n";
  const ParseResult r = parse_dimacs_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.formula.num_vars(), 3u);
  EXPECT_EQ(r.formula.num_clauses(), 2u);
}

TEST(DimacsTest, ClausesMaySpanLines) {
  const std::string text = "p cnf 4 1\n1 2\n3 4 0\n";
  const ParseResult r = parse_dimacs_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.formula.num_clauses(), 1u);
  EXPECT_EQ(r.formula.clause(0).size(), 4u);
}

TEST(DimacsTest, ToleratesMissingTrailingZero) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\n1 2\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.formula.num_clauses(), 1u);
}

TEST(DimacsTest, RejectsMissingHeader) {
  const ParseResult r = parse_dimacs_string("1 2 0\n");
  EXPECT_FALSE(r.ok);
}

TEST(DimacsTest, RejectsDuplicateHeader) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\np cnf 2 1\n1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.line, 2u);
}

TEST(DimacsTest, RejectsOutOfRangeLiteral) {
  EXPECT_FALSE(parse_dimacs_string("p cnf 2 1\n3 0\n").ok);
  // INT_MIN has no int negation; its magnitude must still compare safely.
  EXPECT_FALSE(parse_dimacs_string("p cnf 2 1\n-2147483648 0\n").ok);
}

TEST(DimacsTest, RejectsVariableCountBeyondInt32) {
  const ParseResult r = parse_dimacs_string("p cnf 3000000000 1\n1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.line, 1u);
}

TEST(DimacsTest, RejectsGarbageToken) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\n1 x 0\n");
  EXPECT_FALSE(r.ok);
}

TEST(DimacsTest, WriteParseRoundTrip) {
  CnfFormula f(4);
  f.add_clause({Lit(0, false), Lit(3, true)});
  f.add_clause({Lit(1, false), Lit(2, false), Lit(3, false)});
  const std::string text = to_dimacs_string(f);
  const ParseResult r = parse_dimacs_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.formula.num_clauses(), f.num_clauses());
  for (std::size_t i = 0; i < f.num_clauses(); ++i) {
    EXPECT_EQ(r.formula.clause(i), f.clause(i));
  }
}

TEST(DimacsTest, AcceptsCrlfTabsPlusSignAndMinusZeroTerminator) {
  const ParseResult r = parse_dimacs_string(
      "c crlf input\r\np cnf 3 2\r\n1\t-2 +3\r\n-0\r\n\t2 3 0\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.formula.num_clauses(), 2u);
  EXPECT_EQ(r.formula.clause(0),
            (Clause{Lit::from_dimacs(1), Lit::from_dimacs(-2),
                    Lit::from_dimacs(3)}));
  EXPECT_EQ(r.formula.clause(1),
            (Clause{Lit::from_dimacs(2), Lit::from_dimacs(3)}));
}

TEST(DimacsTest, CommentBetweenClauseLinesAndNoFinalNewline) {
  const ParseResult r =
      parse_dimacs_string("p cnf 3 2\n1 -2\nc inside a clause\n3 0\n-1 2 0");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.formula.num_clauses(), 2u);
  EXPECT_EQ(r.formula.clause(0).size(), 3u);
  EXPECT_EQ(r.formula.clause(1),
            (Clause{Lit::from_dimacs(-1), Lit::from_dimacs(2)}));
}

TEST(DimacsTest, RejectsLiteralBeyondInt32) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\n2147483648 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.line, 2u);
  EXPECT_EQ(r.error, "unexpected token in clause");
}

TEST(DimacsTest, RejectsUnreadableTokenAtEndOfLine) {
  // A bare sign or an out-of-range literal is a bad token wherever it sits,
  // the end of a line included: it is reported, never dropped.
  for (const char* text : {"p cnf 2 1\n1 2147483648\n2 0\n",
                           "p cnf 2 1\n1 -\n2 0\n", "p cnf 2 1\n1 +"}) {
    const ParseResult r = parse_dimacs_string(text);
    EXPECT_FALSE(r.ok) << text;
    EXPECT_EQ(r.line, 2u) << text;
    EXPECT_EQ(r.error, "unexpected token in clause") << text;
  }
}

TEST(DimacsTest, ErrorLinesCountCommentAndBlankLines) {
  const ParseResult lit =
      parse_dimacs_string("c one\nc two\np cnf 2 1\nc three\n\n1 3 0\n");
  EXPECT_FALSE(lit.ok);
  EXPECT_EQ(lit.line, 6u);
  EXPECT_EQ(lit.error, "literal 3 exceeds declared variable count");

  const ParseResult header = parse_dimacs_string("c x\n\np cnf 2\n1 0\n");
  EXPECT_FALSE(header.ok);
  EXPECT_EQ(header.line, 3u);
  EXPECT_EQ(header.error, "malformed 'p cnf' header");

  const ParseResult before = parse_dimacs_string("c x\n1 2 0\np cnf 2 1\n");
  EXPECT_FALSE(before.ok);
  EXPECT_EQ(before.line, 2u);
  EXPECT_EQ(before.error, "clause before 'p cnf' header");

  const ParseResult token = parse_dimacs_string("p cnf 2 1\nc y\n1 x 0\n");
  EXPECT_FALSE(token.ok);
  EXPECT_EQ(token.line, 3u);
  EXPECT_EQ(token.error, "unexpected token in clause");
}

TEST(DimacsTest, StringStreamAndFileEntryPointsAgree) {
  const std::string text =
      "c fixture\np cnf 5 3\n1 -2 0\n3 4\n-5 0\r\n  2 5 -1 0\n";
  const std::string path = ::testing::TempDir() + "dimacs_entry_points.cnf";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::istringstream in(text);
  const ParseResult from_string = parse_dimacs_string(text);
  const ParseResult from_stream = parse_dimacs(in);
  const ParseResult from_file = parse_dimacs_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_string.ok) << from_string.error;
  for (const ParseResult* r : {&from_stream, &from_file}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->formula.num_vars(), from_string.formula.num_vars());
    ASSERT_EQ(r->formula.num_clauses(), from_string.formula.num_clauses());
    for (std::size_t i = 0; i < r->formula.num_clauses(); ++i) {
      EXPECT_EQ(r->formula.clause(i), from_string.formula.clause(i));
    }
  }
  EXPECT_EQ(from_string.formula.num_clauses(), 3u);

  std::istringstream bad_in("p cnf 2 1\nc\n1 -3 0\n");
  const ParseResult bad_string = parse_dimacs_string("p cnf 2 1\nc\n1 -3 0\n");
  const ParseResult bad_stream = parse_dimacs(bad_in);
  EXPECT_FALSE(bad_string.ok);
  EXPECT_FALSE(bad_stream.ok);
  EXPECT_EQ(bad_string.line, 3u);
  EXPECT_EQ(bad_stream.line, bad_string.line);
  EXPECT_EQ(bad_stream.error, bad_string.error);
}

TEST(DimacsTest, MissingFileReportsError) {
  const ParseResult r = parse_dimacs_file("/nonexistent/path.cnf");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace ns
