#include "cnf/dimacs.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace ns {
namespace {

ParseResult fail(std::size_t line, std::string message) {
  ParseResult r;
  r.ok = false;
  r.line = line;
  r.error = std::move(message);
  return r;
}

/// The C locale's isspace without the locale lookup: ' ', \t \n \v \f \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_digit(char c) { return c >= '0' && c <= '9'; }

const char* skip_space(const char* p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  return p;
}

/// Reads an optionally signed decimal at `p` (after leading whitespace),
/// as `std::istream >>` reads an integer: the number ends at the first
/// non-digit, and no separator has to follow it. Returns false, with `p`
/// unspecified, when there is no digit or the magnitude exceeds `max_mag`.
bool scan_number(const char*& p, const char* end, std::uint64_t max_mag,
                 bool& negative, std::uint64_t& magnitude) {
  p = skip_space(p, end);
  negative = false;
  if (p != end && (*p == '+' || *p == '-')) negative = *p++ == '-';
  if (p == end || !is_digit(*p)) return false;
  magnitude = 0;
  bool overflow = false;
  for (; p != end && is_digit(*p); ++p) {
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    overflow = overflow || magnitude > (max_mag - digit) / 10;
    if (!overflow) magnitude = magnitude * 10 + digit;
  }
  return !overflow;
}

/// A header count, read like `std::istream >> std::size_t`: a leading minus
/// wraps modulo 2^64, as strtoull does.
bool scan_count(const char*& p, const char* end, std::size_t& out) {
  bool negative = false;
  std::uint64_t magnitude = 0;
  if (!scan_number(p, end, UINT64_MAX, negative, magnitude)) return false;
  out = static_cast<std::size_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

/// One whitespace-delimited token starting at `p` (no leading skip).
std::string_view scan_token(const char*& p, const char* end) {
  const char* start = p;
  while (p != end && !is_space(*p)) ++p;
  return {start, static_cast<std::size_t>(p - start)};
}

std::string read_all(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

/// The one DIMACS reader: a single scan over the whole input. Lines end at
/// '\n' (a '\r' before it is whitespace); 'c' lines and empty lines are
/// skipped; a 'p' line is the header; every other line holds literals.
ParseResult parse_dimacs_text(std::string_view text) {
  CnfFormula formula;
  bool saw_header = false;
  std::size_t declared_vars = 0;
  std::vector<int> pending;  // literals of the clause under construction

  const char* next = text.data();
  const char* const end = next + text.size();
  std::size_t line_no = 0;
  while (next != end) {
    const char* p = next;
    const char* eol = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (eol == nullptr) eol = end;
    next = eol == end ? end : eol + 1;
    ++line_no;
    if (p == eol || *p == 'c') continue;
    if (*p == 'p') {
      if (saw_header) return fail(line_no, "duplicate 'p' header");
      scan_token(p, eol);  // "p"
      p = skip_space(p, eol);
      std::size_t declared_clauses = 0;
      if (scan_token(p, eol) != "cnf" ||
          !scan_count(p, eol, declared_vars) ||
          !scan_count(p, eol, declared_clauses)) {
        return fail(line_no, "malformed 'p cnf' header");
      }
      // No DIMACS literal (an int) can name a variable beyond INT32_MAX, so
      // a larger count is malformed, not merely big.
      if (declared_vars > static_cast<std::size_t>(INT32_MAX)) {
        return fail(line_no, "declared variable count " +
                                 std::to_string(declared_vars) +
                                 " exceeds INT32_MAX");
      }
      saw_header = true;
      formula = CnfFormula(declared_vars);
      continue;
    }
    if (!saw_header) return fail(line_no, "clause before 'p cnf' header");
    while ((p = skip_space(p, eol)) != eol) {
      bool negative = false;
      std::uint64_t magnitude = 0;
      // int range: up to INT32_MAX, or its magnitude plus one when negative.
      if (!scan_number(p, eol, std::uint64_t{INT32_MAX} + 1, negative,
                       magnitude) ||
          (!negative && magnitude > INT32_MAX)) {
        return fail(line_no, "unexpected token in clause");
      }
      if (magnitude == 0) {
        formula.add_clause_dimacs(pending);
        pending.clear();
        continue;
      }
      const auto wide = static_cast<std::int64_t>(magnitude);
      const int lit = static_cast<int>(negative ? -wide : wide);
      if (magnitude > declared_vars) {
        return fail(line_no, "literal " + std::to_string(lit) +
                                 " exceeds declared variable count");
      }
      pending.push_back(lit);
    }
  }
  if (!saw_header) return fail(0, "missing 'p cnf' header");
  if (!pending.empty()) {
    formula.add_clause_dimacs(pending);  // tolerate a missing trailing 0
  }

  ParseResult result;
  result.ok = true;
  result.formula = std::move(formula);
  return result;
}

}  // namespace

ParseResult parse_dimacs(std::istream& in) {
  return parse_dimacs_text(read_all(in));
}

ParseResult parse_dimacs_string(const std::string& text) {
  return parse_dimacs_text(text);
}

ParseResult parse_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail(0, "cannot open file: " + path);
  return parse_dimacs(in);
}

void write_dimacs(const CnfFormula& f, std::ostream& out) {
  out << "p cnf " << f.num_vars() << ' ' << f.num_clauses() << '\n';
  for (const Clause& c : f.clauses()) {
    for (Lit l : c) out << l.to_dimacs() << ' ';
    out << "0\n";
  }
}

std::string to_dimacs_string(const CnfFormula& f) {
  std::ostringstream os;
  write_dimacs(f, os);
  return os.str();
}

}  // namespace ns
