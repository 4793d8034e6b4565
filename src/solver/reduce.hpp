#pragma once
/// \file reduce.hpp
/// The clause-database reduction subsystem: owns the pluggable
/// `policy::DeletionPolicy` (the paper's contribution point) and the reduce
/// schedule — scoring learned clauses, then detaching the worst fraction
/// from the watch lists and marking them garbage. The solver compacts the
/// arena later, once `ClauseDb::check_garbage()` fires.

#include <cstdint>
#include <memory>

#include "policy/deletion_policy.hpp"
#include "solver/context.hpp"
#include "solver/propagate.hpp"

namespace ns::solver {

class ReduceScheduler {
 public:
  explicit ReduceScheduler(SearchContext& ctx) : ctx_(ctx) {}

  /// Re-initializes the schedule (solver reload). The policy is created on
  /// first use and persists across reloads, matching the old engine.
  void reset();

  bool should_reduce() const {
    return ctx_.stats.conflicts >= next_reduce_conflicts_;
  }

  /// Runs one reduction pass; `propagator` drops the watches of every
  /// deleted clause.
  void reduce(Propagator& propagator);

 private:
  SearchContext& ctx_;
  std::unique_ptr<policy::DeletionPolicy> policy_;
  std::uint64_t next_reduce_conflicts_ = 0;
};

}  // namespace ns::solver
