#pragma once
/// \file propagate.hpp
/// The propagation subsystem: two-watched-literal BCP with blocking
/// literals over a flat CSR watcher arena (see watch.hpp), with binary
/// clauses resolved inline from the watch entry — no clause-arena access
/// on the binary hot path.

#include "solver/context.hpp"
#include "solver/watch.hpp"

namespace ns::solver {

class Propagator {
 public:
  explicit Propagator(SearchContext& ctx) : ctx_(ctx) {}

  /// Re-initializes the watch lists for `num_vars` variables.
  void reset(std::size_t num_vars) { watches_.reset(2 * num_vars); }

  /// Adds a clause (size >= 2) to the watch lists.
  void attach(ClauseRef ref);

  /// Removes a clause from the two lists watching it, preserving the order
  /// of the remaining entries. Must be called while the clause's literals
  /// are still intact (i.e. before or after mark_garbage, but before the
  /// arena is compacted). Reduce detaches at deletion time so garbage
  /// clauses are never watched.
  void detach(ClauseRef ref);

  /// Watch-list fixup after `db.garbage_collect()`: rewrites each watch
  /// entry's clause reference through the forwarding table, keeping list
  /// order, blockers, and binary tags untouched.
  /// Entries whose clause died map to kInvalidClause and are dropped
  /// (order-preserving). Because relocation is monotone and lists are not
  /// reordered, BCP visits watches in exactly the pre-collection order —
  /// the property behind the GC-mid-solve determinism guarantee.
  void remap_watches(const ClauseDb& db);

  /// Propagates all queued assignments to fixpoint. Returns the
  /// conflicting clause, or kInvalidClause when none.
  ClauseRef propagate();

  /// Watcher storage introspection (tests, benches).
  const WatcherArena& watches() const { return watches_; }

  /// Mutable watcher access for ns::audit fault-injection tests only.
  WatcherArena& debug_watches() { return watches_; }

 private:
  SearchContext& ctx_;
  WatcherArena watches_;
};

}  // namespace ns::solver
