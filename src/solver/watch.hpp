#pragma once
/// \file watch.hpp
/// Flat CSR-style watcher storage for two-watched-literal propagation.
///
/// All watch lists live in one contiguous slab of `Watch` entries; each
/// literal owns a [begin, begin+size) block with a private capacity. A
/// block that outgrows its capacity is relocated to the end of the slab
/// (geometric growth), leaving a dead hole behind; `maybe_defrag` compacts
/// the slab once dead entries dominate. Compared to the classic
/// vector-of-vectors layout this removes one pointer chase per list and
/// keeps hot lists adjacent in memory.
///
/// Binary clauses are specialized in the watch entry itself (the Kissat
/// hot-path move): the entry's `blocker` is the *other* literal of the
/// clause and the high bit of the clause reference tags the entry, so BCP
/// resolves a binary clause — satisfied, unit, or conflicting — without
/// ever dereferencing the clause arena.

#include <cassert>
#include <cstdint>
#include <vector>

#include "cnf/types.hpp"
#include "solver/clause_db.hpp"

namespace ns::solver {

/// One watch-list entry (8 bytes).
struct Watch {
  Lit blocker;  ///< some other literal of the clause; for binary clauses,
                ///< *the* other literal (the propagation target)
  std::uint32_t tagged_ref = 0;

  static constexpr std::uint32_t kBinaryBit = 1u << 31;

  Watch() = default;
  Watch(ClauseRef ref, Lit blocker_lit, bool binary)
      : blocker(blocker_lit), tagged_ref(ref | (binary ? kBinaryBit : 0u)) {
    assert((ref & kBinaryBit) == 0);
  }

  bool binary() const { return (tagged_ref & kBinaryBit) != 0; }
  ClauseRef ref() const { return tagged_ref & ~kBinaryBit; }
};

/// The flat slab of per-literal watch blocks, indexed by `Lit::code()`.
class WatcherArena {
 public:
  void reset(std::size_t num_lits) {
    heads_.assign(num_lits, Head{});
    slab_.clear();
    dead_ = 0;
  }

  std::size_t num_lists() const { return heads_.size(); }
  std::uint32_t size(std::uint32_t code) const { return heads_[code].size; }

  const Watch& get(std::uint32_t code, std::uint32_t i) const {
    const Head& h = heads_[code];
    assert(i < h.size);
    return slab_[h.begin + i];
  }

  /// Raw pointer to a list's block for the BCP inner loop, which reads and
  /// compacts one list in place. Invalidated by any `push` (slab growth may
  /// reallocate) — re-fetch after pushing; the block's *offset* only moves
  /// when the list itself is pushed to, which BCP never does for the list
  /// it is walking.
  Watch* data(std::uint32_t code) { return slab_.data() + heads_[code].begin; }
  void set(std::uint32_t code, std::uint32_t i, Watch w) {
    const Head& h = heads_[code];
    assert(i < h.size);
    slab_[h.begin + i] = w;
  }

  void push(std::uint32_t code, Watch w) {
    Head& h = heads_[code];
    // NS_SUPPRESS(allocation): amortized — a block relocates only when it
    // outgrows its capacity, with geometric growth (O(1) amortized per
    // push; the slab reaches a high-water mark in steady state).
    if (h.size == h.cap) relocate(h);
    slab_[h.begin + h.size++] = w;
  }

  /// Drops the tail of a list (BCP's in-place compaction).
  void truncate(std::uint32_t code, std::uint32_t new_size) {
    Head& h = heads_[code];
    assert(new_size <= h.size);
    h.size = new_size;
  }

  /// Compacts the slab when relocation holes dominate (a quarter of the
  /// slab: with doubling growth, steady-state holes approach half the slab
  /// from below, so a one-half threshold would never trigger). Must not be
  /// called while a propagation pass is iterating a list; block-internal
  /// order is preserved, so search behavior is unaffected. The cheap
  /// should-fire test stays inline; the compaction itself is out of line
  /// (watch.cpp) to keep it from bloating BCP's register allocation.
  void maybe_defrag() {
    if (dead_ < kDefragMinDead || 4 * dead_ < slab_.size()) return;
    // NS_SUPPRESS(allocation): episodic compaction at a declared safe
    // point, amortized across the pushes that created the holes; the
    // should-fire test above keeps the steady-state cost at two loads.
    defrag();
  }

  // --- introspection (tests, benches, ns::audit) -------------------------
  std::size_t slab_entries() const { return slab_.size(); }
  std::size_t dead_entries() const { return dead_; }
  std::size_t live_entries() const {
    std::size_t n = 0;
    for (const Head& h : heads_) n += h.size;
    return n;
  }
  std::uint32_t block_begin(std::uint32_t code) const {
    return heads_[code].begin;
  }
  std::uint32_t block_cap(std::uint32_t code) const {
    return heads_[code].cap;
  }
  std::uint64_t defrag_count() const { return defrags_; }

  // --- fault injection (ns::audit tests only) ----------------------------
  /// Forges the dead-entry counter to break the slab accounting (or, set
  /// above the defrag threshold, to force the next maybe_defrag to fire).
  void debug_set_dead_entries(std::size_t n) { dead_ = n; }
  /// Overwrites one list's block descriptor (out-of-range / overlapping
  /// blocks are otherwise unreachable through the arena API).
  void debug_set_block(std::uint32_t code, std::uint32_t begin,
                       std::uint32_t size, std::uint32_t cap) {
    heads_[code] = Head{begin, size, cap};
  }

 private:
  struct Head {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  static constexpr std::size_t kDefragMinDead = 1024;

  // Both grow paths live in watch.cpp: inlining their std::vector
  // resize/copy machinery into every push site measurably slows the BCP
  // inner loop (register spills), and they only run on block overflow.
  void defrag();
  void relocate(Head& h);

  std::vector<Watch> slab_;
  std::vector<Head> heads_;
  std::size_t dead_ = 0;
  std::uint64_t defrags_ = 0;
};

}  // namespace ns::solver
