// Hierarchical timer wheel — the Simulator's event queue.
//
// A binary heap costs O(log n) compares per push/pop and scatters its
// entries across the heap array; the wheel replaces it with 8 levels of 64
// slots each, at the native 1 µs resolution of TimePoint. Level l buckets
// times by their l-th base-64 digit, so the horizon is 64^8 µs ≈ 8.9 years;
// anything beyond that (Duration::max()-style sentinels) parks in a small
// overflow list.
//
// Placement uses the XOR trick: an entry lands on the level of the highest
// base-64 digit in which its timestamp differs from the wheel's current
// time. Two consequences do all the correctness work:
//   - every entry's slot index at its level is >= the wheel time's digit at
//     that level (strictly greater at insert; equal only after time catches
//     up), so "next event" is found by scanning each level's occupancy
//     bitmap upward from the current digit, lowest level first;
//   - level-0 slots are aligned to the current 64 µs window and therefore
//     hold exactly one timestamp each.
// Both invariants survive time advancing, because wheel time never passes a
// pending entry and digits above an entry's level cannot change while the
// clock stays at or below it.
//
// Every slot (and the overflow list) is also seq-sorted: direct inserts
// append in increasing global sequence, a cascade only refills lower levels
// that are completely empty, and overflow drains in order. place() asserts
// it. Together with the one-timestamp rule this makes each level-0 slot a
// FIFO queue: the same-tick minimum is the slot's head, so popping a burst
// of k same-tick timers costs O(k), not the O(k^2) of re-scanning the slot
// per pop. Higher-level slots and the overflow list hold many timestamps
// and are still scanned for their (time, seq) minimum.
//
// peek() never mutates: it reports the exact (time, seq) minimum without
// cascading, so a caller can stop at a time bound (run_until) and later
// insert entries before the peeked event. Only pop_min() advances wheel
// time — to the popped entry's timestamp — cascading higher-level slots
// down as their digit comes due. Each entry cascades at most once per
// level, so the per-event cost is amortized O(levels).
//
// Entries are 24-byte PODs (time, global sequence, slot, generation); the
// closures live in the Simulator's slab, exactly as with the old heap.
// Cancelled timers leave dead entries behind; purge() sweeps them out when
// the owner decides they have accumulated (Simulator does this adaptively).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/assert.h"
#include "support/pool.h"

namespace lm::sim {

class TimerWheel {
 public:
  /// Slot storage is pre-reserved up front: cur_ sweeps into fresh slot
  /// indices for the whole lifetime of a run (a level-4 slot spans ~17
  /// simulated minutes, so "every slot has been touched" never happens in
  /// practice), and lazily growing each slot on first use would trickle
  /// allocations forever — defeating the steady-state zero-allocation
  /// guarantee the pool exists for. 16 entries also lifts every slot past
  /// the 256-byte pool block, so the wheel never competes with the packet
  /// path for pooled blocks. Slots that ever exceed the reservation grow
  /// once to their high-water mark and keep that capacity.
  TimerWheel() {
    for (auto& level : wheel_) {
      for (auto& slot : level) slot.reserve(kSlotReserve);
    }
  }

  struct Entry {
    std::int64_t at;     // absolute time, microseconds
    std::uint64_t seq;   // global schedule order: FIFO tie-break
    std::uint32_t slot;  // closure slab index (owner's)
    std::uint32_t gen;   // slab generation for liveness checks
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Current wheel time: the timestamp of the last popped entry. All stored
  /// entries are at or after it.
  std::int64_t current() const { return cur_; }

  /// Adds an entry. Requires e.at >= current().
  void insert(const Entry& e) {
    LM_ASSERT(e.at >= cur_);
    place(e);
    ++size_;
    if (cached_ && e.at < cache_.at) cached_ = false;
  }

  /// Copies the earliest entry (min (at, seq)) into `out` without removing
  /// it or advancing time. Returns false when the wheel is empty.
  bool peek(Entry& out);

  /// Removes and returns the earliest entry, advancing current() to its
  /// timestamp. Requires a non-empty wheel.
  Entry pop_min();

  /// Removes every entry for which `live(entry)` is false; returns how many
  /// were dropped. Used to evict cancelled timers in bulk. Survivors keep
  /// their order, and level-0 slots shed their consumed prefix.
  template <class LivePred>
  std::size_t purge(LivePred live) {
    const auto dead = [&live](const Entry& e) { return !live(e); };
    std::size_t removed = 0;
    for (int l = 0; l < kLevels; ++l) {
      for (int s = 0; s < kSlots; ++s) {
        auto& v = wheel_[l][s];
        if (v.empty()) continue;
        if (l == 0) {
          // Drop the consumed prefix first: popped entries are not pending,
          // so they must not count as removed.
          v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(head0_[s]));
          head0_[s] = 0;
        }
        const std::size_t before = v.size();
        v.erase(std::remove_if(v.begin(), v.end(), dead), v.end());
        removed += before - v.size();
        if (v.empty()) occ_[l] &= ~(1ULL << s);
      }
    }
    const std::size_t before = overflow_.size();
    overflow_.erase(std::remove_if(overflow_.begin(), overflow_.end(), dead),
                    overflow_.end());
    removed += before - overflow_.size();
    size_ -= removed;
    cached_ = false;
    return removed;
  }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 64;
  static constexpr int kLevels = 8;
  static constexpr std::size_t kSlotReserve = 16;
  static constexpr std::uint64_t kHorizon = 1ULL << (kSlotBits * kLevels);

  using SlotVec = support::PooledVector<Entry>;

  static int level_of(std::uint64_t diff) {
    return diff == 0 ? 0 : (static_cast<int>(std::bit_width(diff)) - 1) / kSlotBits;
  }

  /// Buckets `e` relative to cur_ (no size_ bookkeeping). Entries must
  /// arrive in increasing seq per slot; see the header comment.
  void place(const Entry& e) {
    const auto diff = static_cast<std::uint64_t>(e.at ^ cur_);
    if (diff >= kHorizon) {
      LM_ASSERT(overflow_.empty() || overflow_.back().seq < e.seq);
      overflow_.push_back(e);
      return;
    }
    const int level = level_of(diff);
    const int idx =
        static_cast<int>((e.at >> (kSlotBits * level)) & (kSlots - 1));
    SlotVec& slot = wheel_[level][idx];
    LM_ASSERT(slot.empty() || slot.back().seq < e.seq);
    slot.push_back(e);
    occ_[level] |= 1ULL << idx;
  }

  /// The (at, seq) order: time first, schedule order among equal times.
  static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Moves every entry of one higher-level slot down, after advancing cur_
  /// to the slot's range start.
  void cascade(int level, int idx);

  /// Pulls every overflow entry now within the horizon into the wheel,
  /// advancing cur_ to the overflow minimum. Precondition: wheel levels are
  /// all empty and overflow_ is not.
  void drain_overflow();

  std::int64_t cur_ = 0;
  std::size_t size_ = 0;
  SlotVec wheel_[kLevels][kSlots];
  std::uint64_t occ_[kLevels] = {};
  std::vector<Entry> overflow_;

  // Index of the first unpopped entry of each level-0 slot; the slot is
  // cleared (and its head reset) once the last entry pops.
  std::size_t head0_[kSlots] = {};

  bool cached_ = false;  // cache_ holds the current minimum
  Entry cache_{};
};

}  // namespace lm::sim
