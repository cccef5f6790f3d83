#include "sim/timer_wheel.h"

namespace lm::sim {

bool TimerWheel::peek(Entry& out) {
  if (size_ == 0) return false;
  if (cached_) {
    out = cache_;
    return true;
  }
  // Lowest occupied level wins: its entries share all higher digits with
  // cur_, so they precede anything bucketed above. Within a level, the
  // lowest occupied slot at or after cur_'s digit is earliest.
  for (int l = 0; l < kLevels; ++l) {
    const int pos = static_cast<int>((cur_ >> (kSlotBits * l)) & (kSlots - 1));
    const std::uint64_t bits = occ_[l] & (~0ULL << pos);
    if (bits == 0) continue;
    const int idx = std::countr_zero(bits);
    const SlotVec& v = wheel_[l][idx];
    // A level-0 slot is a FIFO of one timestamp: its head is the minimum.
    cache_ = l == 0 ? v[head0_[idx]]
                    : *std::min_element(v.begin(), v.end(), earlier);
    cached_ = true;
    out = cache_;
    return true;
  }
  // Only overflow entries remain.
  LM_ASSERT(!overflow_.empty());
  cache_ = *std::min_element(overflow_.begin(), overflow_.end(), earlier);
  cached_ = true;
  out = cache_;
  return true;
}

void TimerWheel::cascade(int level, int idx) {
  // Advance cur_ to the slot's range start so re-placement lands strictly
  // below `level` (digits above `level` now match every entry in the slot).
  const int shift = kSlotBits * level;
  const std::int64_t span = static_cast<std::int64_t>(1) << (shift + kSlotBits);
  const std::int64_t base =
      (cur_ & ~(span - 1)) | (static_cast<std::int64_t>(idx) << shift);
  if (base > cur_) cur_ = base;
  SlotVec& v = wheel_[level][idx];
  for (const Entry& e : v) place(e);
  v.clear();  // keeps capacity for reuse
  occ_[level] &= ~(1ULL << idx);
}

void TimerWheel::drain_overflow() {
  // Nothing is pending before the overflow minimum, so time may jump there.
  cur_ = std::min_element(overflow_.begin(), overflow_.end(), earlier)->at;
  // Forward, so the placed entries and the ones left behind both stay
  // seq-sorted.
  std::size_t kept = 0;
  for (const Entry& e : overflow_) {
    if (static_cast<std::uint64_t>(e.at ^ cur_) < kHorizon) {
      place(e);
    } else {
      overflow_[kept++] = e;
    }
  }
  overflow_.resize(kept);
}

TimerWheel::Entry TimerWheel::pop_min() {
  LM_ASSERT(size_ > 0);
  cached_ = false;
  for (;;) {
    // Level 0 slots are 64 µs-window aligned: one timestamp per slot, so the
    // first occupied slot at or after cur_'s low digit is the minimum group,
    // and its head is the minimum entry.
    const int pos = static_cast<int>(cur_ & (kSlots - 1));
    const std::uint64_t bits = occ_[0] & (~0ULL << pos);
    if (bits != 0) {
      const int idx = std::countr_zero(bits);
      SlotVec& v = wheel_[0][idx];
      const Entry e = v[head0_[idx]++];
      if (head0_[idx] == v.size()) {
        v.clear();
        head0_[idx] = 0;
        occ_[0] &= ~(1ULL << idx);
      }
      --size_;
      cur_ = e.at;
      return e;
    }
    bool cascaded = false;
    for (int l = 1; l < kLevels; ++l) {
      const int lpos =
          static_cast<int>((cur_ >> (kSlotBits * l)) & (kSlots - 1));
      const std::uint64_t lbits = occ_[l] & (~0ULL << lpos);
      if (lbits == 0) continue;
      cascade(l, std::countr_zero(lbits));
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    drain_overflow();
  }
}

}  // namespace lm::sim
