// Hierarchical timing-wheel event queue for the engine hot path.
//
// A binary heap pays O(log n) sifts per push and per pop over the whole
// outstanding-event set. The engine's
// workload is overwhelmingly *short-horizon and near-monotone*: strictly
// periodic releases, detector timers a threshold ahead, stop effects a
// poll-latency ahead. A calendar queue exploits that structure: time is
// divided into fixed-width ticks, ticks hash into 64-slot wheels, and
// each wheel level covers 64x the span of the one below (the classic
// hashed hierarchical wheel of Varghese & Lauer, as in kernel timer
// implementations). Insert is O(1): one XOR to find the level, one list
// prepend. Extract is O(1) amortized: per-level occupancy bitmaps jump
// the cursor straight to the next non-empty slot, and an event cascades
// to a lower level at most once per level.
//
// Exact dispatch order is preserved: events of the current tick are
// served through a tiny "near" binary heap ordered by the full `Earlier`
// comparator, so ties within one tick (and same-instant event chains
// pushed while serving) dispatch in exactly the order a fully sorted
// queue would produce. The near heap holds only the current tick's
// events — its sifts touch one or two levels, not log(total).
//
// Reuse discipline: clear() retains every buffer's capacity, so one
// wheel serves thousands of scenario runs without reallocation.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace rtft::rt {

/// Priority queue over `Event` ordered by `Earlier`, specialized for
/// near-monotone time-keyed workloads.
///
/// Requirements: `Earlier(a, b)` must induce a strict total order that
/// is consistent with `TimeNs` (its primary key): Earlier(a, b) implies
/// TimeNs(a) <= TimeNs(b). `TimeNs(e)` returns the event's date as a
/// non-negative nanosecond count.
///
/// Any push order is accepted (a push dated before the last pop simply
/// becomes the next pop, exactly as a heap would behave); performance is
/// tuned for pushes at or after the most recently popped date.
template <typename Event, typename Earlier, typename TimeNs>
class TimingWheel {
 public:
  /// `shift` sets the tick width to 2^shift nanoseconds (default ~65us,
  /// a level-0 revolution of ~4.2ms: coarse enough that sparse
  /// small-task-count workloads rarely cascade, fine enough that dense
  /// 128-task grids keep slots at 0-2 events each).
  explicit TimingWheel(int shift = kDefaultShift) : shift_(shift) {
    RTFT_EXPECTS(shift >= 0 && shift <= 32,
                 "timing-wheel shift must be in [0, 32]");
    levels_ = (63 - shift_ + kSlotBits - 1) / kSlotBits;
    heads_.assign(static_cast<std::size_t>(levels_) * kSlots, kNil);
    occupied_.assign(static_cast<std::size_t>(levels_), 0);
  }

  static constexpr int kDefaultShift = 16;

  void reserve(std::size_t n) {
    pool_.reserve(n);
    next_.reserve(n);
    free_.reserve(n);
    near_.reserve(n);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The earliest event. Valid until the next push/pop/clear. Advances
  /// the internal cursor (cascading far slots down) — hence non-const —
  /// but never changes the logical contents or their order.
  [[nodiscard]] const Event& top() {
    const bool found = ensure_near();
    RTFT_ASSERT(found, "top() on an empty timing wheel");
    return pool_[near_.front()];
  }

  void push(Event event) {
    const std::int64_t t = time_(event);
    RTFT_EXPECTS(t >= 0, "timing wheel requires non-negative event dates");
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(std::move(event));
      next_.push_back(kNil);
    } else {
      slot = free_.back();
      free_.pop_back();
      pool_[slot] = std::move(event);
    }
    place(slot, static_cast<std::uint64_t>(t) >> shift_);
    ++size_;
  }

  void pop() {
    const bool found = ensure_near();
    RTFT_ASSERT(found, "pop() on an empty timing wheel");
    const std::uint32_t slot = near_.front();
    near_.front() = near_.back();
    near_.pop_back();
    if (!near_.empty()) near_sift_down(0);
    free_.push_back(slot);
    --size_;
  }

  /// Empties the wheel; every buffer keeps its capacity.
  void clear() {
    if (size_ != 0 || !near_.empty()) {
      heads_.assign(heads_.size(), kNil);
      occupied_.assign(occupied_.size(), 0);
      near_.clear();
    }
    pool_.clear();
    next_.clear();
    free_.clear();
    cur_ = 0;
    size_ = 0;
  }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = 64;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  [[nodiscard]] std::size_t digit(std::uint64_t tick, int level) const {
    return static_cast<std::size_t>((tick >> (kSlotBits * level)) &
                                    (kSlots - 1));
  }

  /// Files `slot` (whose event is dated tick `tick`) relative to the
  /// cursor: the current tick and anything before it is served through
  /// the near heap; later ticks go to the level of their highest digit
  /// differing from the cursor's.
  void place(std::uint32_t slot, std::uint64_t tick) {
    if (tick <= cur_) {
      near_push(slot);
      return;
    }
    const int level = (std::bit_width(tick ^ cur_) - 1) / kSlotBits;
    const std::size_t s = digit(tick, level);
    const std::size_t i = static_cast<std::size_t>(level) * kSlots + s;
    next_[slot] = heads_[i];
    heads_[i] = slot;
    occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << s;
  }

  /// Moves the earliest occupied slot's events into the near heap,
  /// cascading higher-level slots down as the cursor crosses them.
  /// Returns false when the wheel is empty.
  bool ensure_near() {
    if (!near_.empty()) return true;
    for (;;) {
      int level = -1;
      std::size_t s = 0;
      for (int l = 0; l < levels_; ++l) {
        // Occupied slots at every level lie strictly ahead of the
        // cursor's digit (equal digits imply a lower level or the near
        // heap), so masking from the digit up finds the next candidate;
        // any level-l hit precedes everything at levels > l.
        const std::uint64_t mask =
            occupied_[static_cast<std::size_t>(l)] &
            (~std::uint64_t{0} << digit(cur_, l));
        if (mask != 0) {
          level = l;
          s = static_cast<std::size_t>(std::countr_zero(mask));
          break;
        }
      }
      if (level < 0) return false;
      const std::size_t i = static_cast<std::size_t>(level) * kSlots + s;
      std::uint32_t node = heads_[i];
      RTFT_ASSERT(node != kNil, "occupancy bit set on an empty wheel slot");
      heads_[i] = kNil;
      occupied_[static_cast<std::size_t>(level)] &=
          ~(std::uint64_t{1} << s);
      // Advance the cursor to the slot's start: digit `level` becomes s,
      // lower digits reset, higher digits keep the cursor's value.
      const int low_bits = kSlotBits * level;
      cur_ = (cur_ >> (low_bits + kSlotBits) << kSlotBits | s) << low_bits;
      while (node != kNil) {
        const std::uint32_t nx = next_[node];
        if (level == 0) {
          near_push(node);
        } else {
          place(node, static_cast<std::uint64_t>(time_(pool_[node])) >>
                          shift_);
        }
        node = nx;
      }
      if (!near_.empty()) return true;
    }
  }

  // -- near heap: slot indices ordered by the full comparator ------------

  void near_push(std::uint32_t slot) {
    near_.push_back(slot);
    std::size_t i = near_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier_(pool_[slot], pool_[near_[parent]])) break;
      near_[i] = near_[parent];
      i = parent;
    }
    near_[i] = slot;
  }

  void near_sift_down(std::size_t i) {
    const std::uint32_t slot = near_[i];
    const std::size_t n = near_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n &&
          earlier_(pool_[near_[child + 1]], pool_[near_[child]])) {
        ++child;
      }
      if (!earlier_(pool_[near_[child]], pool_[slot])) break;
      near_[i] = near_[child];
      i = child;
    }
    near_[i] = slot;
  }

  Earlier earlier_{};
  TimeNs time_{};
  int shift_;
  int levels_;
  std::vector<Event> pool_;          ///< stable event slots.
  std::vector<std::uint32_t> next_;  ///< per pool slot: next in its list.
  std::vector<std::uint32_t> free_;  ///< recycled pool slots.
  std::vector<std::uint32_t> heads_; ///< level*64+slot -> list head.
  std::vector<std::uint64_t> occupied_;  ///< per-level slot bitmap.
  std::vector<std::uint32_t> near_;  ///< heap of current-tick events.
  std::uint64_t cur_ = 0;            ///< cursor tick.
  std::size_t size_ = 0;
};

}  // namespace rtft::rt
