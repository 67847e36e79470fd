// Indexed binary heap keyed by task slot — the shared core of the
// ready-queue dispatcher (ready_queue.hpp) and the engine's lazy
// deadline index (engine.cpp).
//
// A plain binary heap over `Entry` values plus a task-slot -> heap-index
// table, so membership tests and removal of an arbitrary task are O(1)
// lookup + O(log n) restore. At most one entry per task may be queued.
//
// Reuse discipline: clear() empties the heap in O(size) while every
// buffer keeps its capacity, so one heap serves thousands of scenario
// runs without reallocation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace rtft::rt {

/// `Entry` must be trivially copyable and expose a `std::uint32_t task`
/// member (the index key). `Before(a, b)` returns true when `a` must
/// surface before `b` and must induce a strict total order over queued
/// entries (both users embed a unique sequence number).
template <typename Entry, typename Before>
class TaskIndexedHeap {
 public:
  void reserve(std::size_t tasks) {
    heap_.reserve(tasks);
    pos_.reserve(tasks);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// The entry that surfaces first. Valid until the next mutation.
  [[nodiscard]] const Entry& top() const {
    RTFT_ASSERT(!heap_.empty(), "top() on an empty indexed heap");
    return heap_.front();
  }

  [[nodiscard]] bool contains(std::size_t task) const {
    return task < pos_.size() && pos_[task] != kAbsent;
  }

  /// Queues `entry` under its task slot; the task must not be queued.
  void insert(const Entry& entry) {
    if (entry.task >= pos_.size()) pos_.resize(entry.task + 1, kAbsent);
    RTFT_ASSERT(pos_[entry.task] == kAbsent, "task is already queued");
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }

  /// Re-keys the queued entry of `entry.task` in place (any direction).
  void update(const Entry& entry) {
    RTFT_ASSERT(contains(entry.task), "update() of a task that is not queued");
    const std::size_t i = pos_[entry.task];
    heap_[i] = entry;
    sift_up(i);
    sift_down(pos_[entry.task]);
  }

  /// Removes the task wherever it sits.
  void erase(std::size_t task) {
    RTFT_ASSERT(contains(task), "erase() of a task that is not queued");
    const std::size_t i = pos_[task];
    pos_[task] = kAbsent;
    const Entry moved = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      place(i, moved);
      sift_up(i);
      sift_down(pos_[moved.task]);
    }
  }

  /// Empties the heap; every buffer keeps its capacity.
  void clear() {
    for (const Entry& e : heap_) pos_[e.task] = kAbsent;
    heap_.clear();
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.task] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before_(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before_(heap_[child + 1], heap_[child])) ++child;
      if (!before_(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  Before before_{};
  std::vector<Entry> heap_;          ///< heap-ordered entries.
  std::vector<std::uint32_t> pos_;   ///< task slot -> heap index, or kAbsent.
};

}  // namespace rtft::rt
