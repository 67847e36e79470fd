// Ready queue of the fixed-priority dispatcher.
//
// reschedule() used to rescan every task slot on every event to find the
// dispatch winner — O(n) per event, the dominant cost of large-n
// scenarios. This queue maintains the winner incrementally: an indexed
// binary heap (indexed_heap.hpp) ordered by (priority desc, ready_seq
// asc) and keyed by task slot, giving an O(1) top() with O(log n)
// insert()/erase(). The key of a queued task never changes (ready_seq is
// assigned once per job and preemption does not re-queue), so the
// update operation is never used here.
//
// Reuse discipline matches indexed_heap.hpp: clear() empties the queue
// in O(size) while every buffer keeps its capacity, so one queue serves
// thousands of scenario runs without reallocation.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "runtime/indexed_heap.hpp"

namespace rtft::rt {

class ReadyQueue {
 public:
  void reserve(std::size_t tasks) { heap_.reserve(tasks); }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Task slot that must run next: highest priority, FIFO (smallest
  /// ready_seq) within a priority level. Valid until the next mutation.
  [[nodiscard]] std::size_t top() const { return heap_.top().task; }

  [[nodiscard]] bool contains(std::size_t task) const {
    return heap_.contains(task);
  }

  /// Queues a task that became ready. ready_seq must be unique across the
  /// queue's lifetime; the task must not already be queued.
  void insert(std::size_t task, int priority, std::uint64_t ready_seq) {
    heap_.insert(Entry{ready_seq, priority, static_cast<std::uint32_t>(task)});
  }

  /// Removes the task wherever it sits (a stop can retire a job that is
  /// neither running nor the dispatch winner).
  void erase(std::size_t task) { heap_.erase(task); }

  /// Empties the queue; every buffer keeps its capacity.
  void clear() { heap_.clear(); }

 private:
  struct Entry {
    std::uint64_t ready_seq;
    int priority;
    std::uint32_t task;
  };

  /// True when `a` must be dispatched before `b`. Total: ready_seq is
  /// unique among queued entries.
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.ready_seq < b.ready_seq;
    }
  };

  TaskIndexedHeap<Entry, Before> heap_;
};

}  // namespace rtft::rt
