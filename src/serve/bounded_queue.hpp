// Bounded MPMC request queue with explicit backpressure.
//
// The admission service's first robustness rule is that memory is
// admission-controlled too: the queue has a hard capacity, try_push()
// refuses instead of growing, and the service turns that refusal into a
// reject-with-retry_after response. Blocking producers are deliberately
// not offered — a service thread that blocks on its own ingress queue
// under overload is how backpressure turns into deadlock.
//
// close() ends the stream: producers are refused from that point, but
// consumers keep draining whatever was accepted (pop() returns items
// until the queue is empty, then std::nullopt), so every accepted
// request is still answered during shutdown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/assert.hpp"

namespace rtft::serve {

template <typename T>
class BoundedQueue {
 public:
  /// One popped item plus the queue reading taken under the same lock.
  struct Popped {
    T item;
    std::size_t depth = 0;  ///< depth including the item, at pop time.
    std::uint64_t seq = 0;  ///< pop ordinal (from 1): orders the readings
                            ///< of consumers that race after the pop.
  };

  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    RTFT_EXPECTS(capacity > 0, "a bounded queue needs capacity >= 1");
  }

  /// Enqueues `item` unless the queue is full or closed; never blocks.
  /// Returns false (item untouched on the caller's side is consumed only
  /// on success — the && overload moves only when space exists).
  [[nodiscard]] bool try_push(T&& item) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > max_depth_) max_depth_ = items_.size();
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  /// Returns the item plus the depth *including* it at pop time (what the
  /// degradation controller keys on), or std::nullopt at end of stream.
  [[nodiscard]] std::optional<Popped> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained.
    Popped out{std::move(items_.front()), items_.size(), ++pops_};
    items_.pop_front();
    return out;
  }

  /// Refuses future pushes and wakes every blocked consumer. Items
  /// already accepted remain poppable. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// High-water mark since construction — the soak test's proof that the
  /// bound held.
  [[nodiscard]] std::size_t max_depth() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return max_depth_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  std::size_t max_depth_ = 0;
  std::uint64_t pops_ = 0;
  bool closed_ = false;
};

}  // namespace rtft::serve
