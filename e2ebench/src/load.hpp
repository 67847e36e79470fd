// Load generation for the serving workload.
//
// Open loop: one generator thread sends request k at its due time
// t0 + k / rate whatever the service is doing, and one collector thread
// waits on the oldest outstanding response and polls the others.
// Latency is measured from the due time, not from the moment the
// request actually left, so a stall in the generator or in submit() is
// charged to every request it delayed; how late the generator ran is
// reported separately.
//
// The collector blocks instead of spinning: with the generator and two
// service workers busy, a fourth spinning thread on a 4-vCPU machine
// got the generator preempted, and its catch-up bursts overflowed the
// service queue. A response that completes before an older one is seen
// at the next poll, at most kPoll (plus timer slack) late.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "report.hpp"

namespace e2e {

struct OpenLoopOutcome {
  std::vector<double> latency_ms;  ///< completion - due, per request.
  std::vector<double> lag_ms;      ///< send - due, per request.
  std::uint64_t sent = 0;
};

/// `submit(k)` returns a std::future<R>; `handle(k, R&&, due, end)`
/// runs on the collector thread once request k completed, with its due
/// time and the time the collector saw it complete.
template <class R, class Submit, class Handle>
OpenLoopOutcome run_open_loop(double rate_per_s, double seconds,
                              Submit&& submit, Handle&& handle) {
  struct Entry {
    std::uint64_t k;
    Clock::time_point due;
    std::future<R> response;
  };
  OpenLoopOutcome out;
  const auto total = static_cast<std::uint64_t>(seconds * rate_per_s);
  out.latency_ms.reserve(total);
  out.lag_ms.reserve(total);

  std::mutex inbox_mu;
  std::vector<Entry> inbox;  // guarded by inbox_mu.
  std::atomic<bool> generator_done{false};

  std::thread collector([&] {
    constexpr auto kPoll = std::chrono::microseconds(50);
    std::vector<Entry> live;  // oldest first.
    std::vector<Entry> arrived;
    for (;;) {
      bool done = generator_done.load();
      {
        const std::lock_guard<std::mutex> lock(inbox_mu);
        arrived.swap(inbox);
      }
      for (Entry& e : arrived) live.push_back(std::move(e));
      arrived.clear();
      bool progressed = false;
      for (std::size_t i = 0; i < live.size();) {
        if (live[i].response.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const Clock::time_point end = Clock::now();
          out.latency_ms.push_back(1e3 * seconds_between(live[i].due, end));
          handle(live[i].k, live[i].response.get(), live[i].due, end);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          progressed = true;
        } else {
          ++i;
        }
      }
      if (done && live.empty()) {
        const std::lock_guard<std::mutex> lock(inbox_mu);
        if (inbox.empty()) return;
      }
      if (progressed) continue;
      if (live.empty()) {
        std::this_thread::sleep_for(kPoll);
      } else {
        (void)live.front().response.wait_for(kPoll);
      }
    }
  });

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_per_s));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  try {
    for (std::uint64_t k = 0; k < total; ++k) {
      const Clock::time_point due =
          t0 + interval * static_cast<std::int64_t>(k);
      // Sleep while the due time is far, then spin: sleep_until alone
      // overshoots by tens of microseconds.
      if (due - Clock::now() > std::chrono::microseconds(300)) {
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      }
      while (Clock::now() < due) {
      }
      std::future<R> response = submit(k);
      out.lag_ms.push_back(1e3 * seconds_between(due, Clock::now()));
      {
        const std::lock_guard<std::mutex> lock(inbox_mu);
        inbox.push_back(Entry{k, due, std::move(response)});
      }
      ++out.sent;
    }
  } catch (...) {
    generator_done.store(true);
    collector.join();
    throw;
  }
  generator_done.store(true);
  collector.join();
  return out;
}

}  // namespace e2e
