#include "serve/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace rtft::serve {
namespace {

TEST(BoundedQueue, RefusesBeyondCapacityWithoutBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: refuse, never grow.
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.max_depth(), 2u);
}

TEST(BoundedQueue, PopReportsDepthIncludingTheItem) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(10));
  ASSERT_TRUE(q.try_push(20));
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->item, 10);
  EXPECT_EQ(first->depth, 2u);  // both items were queued at pop time.
  EXPECT_EQ(first->seq, 1u);
  auto second = q.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->item, 20);
  EXPECT_EQ(second->depth, 1u);
  EXPECT_EQ(second->seq, 2u);  // pop order, whatever the consumer.
}

TEST(BoundedQueue, RefusedPushLeavesTheItemWithTheCaller) {
  BoundedQueue<std::vector<int>> q(1);
  std::vector<int> first{1, 2, 3};
  ASSERT_TRUE(q.try_push(std::move(first)));
  std::vector<int> second{4, 5, 6};
  ASSERT_FALSE(q.try_push(std::move(second)));
  // The refused item must not have been moved from.
  EXPECT_EQ(second.size(), 3u);
}

TEST(BoundedQueue, CloseDrainsAcceptedItemsThenEndsTheStream) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  q.close();
  EXPECT_FALSE(q.try_push(3));  // closed: producers refused...
  auto a = q.pop();             // ...but consumers still drain.
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->item, 1);
  auto b = q.pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->item, 2);
  EXPECT_FALSE(q.pop().has_value());  // end of stream.
  q.close();                          // idempotent.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  q.close();
  consumer.join();  // would hang forever if close() failed to wake it.
}

TEST(BoundedQueue, ZeroCapacityIsAContractViolation) {
  EXPECT_THROW(BoundedQueue<int>(0), ContractViolation);
}

TEST(BoundedQueue, ManyProducersManyConsumersLoseNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> q(8);
  std::atomic<long long> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.pop()) {
        popped_sum.fetch_add(item->item);
        popped_count.fetch_add(1);
        EXPECT_LE(item->depth, q.capacity());
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = static_cast<int>(p) * kPerProducer + i;
        while (!q.try_push(int{value})) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  q.close();
  for (std::thread& t : threads) t.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), total);
  EXPECT_EQ(popped_sum.load(),
            static_cast<long long>(total) * (total - 1) / 2);
  EXPECT_LE(q.max_depth(), q.capacity());  // the bound held throughout.
}

}  // namespace
}  // namespace rtft::serve
