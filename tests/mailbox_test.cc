#include "runtime/mailbox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

namespace dcv {
namespace {

TEST(MailboxTest, FifoWithinCapacity) {
  Mailbox<int> box(4);
  EXPECT_EQ(box.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(box.TryPush(i), MailboxPush::kOk);
  }
  EXPECT_EQ(box.TryPush(99), MailboxPush::kFull);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(box.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(box.TryPop(&v));
}

TEST(MailboxTest, BoundedPushBlocksUntilConsumerDrains) {
  Mailbox<int> box(1);
  ASSERT_TRUE(box.Push(0));
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    // Full box: this Push must block until the consumer pops.
    ASSERT_TRUE(box.Push(1));
    second_accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_accepted.load());

  int v = -1;
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 0);
  producer.join();
  EXPECT_TRUE(second_accepted.load());
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 1);
}

TEST(MailboxTest, CloseWakesBlockedProducer) {
  Mailbox<int> box(1);
  ASSERT_TRUE(box.Push(0));
  std::thread producer([&] {
    // Blocked on a full box; Close must wake it with a rejection.
    EXPECT_FALSE(box.Push(1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Close();
  producer.join();
  EXPECT_EQ(box.TryPush(2), MailboxPush::kClosed);
}

TEST(MailboxTest, CloseWakesBlockedConsumer) {
  Mailbox<int> box(1);
  std::thread consumer([&] {
    int v = 0;
    // Blocked on an empty box; Close must wake it with end-of-stream.
    EXPECT_FALSE(box.Pop(&v));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Close();
  consumer.join();
}

TEST(MailboxTest, DrainOnShutdown) {
  Mailbox<int> box(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.Push(i));
  }
  box.Close();
  box.Close();  // Idempotent.
  EXPECT_TRUE(box.closed());
  // Accepted messages survive the close and drain in order...
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.Pop(&v));
    EXPECT_EQ(v, i);
  }
  // ...and only then does Pop report end-of-stream.
  EXPECT_FALSE(box.Pop(&v));
}

TEST(MailboxTest, MultiProducerPerProducerOrdering) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  Mailbox<std::pair<int, int>> box(16);  // Small: forces backpressure.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.Push({p, i}));
      }
    });
  }
  std::vector<int> next_expected(kProducers, 0);
  std::pair<int, int> item;
  for (int received = 0; received < kProducers * kPerProducer; ++received) {
    ASSERT_TRUE(box.Pop(&item));
    // Interleaving across producers is arbitrary, but each producer's
    // messages must arrive in its push order.
    EXPECT_EQ(item.second, next_expected[item.first]);
    ++next_expected[item.first];
  }
  for (auto& t : producers) {
    t.join();
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

TEST(MailboxTest, ZeroCapacityClampsToOne) {
  Mailbox<int> box(0);
  EXPECT_EQ(box.capacity(), 1u);
  EXPECT_EQ(box.TryPush(1), MailboxPush::kOk);
  EXPECT_EQ(box.TryPush(2), MailboxPush::kFull);
}

TEST(MailboxTest, PopAllDrainsEverythingInFifoOrder) {
  Mailbox<int> box(8);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(box.Push(i));
  }
  std::vector<int> out;
  EXPECT_EQ(box.PopAll(&out), 6u);
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
  // The drain empties the box entirely.
  int v = -1;
  EXPECT_FALSE(box.TryPop(&v));
}

TEST(MailboxTest, PopAllAppendsWithoutClearing) {
  Mailbox<int> box(4);
  ASSERT_TRUE(box.Push(10));
  std::vector<int> out = {7};
  EXPECT_EQ(box.PopAll(&out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 10);
}

TEST(MailboxTest, PopAllBlocksUntilFirstMessage) {
  Mailbox<int> box(4);
  std::atomic<bool> drained{false};
  std::thread consumer([&] {
    std::vector<int> out;
    // Empty box: this PopAll must block until the producer pushes.
    EXPECT_EQ(box.PopAll(&out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 42);
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());
  ASSERT_TRUE(box.Push(42));
  consumer.join();
  EXPECT_TRUE(drained.load());
}

TEST(MailboxTest, PopAllWakesBlockedProducers) {
  Mailbox<int> box(2);
  ASSERT_TRUE(box.Push(0));
  ASSERT_TRUE(box.Push(1));
  std::atomic<bool> accepted{false};
  std::thread producer([&] {
    // Full box: blocked until the batch drain frees the whole capacity.
    ASSERT_TRUE(box.Push(2));
    accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(accepted.load());
  std::vector<int> out;
  EXPECT_GE(box.PopAll(&out), 2u);
  producer.join();
  EXPECT_TRUE(accepted.load());
  // Whether 2 landed in the first drain or waits for the next, nothing is
  // lost and order holds.
  while (out.size() < 3u) {
    int v = -1;
    ASSERT_TRUE(box.Pop(&v));
    out.push_back(v);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

TEST(MailboxTest, PopAllDrainsBacklogAfterCloseThenReportsEndOfStream) {
  Mailbox<int> box(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(box.Push(i));
  }
  box.Close();
  std::vector<int> out;
  // Accepted messages survive the close and drain in one batch...
  EXPECT_EQ(box.PopAll(&out), 3u);
  ASSERT_EQ(out.size(), 3u);
  // ...and only then does PopAll report end-of-stream.
  out.clear();
  EXPECT_EQ(box.PopAll(&out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(MailboxTest, CloseWakesBlockedPopAll) {
  Mailbox<int> box(4);
  std::thread consumer([&] {
    std::vector<int> out;
    // Blocked on an empty box; Close must wake it with end-of-stream.
    EXPECT_EQ(box.PopAll(&out), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Close();
  consumer.join();
}

TEST(MailboxTest, TryPopAllNeverBlocks) {
  Mailbox<int> box(4);
  std::vector<int> out;
  EXPECT_EQ(box.TryPopAll(&out), 0u);
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(box.Push(5));
  ASSERT_TRUE(box.Push(6));
  EXPECT_EQ(box.TryPopAll(&out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 6);
  box.Close();
  out.clear();
  EXPECT_EQ(box.TryPopAll(&out), 0u);
}

TEST(MailboxTest, PopAllSeesEachMultiProducerMessageExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  Mailbox<std::pair<int, int>> box(16);  // Small: forces backpressure.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.Push({p, i}));
      }
    });
  }
  std::vector<int> next_expected(kProducers, 0);
  std::vector<std::pair<int, int>> batch;
  int received = 0;
  while (received < kProducers * kPerProducer) {
    batch.clear();
    size_t got = box.PopAll(&batch);
    ASSERT_GT(got, 0u);
    ASSERT_EQ(got, batch.size());
    for (const auto& [p, i] : batch) {
      // Per-producer FIFO must survive batch drains.
      EXPECT_EQ(i, next_expected[p]);
      ++next_expected[p];
    }
    received += static_cast<int>(got);
  }
  for (auto& t : producers) {
    t.join();
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

// Batched sends (the SendBatch substrate). PushAll must behave exactly like
// the equivalent sequence of Pushes — same FIFO order, same blocking, same
// drain-on-shutdown prefix semantics — just cheaper.

TEST(MailboxTest, PushAllDeliversInOrderAcrossCapacityWaves) {
  Mailbox<int> box(3);  // Batch is much larger than capacity.
  std::vector<int> items;
  for (int i = 0; i < 20; ++i) {
    items.push_back(i);
  }
  std::thread producer([&] { ASSERT_TRUE(box.PushAll(std::move(items))); });
  int v = -1;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(box.Pop(&v));
    EXPECT_EQ(v, i);
  }
  producer.join();
}

TEST(MailboxTest, PushAllBlockedOnFullBoxWakesOnCloseWithoutLosingPrefix) {
  // The shutdown-deadlock regression: a producer mid-PushAll into a full
  // box must be woken by Close with a rejection, and the prefix it already
  // enqueued must stay poppable.
  Mailbox<int> box(2);
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    std::vector<int> items = {1, 2, 3, 4, 5};
    EXPECT_FALSE(box.PushAll(std::move(items)));  // Blocks, then rejected.
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load());  // Still blocked on the full box.
  box.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // The accepted prefix (capacity's worth) drains in order.
  int v = -1;
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(box.Pop(&v));  // Closed and drained.
}

TEST(MailboxTest, TryPushAllTakesLongestPrefixAndReportsClosure) {
  Mailbox<int> box(3);
  std::vector<int> items = {10, 11, 12, 13, 14};
  bool closed = true;
  // Room for 3: the prefix lands, the caller's cursor advances by 3.
  EXPECT_EQ(box.TryPushAll(&items, 0, &closed), 3u);
  EXPECT_FALSE(closed);
  // Full now: transient 0, not closure — the caller should retry later.
  EXPECT_EQ(box.TryPushAll(&items, 3, &closed), 0u);
  EXPECT_FALSE(closed);
  int v = -1;
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 10);
  EXPECT_EQ(box.TryPushAll(&items, 3, &closed), 1u);
  EXPECT_FALSE(closed);
  // Closed: permanent 0 with the flag set — the caller should stop.
  box.Close();
  EXPECT_EQ(box.TryPushAll(&items, 4, &closed), 0u);
  EXPECT_TRUE(closed);
  // Everything accepted before the close is still there, in order.
  std::vector<int> out;
  EXPECT_EQ(box.TryPopAll(&out), 3u);
  EXPECT_EQ(out, (std::vector<int>{11, 12, 13}));
}

TEST(MailboxTest, TryPushAllRunTakesOnlyItsRange) {
  Mailbox<int> box(4);
  const std::vector<int> items = {0, 1, 2, 3, 4, 5, 6};
  bool closed = true;
  EXPECT_EQ(box.TryPushAll(items, 1, 3, &closed), 2u);  // {1, 2}
  EXPECT_FALSE(closed);
  EXPECT_EQ(box.TryPushAll(items, 4, 7, &closed), 2u);  // {4, 5}: full.
  EXPECT_FALSE(closed);
  EXPECT_EQ(items, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));  // Copied.
  std::vector<int> out;
  EXPECT_EQ(box.TryPopAll(&out), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 4, 5}));
  box.Close();
  EXPECT_EQ(box.TryPushAll(items, 0, 7, &closed), 0u);
  EXPECT_TRUE(closed);
}

// The empty check of TryPopAll/TryPop reads a size hint without the lock.
// It may miss a racing push, but never one that happens-before the call.
TEST(MailboxTest, TryPopAllSeesPushPublishedBeforeFlagHandoff) {
  constexpr int kRounds = 2000;
  Mailbox<int> box(4);
  std::atomic<int> published{-1};
  std::thread producer([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(box.Push(i));
      published.store(i, std::memory_order_release);
      while (published.load(std::memory_order_acquire) != -1) {
        std::this_thread::yield();
      }
    }
  });
  std::vector<int> out;
  for (int i = 0; i < kRounds; ++i) {
    while (published.load(std::memory_order_acquire) != i) {
      std::this_thread::yield();
    }
    out.clear();
    ASSERT_EQ(box.TryPopAll(&out), 1u) << "round " << i;
    EXPECT_EQ(out[0], i);
    published.store(-1, std::memory_order_release);
  }
  producer.join();
}

// --- LanedMailbox: one lane per producing thread, one wake-up per inbox.

TEST(MailboxTest, LanedTryPopSeesPushPublishedBeforeFlagHandoff) {
  constexpr int kRounds = 2000;
  LanedMailbox<int> box(3, 4);
  std::atomic<int> published{-1};
  std::thread producer([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(box.lane().Push(i));
      published.store(i, std::memory_order_release);
      while (published.load(std::memory_order_acquire) != -1) {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    while (published.load(std::memory_order_acquire) != i) {
      std::this_thread::yield();
    }
    int got = -1;
    ASSERT_TRUE(box.TryPop(&got)) << "round " << i;
    EXPECT_EQ(got, i);
    published.store(-1, std::memory_order_release);
  }
  producer.join();
}

TEST(MailboxTest, LanedEachLaneHoldsFullCapacityAndCloseDrains) {
  LanedMailbox<int> box(2, 3);
  EXPECT_EQ(box.lane_capacity(), 3u);
  // This thread's lane fills at 3; a thread on the other lane still has
  // all of its own room.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(box.lane().TryPush(i), MailboxPush::kOk);
  }
  EXPECT_EQ(box.lane().TryPush(3), MailboxPush::kFull);
  const size_t my_lane = ProducerIndex() % 2;
  bool pushed = false;
  while (!pushed) {  // Fresh threads take consecutive indices: <= 2 tries.
    std::thread other([&] {
      if (ProducerIndex() % 2 == my_lane) {
        return;
      }
      for (int i = 10; i < 13; ++i) {
        EXPECT_EQ(box.lane().TryPush(i), MailboxPush::kOk);
      }
      pushed = true;
    });
    other.join();
  }
  box.Close();
  EXPECT_EQ(box.lane().TryPush(4), MailboxPush::kClosed);
  std::vector<int> out;
  EXPECT_EQ(box.PopAll(&out), 6u);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  out.clear();
  EXPECT_EQ(box.PopAll(&out), 0u);  // Closed and drained.
  int one = 0;
  EXPECT_FALSE(box.Pop(&one));
}

// Busy-waits for `d`: a sleep would overshoot a microsecond window.
void SpinFor(std::chrono::nanoseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

// A consumer spins for MailboxWaker::kSpinWindow before it registers and
// parks. Pushes that land at once, inside the window, at its edge, and long
// after it (the consumer asleep) must all be delivered; a lost wake-up
// shows as a 5 s timeout instead of a hang.
TEST(MailboxTest, LanedPopAllWakesAcrossTheSpinWindow) {
  using std::chrono::nanoseconds;
  const nanoseconds window = MailboxWaker::kSpinWindow;
  for (const nanoseconds delay :
       {nanoseconds{0}, window / 2, window, 10 * window}) {
    SCOPED_TRACE(delay.count());
    constexpr int kMessages = 200;
    LanedMailbox<int> box(2, 4);
    std::atomic<int> taken{0};
    std::atomic<bool> stop{false};
    std::thread producer([&] {
      for (int i = 0; i < kMessages; ++i) {
        // The consumer has everything so far and is back in PopAllFor:
        // the delay is how long it waits there.
        while (taken.load(std::memory_order_acquire) < i) {
          if (stop.load(std::memory_order_acquire)) {
            return;
          }
        }
        SpinFor(delay);
        ASSERT_TRUE(box.lane().Push(i));
      }
    });
    std::vector<int> out;
    while (out.size() < static_cast<size_t>(kMessages)) {
      bool timed_out = false;
      box.PopAllFor(&out, /*timeout_ms=*/5000, &timed_out);
      if (timed_out) {
        ADD_FAILURE() << "lost wake-up after " << out.size() << " messages";
        break;
      }
      taken.store(static_cast<int>(out.size()), std::memory_order_release);
    }
    stop.store(true, std::memory_order_release);
    producer.join();
    std::vector<int> expected(kMessages);
    for (int i = 0; i < kMessages; ++i) {
      expected[static_cast<size_t>(i)] = i;
    }
    EXPECT_EQ(out, expected);
  }
}

// A deadline shorter than the spin window cuts the spin short: PopAllFor
// on an open, empty box still reports the timeout.
TEST(MailboxTest, LanedPopAllForTimesOutInsideTheSpinWindow) {
  static_assert(MailboxWaker::kSpinWindow < std::chrono::milliseconds(1));
  LanedMailbox<int> box(2, 4);
  std::vector<int> out;
  bool timed_out = false;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(box.PopAllFor(&out, /*timeout_ms=*/0, &timed_out), 0u);
  EXPECT_TRUE(timed_out);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));

  ASSERT_TRUE(box.lane().Push(5));
  EXPECT_EQ(box.PopAllFor(&out, /*timeout_ms=*/0, &timed_out), 1u);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(out, std::vector<int>{5});

  box.Close();
  out.clear();
  EXPECT_EQ(box.PopAllFor(&out, /*timeout_ms=*/0, &timed_out), 0u);
  EXPECT_FALSE(timed_out);  // Closed and drained, not a timeout.
}

}  // namespace
}  // namespace dcv
