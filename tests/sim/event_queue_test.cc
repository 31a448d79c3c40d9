#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fela::sim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(3.0, [&] { order.push_back(3); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PeekTimeReportsEarliest) {
  EventQueue q;
  q.Push(7.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelledEventSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  q.Push(1.0, [&] { order.push_back(1); });
  EventId id = q.Push(2.0, [&] { order.push_back(2); });
  q.Push(3.0, [&] { order.push_back(3); });
  q.Cancel(id);
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(9999));
}

TEST(EventQueueTest, DoubleCancelFails) {
  EventQueue q;
  EventId id = q.Push(1.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

// Regression: cancelling an id that already fired used to decrement
// size_ (empty() reported true with events still queued, so a Run()
// loop dropped them) and leak the id in the cancelled set forever. The
// cancel must be rejected and the pending event must stay poppable.
TEST(EventQueueTest, CancelAfterFireFailsAndPreservesPendingEvents) {
  EventQueue q;
  EventId a = q.Push(1.0, [] {});
  bool b_fired = false;
  q.Push(2.0, [&] { b_fired = true; });
  q.Pop().second();  // fires a
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  q.Pop().second();
  EXPECT_TRUE(b_fired);
  EXPECT_TRUE(q.empty());
}

// The same corruption repeated: every stale cancel used to eat one live
// event's worth of size_, so a handful of late cancels could zero out
// an arbitrarily full queue.
TEST(EventQueueTest, RepeatedStaleCancelsNeverAffectSize) {
  EventQueue q;
  std::vector<EventId> fired_ids;
  for (int i = 0; i < 4; ++i) fired_ids.push_back(q.Push(1.0, [] {}));
  for (int i = 0; i < 4; ++i) q.Pop().second();
  for (int i = 0; i < 16; ++i) q.Push(2.0, [] {});
  for (EventId id : fired_ids) EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.size(), 16u);
}

// Slots are recycled through a free list; a handle minted before the
// recycle must not be able to cancel the unrelated event that now
// occupies the same slot (the generation tag makes it stale).
TEST(EventQueueTest, StaleHandleAfterSlotReuseIsRejected) {
  EventQueue q;
  EventId old_id = q.Push(1.0, [] {});
  ASSERT_TRUE(q.Cancel(old_id));  // slot goes back on the free list
  bool fired = false;
  EventId new_id = q.Push(2.0, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.Cancel(old_id));  // stale generation
  EXPECT_EQ(q.size(), 1u);
  q.Pop().second();
  EXPECT_TRUE(fired);
}

// Pathological churn: a retry timer that is re-armed and cancelled a
// million times (the shape fault-injected token leases produce). Lazy
// deletion alone would grow the heap by one dead entry per cycle;
// compaction must keep both the heap and the slab at O(live events).
TEST(EventQueueTest, FootprintStaysBoundedAcrossPushCancelCycles) {
  EventQueue q;
  // A few long-lived events so compaction has live entries to keep.
  for (int i = 0; i < 8; ++i) q.Push(1e9 + i, [] {});
  for (int i = 0; i < 1'000'000; ++i) {
    EventId id = q.Push(1e6 + i, [] {});
    ASSERT_TRUE(q.Cancel(id));
  }
  EXPECT_EQ(q.size(), 8u);
  // Compaction triggers once dead entries outnumber live ones, so the
  // heap never exceeds ~2x live (plus the small pre-compaction floor).
  EXPECT_LE(q.heap_entries(), 128u);
  // Only one churn event is ever pending at a time, so the slab's
  // high-water mark is live events + 1.
  EXPECT_LE(q.slab_slots(), 16u);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.Pop();
  EXPECT_EQ(q.size(), 0u);
}

// ---- FIFO chains (PushAfter) ---------------------------------------------

// A queue driven through Push, Cancel and PushAfter must pop exactly as a
// queue driven through Push alone: a chain changes where an event waits,
// never when it fires. Integer times make events of different chains,
// and of chains and free events, tie often, so the tie-break is tested
// across chains too.
TEST(EventQueueChainTest, PopsInTheOrderOfAPushOnlyQueue) {
  constexpr size_t kChains = 4;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    common::Rng rng(seed);
    EventQueue q;    // chains each FIFO stream
    EventQueue ref;  // pushes everything into its heap
    std::vector<int> fired;
    std::vector<int> ref_fired;
    std::array<EventId, kChains> tail{};  // q's last event of each chain
    std::array<double, kChains> tail_time{};
    // Free events, pushed with Push and never chained behind.
    std::vector<std::pair<EventId, EventId>> free_ids;
    double now = 0.0;
    int label = 0;
    bool held_outside_heap = false;
    for (int op = 0; op < 3000; ++op) {
      const uint64_t roll = rng.UniformInt(10);
      const int id = label;
      if (roll < 3) {
        const size_t c = rng.UniformInt(kChains);
        const double when = std::max(tail_time[c], now) +
                            static_cast<double>(rng.UniformInt(3));
        tail[c] = q.PushAfter(tail[c], when,
                              [&fired, id] { fired.push_back(id); });
        ref.Push(when, [&ref_fired, id] { ref_fired.push_back(id); });
        tail_time[c] = when;
        ++label;
      } else if (roll < 5) {
        const double when = now + static_cast<double>(rng.UniformInt(8));
        const EventId q_id =
            q.Push(when, [&fired, id] { fired.push_back(id); });
        const EventId ref_id = ref.Push(
            when, [&ref_fired, id] { ref_fired.push_back(id); });
        free_ids.emplace_back(q_id, ref_id);
        ++label;
      } else if (roll < 6) {
        if (free_ids.empty()) continue;
        const size_t k = rng.UniformInt(free_ids.size());
        // A free event may have fired already: both cancels then fail.
        EXPECT_EQ(q.Cancel(free_ids[k].first), ref.Cancel(free_ids[k].second));
        free_ids[k] = free_ids.back();
        free_ids.pop_back();
      } else if (!ref.empty()) {
        ASSERT_FALSE(q.empty());
        ASSERT_DOUBLE_EQ(q.PeekTime(), ref.PeekTime());
        auto [when, fn] = q.Pop();
        auto [ref_when, ref_fn] = ref.Pop();
        ASSERT_DOUBLE_EQ(when, ref_when);
        fn();
        ref_fn();
        ASSERT_EQ(fired, ref_fired) << "seed " << seed << " op " << op;
        now = when;
      }
      ASSERT_EQ(q.size(), ref.size());
      held_outside_heap |= q.heap_entries() < q.size();
    }
    while (!ref.empty()) {
      ASSERT_FALSE(q.empty());
      q.Pop().second();
      ref.Pop().second();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, ref_fired) << "seed " << seed;
    EXPECT_TRUE(held_outside_heap) << "seed " << seed << " chained nothing";
  }
}

TEST(EventQueueChainTest, ChainedEventsWaitOutsideTheHeap) {
  EventQueue q;
  std::vector<int> order;
  EventId last = kInvalidEventId;
  for (int i = 0; i < 512; ++i) {
    last = q.PushAfter(last, 1.0 + i, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.size(), 512u);
  EXPECT_EQ(q.heap_entries(), 1u);
  while (!q.empty()) {
    EXPECT_EQ(q.heap_entries(), 1u);
    q.Pop().second();
  }
  ASSERT_EQ(order.size(), 512u);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// Once the predecessor has fired or been cancelled there is nothing to
// wait behind: the event goes into the heap like any Push, so it can be
// cancelled (a chained one cannot).
TEST(EventQueueChainTest, PushAfterAGoneEventIsAPush) {
  EventQueue q;
  const EventId fired = q.Push(1.0, [] {});
  const EventId cancelled = q.Push(2.0, [] {});
  ASSERT_TRUE(q.Cancel(cancelled));
  q.Pop().second();
  const EventId a = q.PushAfter(fired, 3.0, [] {});
  const EventId b = q.PushAfter(cancelled, 3.0, [] {});
  const EventId c = q.PushAfter(kInvalidEventId, 3.0, [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_TRUE(q.Cancel(b));
  EXPECT_TRUE(q.Cancel(c));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueChainDeathTest, CancellingAChainedEventOrItsPredecessorAborts) {
  EventQueue q;
  const EventId head = q.Push(1.0, [] {});
  const EventId chained = q.PushAfter(head, 2.0, [] {});
  EXPECT_DEATH(q.Cancel(chained), "cannot be cancelled");
  EXPECT_DEATH(q.Cancel(head), "cannot be cancelled");
}

TEST(EventQueueChainDeathTest, ASecondSuccessorAborts) {
  EventQueue q;
  const EventId head = q.Push(1.0, [] {});
  q.PushAfter(head, 2.0, [] {});
  EXPECT_DEATH(q.PushAfter(head, 3.0, [] {}), "already has a successor");
}

TEST(EventQueueChainDeathTest, ASuccessorEarlierThanItsPredecessorAborts) {
  EventQueue q;
  const EventId head = q.Push(2.0, [] {});
  q.PushAfter(head, 1.0, [] {});
  EXPECT_DEATH(q.Pop(), "before its predecessor");
}

}  // namespace
}  // namespace fela::sim
