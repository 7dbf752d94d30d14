#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace resex::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(30, [&] { order.push_back(3); });
  (void)q.push(10, [&] { order.push_back(1); });
  (void)q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop()->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    (void)q.push(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop()->fn();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  (void)q.push(500, [] {});
  (void)q.push(100, [] {});
  EXPECT_EQ(q.next_time(), 100u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.push(10, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleEventSkipsOnlyIt) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(1, [&] { order.push_back(1); });
  EventHandle h = q.push(2, [&] { order.push_back(2); });
  (void)q.push(3, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop()->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(EventQueue, HandleNotPendingAfterPop) {
  EventQueue q;
  EventHandle h = q.push(1, [] {});
  auto ev = q.pop();
  ev->fn();
  // The state is still alive through `ev`, but cancelling now is harmless.
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto h1 = q.push(1, [] {});
  (void)q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  h1.cancel();
  // Lazy cancellation: size may still count the cancelled record until the
  // queue touches the head.
  EXPECT_FALSE(q.empty());
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleavedPushesPopsStaySorted) {
  EventQueue q;
  std::vector<std::uint64_t> popped;
  for (std::uint64_t i = 0; i < 100; ++i) {
    (void)q.push((i * 7919) % 101, [] {});
  }
  std::uint64_t last = 0;
  while (!q.empty()) {
    auto t = q.next_time();
    EXPECT_GE(t, last);
    last = t;
    (void)q.pop();
  }
}

// --- pooled records and generation handles ---------------------------------

TEST(EventQueue, StaleHandleDoesNotTouchReusedSlot) {
  EventQueue q;
  // A fired event's slot is the next one reused (the free list is LIFO).
  EventHandle fired = q.push(1, [] {});
  q.pop()->fn();
  int ran = 0;
  EventHandle next = q.push(2, [&] { ++ran; });
  EXPECT_FALSE(fired.pending());
  fired.cancel();
  EXPECT_TRUE(next.pending());

  // Same for a cancelled event: its slot is freed at cancel() and reused.
  next.cancel();
  EventHandle reused = q.push(3, [&] { ran += 10; });
  EXPECT_FALSE(next.pending());
  next.cancel();
  fired.cancel();
  EXPECT_TRUE(reused.pending());
  ASSERT_FALSE(q.empty());
  auto ev = q.pop();
  EXPECT_EQ(ev->time, 3u);
  ev->fn();
  EXPECT_EQ(ran, 10);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MoveOnlyCaptureRunsOnce) {
  EventQueue q;
  int ran = 0;
  auto owned = std::make_unique<int>(1);
  (void)q.push(1, [&ran, p = std::move(owned)] { ran += *p; });
  q.pop()->fn();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(q.empty());
}

struct Counts {
  int runs = 0;
  int destroyed = 0;
};

// A capture larger than the inline buffer, counting its runs and the
// destructions of live (not moved-from) copies.
struct Oversized {
  std::shared_ptr<Counts> counts;
  std::array<std::uint64_t, 16> pad{};
  explicit Oversized(std::shared_ptr<Counts> c) : counts(std::move(c)) {}
  Oversized(Oversized&&) noexcept = default;
  ~Oversized() {
    if (counts) ++counts->destroyed;
  }
  void operator()() { ++counts->runs; }
};
static_assert(!Callback::fits_inline<Oversized>);

TEST(EventQueue, OversizedCaptureRunsAndDiesOnceWhenFired) {
  auto counts = std::make_shared<Counts>();
  {
    Simulation sim;
    (void)sim.schedule_at(5, Oversized{counts});
    sim.run();
    EXPECT_EQ(counts->runs, 1);
    EXPECT_EQ(counts->destroyed, 1);
  }
  EXPECT_EQ(counts->destroyed, 1);
  EXPECT_EQ(counts.use_count(), 1);
}

TEST(EventQueue, OversizedCaptureDiesOnceWhenCancelledAndPruned) {
  auto counts = std::make_shared<Counts>();
  {
    Simulation sim;
    EventHandle h = sim.schedule_at(5, Oversized{counts});
    (void)sim.schedule_at(9, [] {});
    h.cancel();
    h.cancel();
    sim.run();  // prunes the cancelled record's heap value
    EXPECT_EQ(counts->runs, 0);
    EXPECT_EQ(counts->destroyed, 1);
  }
  EXPECT_EQ(counts->destroyed, 1);
  EXPECT_EQ(counts.use_count(), 1);
}

TEST(EventQueue, PendingCapturesDieWithSimulation) {
  auto counts = std::make_shared<Counts>();
  auto shared = std::make_shared<int>(0);
  {
    Simulation sim;
    (void)sim.schedule_at(5, Oversized{counts});
    (void)sim.schedule_at(6, [shared] { ++*shared; });  // stored inline
    sim.run_until(1);
    EXPECT_EQ(shared.use_count(), 2);
  }
  EXPECT_EQ(counts->runs, 0);
  EXPECT_EQ(counts->destroyed, 1);
  EXPECT_EQ(counts.use_count(), 1);
  EXPECT_EQ(*shared, 0);
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(EventQueue, HotCallableShapesFitInline) {
  // Coroutine resume and CQ wake capture one coroutine handle; doorbell
  // pickup captures two pointers and a time. (The channel's two events
  // assert the same at their definitions.)
  using Resume = decltype([h = std::coroutine_handle<>{}] { h.resume(); });
  struct Doorbell {
    void* hca;
    void* qp;
    SimTime rung;
    void operator()() const {}
  };
  static_assert(Callback::fits_inline<Resume>);
  static_assert(Callback::fits_inline<Doorbell>);
}

TEST(EventQueue, SameTimeFifoAcrossSlotReuse) {
  EventQueue q;
  std::vector<int> order;
  // Scatter the free list: fill, then cancel every other event, so the
  // same-time events below land in slots out of their push order.
  std::vector<EventHandle> fill;
  for (int i = 0; i < 32; ++i) fill.push_back(q.push(100, [] {}));
  for (std::size_t i = 0; i < fill.size(); i += 2) fill[i].cancel();
  for (int i = 0; i < 24; ++i) {
    (void)q.push(50, [&order, i] { order.push_back(i); });
  }
  std::vector<int> expect;
  for (int i = 0; i < 24; ++i) expect.push_back(i);
  while (!q.empty() && q.next_time() == 50) q.pop()->fn();
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, HandleNotPendingWhileItsCallbackRuns) {
  Simulation sim;
  EventHandle h;
  bool pending_inside = true;
  h = sim.schedule_at(3, [&] {
    pending_inside = h.pending();
    h.cancel();  // no-op: the event is already running
  });
  EXPECT_TRUE(h.pending());
  sim.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(sim.events_processed(), 1u);
}

// Random push/pop/cancel against a reference (time, seq) model: the pooled
// queue must match it pop for pop.
TEST(EventQueue, DifferentialAgainstReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    EventQueue q;
    std::set<std::pair<SimTime, std::uint64_t>> model;  // (time, id)
    std::map<std::uint64_t, std::pair<EventHandle, SimTime>> handles;
    std::vector<EventHandle> retired;  // fired or cancelled: must stay inert
    std::uint64_t next_id = 0;
    SimTime now = 0;
    std::uint64_t fired_id = 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t r = rng.next_u64() % 10;
      if (r < 5) {
        const SimTime t = now + rng.next_u64() % 64;
        const std::uint64_t id = next_id++;
        handles.emplace(id, std::pair{q.push(t, [&fired_id, id] {
                                        fired_id = id;
                                      }),
                                      t});
        model.emplace(t, id);
      } else if (r < 8) {
        ASSERT_EQ(q.empty(), model.empty());
        if (model.empty()) continue;
        const auto [t, id] = *model.begin();
        model.erase(model.begin());
        ASSERT_EQ(q.next_time(), t);
        auto ev = q.pop();
        ASSERT_EQ(ev->time, t);
        ev->fn();
        ASSERT_EQ(fired_id, id);
        now = t;
        ASSERT_FALSE(handles.at(id).first.pending());
        retired.push_back(handles.at(id).first);
        handles.erase(id);
      } else if (!handles.empty()) {
        // Cancel a live event, then a retired handle whose slot has most
        // likely been reused since: the second cancel must be a no-op.
        auto it = handles.lower_bound(rng.next_u64() % next_id);
        if (it == handles.end()) it = handles.begin();
        ASSERT_TRUE(it->second.first.pending());
        it->second.first.cancel();
        ASSERT_FALSE(it->second.first.pending());
        model.erase({it->second.second, it->first});
        retired.push_back(it->second.first);
        handles.erase(it);
        EventHandle& stale = retired[rng.next_u64() % retired.size()];
        ASSERT_FALSE(stale.pending());
        stale.cancel();
      }
    }
    while (!model.empty()) {
      const auto [t, id] = *model.begin();
      model.erase(model.begin());
      auto ev = q.pop();
      ASSERT_EQ(ev->time, t);
      ev->fn();
      ASSERT_EQ(fired_id, id);
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace resex::sim
