// Unit tests for the discrete-event engine, time arithmetic and the RNG.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/inplace_function.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "simcore/units.hpp"

namespace ampom::sim {
namespace {

using namespace ampom::sim::literals;

TEST(Time, ConstructionAndConversion) {
  EXPECT_EQ(Time::from_us(5).ns(), 5000);
  EXPECT_EQ(Time::from_ms(3).ns(), 3'000'000);
  EXPECT_DOUBLE_EQ(Time::from_sec(1.5).sec(), 1.5);
  EXPECT_EQ(Time::zero().ns(), 0);
  EXPECT_EQ((2.5_s).ns(), 2'500'000'000);
  EXPECT_EQ((10_us).ns(), 10'000);
}

TEST(Time, Arithmetic) {
  const Time a = 10_ms;
  const Time b = 4_ms;
  EXPECT_EQ((a + b).ns(), Time::from_ms(14).ns());
  EXPECT_EQ((a - b).ns(), Time::from_ms(6).ns());
  EXPECT_EQ((a * 3).ns(), Time::from_ms(30).ns());
  EXPECT_EQ((a / 2).ns(), Time::from_ms(5).ns());
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
}

TEST(Time, ScaledByFactor) {
  EXPECT_EQ((10_ms).scaled(0.5).ns(), Time::from_ms(5).ns());
  EXPECT_EQ((10_ms).scaled(2.0).ns(), Time::from_ms(20).ns());
}

TEST(Bandwidth, TransferTime) {
  const Bandwidth fe = Bandwidth::mbits_per_sec(100);
  // 4096 bytes at 100 Mb/s = 327.68 us.
  EXPECT_NEAR(fe.transfer_time(4096).us(), 327.68, 0.01);
  EXPECT_EQ(Bandwidth::bytes_per_sec(1000).bps(), 8000);
  EXPECT_EQ(Bandwidth{}.transfer_time(100), Time::max());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3_ms, [&] { order.push_back(3); });
  sim.schedule_at(1_ms, [&] { order.push_back(1); });
  sim.schedule_at(2_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_ms);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SameTimeFifoBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

// A callback that schedules at now() runs after every event already queued
// at that instant, however the queue grouped them (1-2, 4-5 and 6 are three
// chains at 1 ms, split by pushes at 2 ms), and after events scheduled at
// now() before it; 9 is scheduled after the push before it (8) has fired.
TEST(Simulator, ScheduleAtNowFiresAfterEverythingQueuedAtThatInstant) {
  Simulator sim;
  std::vector<int> order;
  auto log = [&order](int id) { return [&order, id] { order.push_back(id); }; };
  sim.schedule_at(1_ms, [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), log(7));
  });
  sim.schedule_at(1_ms, [&] {
    order.push_back(2);
    sim.schedule_at(sim.now(), [&] {
      order.push_back(8);
      sim.schedule_at(sim.now(), log(9));  // its predecessor already fired
    });
  });
  sim.schedule_at(2_ms, log(3));
  sim.schedule_at(1_ms, log(4));
  sim.schedule_at(1_ms, log(5));
  sim.schedule_at(2_ms, log(10));
  sim.schedule_at(1_ms, log(6));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6, 7, 8, 9, 3, 10}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  Time inner{};
  sim.schedule_at(5_ms, [&] {
    sim.schedule_after(2_ms, [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, 7_ms);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(5_ms, [&] {
    EXPECT_THROW(sim.schedule_at(1_ms, [] {}), std::logic_error);
  });
  sim.run();
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(1_ms, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_at(1_ms, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] { ++count; });
  sim.schedule_at(5_ms, [&] { ++count; });
  sim.run_until(2_ms);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 2_ms);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, HaltStopsTheLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] {
    ++count;
    sim.halt();
  });
  sim.schedule_at(2_ms, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PendingCountsLiveEvents) {
  Simulator sim;
  const auto a = sim.schedule_at(1_ms, [] {});
  sim.schedule_at(2_ms, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

// Regression: run_until used to fast-forward now() to the limit even when a
// callback halted the run mid-window, so delays armed after an early halt
// were measured from a point in time the run never reached.
TEST(Simulator, RunUntilHaltedMidWindowKeepsClockAtHaltPoint) {
  Simulator sim;
  sim.schedule_at(1_ms, [&] { sim.halt(); });
  sim.schedule_at(5_ms, [] {});
  EXPECT_EQ(sim.run_until(10_ms), 1u);
  EXPECT_EQ(sim.now(), 1_ms);  // not 10 ms
  Time fired{};
  sim.schedule_after(2_ms, [&] { fired = sim.now(); });
  sim.run_until(10_ms);
  EXPECT_EQ(fired, 3_ms);  // 1 ms halt point + 2 ms delay
  EXPECT_EQ(sim.now(), 10_ms);
}

// Regression: run()/run_until() used to reset the halt flag on entry,
// silently discarding a halt() issued between runs. The pinned semantics: a
// pending halt makes the next run a no-op and is consumed by it.
TEST(Simulator, PendingHaltMakesNextRunANoOp) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] { ++count; });
  sim.halt();
  EXPECT_TRUE(sim.halted());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(sim.halted());  // consumed by the run it stopped
  EXPECT_EQ(sim.run(), 1u);    // a subsequent run proceeds normally
  EXPECT_EQ(count, 1);
}

TEST(Simulator, PendingHaltMakesNextRunUntilANoOp) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] { ++count; });
  sim.halt();
  EXPECT_EQ(sim.run_until(5_ms), 0u);
  EXPECT_EQ(sim.now(), Time::zero());  // a no-op run leaves the clock alone
  EXPECT_FALSE(sim.halted());
  sim.run_until(5_ms);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 5_ms);
}

TEST(Simulator, CancelledEventsLeaveTheQueueImmediately) {
  Simulator sim;
  std::vector<Simulator::EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(Time::from_us(i + 1), [] {}));
  }
  EXPECT_EQ(sim.queued_entries(), 1000u);
  for (const auto id : ids) {
    EXPECT_TRUE(sim.cancel(id));
  }
  // No lazy-deleted carcasses: the storage empties with the live set.
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.queued_entries(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(EventQueue, PopsInTimeThenFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(2_ms, [&] { order.push_back(2); });
  q.push(1_ms, [&] { order.push_back(1); });
  q.push(1_ms, [&] { order.push_back(11); });
  q.push(3_ms, [&] { order.push_back(3); });
  Time at{};
  EventQueue::Callback cb;
  EXPECT_EQ(q.top_time(), 1_ms);
  while (q.pop(at, cb)) {
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
  EXPECT_EQ(at, 3_ms);
}

TEST(EventQueue, CancelDestroysTheCallbackImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  const auto h = q.push(1_ms, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(h));
  // The closure died at cancel time, not when its deadline bubbled out.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.queued_entries(), 0u);
}

TEST(EventQueue, StaleHandleForAReusedSlotIsRejected) {
  EventQueue q;
  const auto a = q.push(1_ms, [] {});
  EXPECT_TRUE(q.cancel(a));
  const auto b = q.push(1_ms, [] {});  // recycles a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));  // stale generation
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(0));  // the null handle is never valid
}

TEST(EventQueue, CancelDoesNotPerturbSurvivorOrder) {
  EventQueue q;
  std::vector<EventQueue::Handle> handles;
  std::vector<int> order;
  // Same-instant block plus a spread of later times; cancel a scattered
  // third of them and require the survivors to fire in schedule order.
  for (int i = 0; i < 90; ++i) {
    const Time at = Time::from_ms(1 + i / 30);
    handles.push_back(q.push(at, [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    EXPECT_TRUE(q.cancel(handles[i]));
  }
  Time at{};
  EventQueue::Callback cb;
  while (q.pop(at, cb)) {
    cb();
  }
  std::vector<int> expected;
  for (int i = 0; i < 90; ++i) {
    if (i % 3 != 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, SlotsAreRecycled) {
  EventQueue q;
  Time at{};
  EventQueue::Callback cb;
  for (int round = 0; round < 1000; ++round) {
    const auto keep = q.push(Time::from_us(round + 1), [] {});
    const auto drop = q.push(Time::from_us(round + 2), [] {});
    EXPECT_TRUE(q.cancel(drop));
    EXPECT_TRUE(q.pop(at, cb));
    (void)keep;
  }
  // Two events were ever live at once; the arena never grew past that.
  EXPECT_LE(q.slot_high_water(), 2u);
}

// How a differential run draws its event times.
enum class Instants {
  kSpread,       // now + U[0, 40): scattered, with occasional ties
  kLockstep,     // now + {0, 5, 10}, mostly the previous push's offset: long chains
  kAlternating,  // now + 1 or 2, odd and even in turn: many ties, never two in a row
};

// What a differential run exercised, by the queue's chaining rule: a push
// joins the chain of the previous push when that push is still queued at
// the same instant.
struct ChainCoverage {
  std::uint64_t chained_pushes{0};   // pushes that joined a chain
  std::uint64_t tied_pushes{0};      // pushes at an instant already queued
  std::uint64_t draining_pushes{0};  // pushes at the instant being drained
  std::uint64_t head_cancels{0};     // cancels of a chain's first live member
  std::uint64_t middle_cancels{0};
  std::uint64_t tail_cancels{0};  // cancels of a chain's last live member
};

// One seeded run of random push / cancel / pop against an ordered-set model
// keyed by (time, push index): the queue must pop the model's minimum and
// agree on every handle's validity. Appends the push indices in pop order
// and adds what the run exercised to `seen`.
void differential_run(std::uint64_t seed, bool hinted, Instants instants,
                      std::vector<std::uint64_t>& popped, ChainCoverage& seen) {
  Rng rng{seed};
  EventQueue q;
  std::set<std::pair<std::int64_t, std::uint64_t>> model;
  struct Issued {
    EventQueue::Handle handle;
    std::int64_t at;
    std::uint64_t index;
    std::uint64_t chain;  // the test's own account of the chain it joined
  };
  std::vector<Issued> issued;
  std::vector<std::set<std::uint64_t>> chain_live;  // live push indices per chain
  std::uint64_t fired = 0;
  std::array<std::uint64_t, 64> state{};  // what hints point at
  std::int64_t now = 0;
  std::int64_t lockstep_offset = 0;
  auto forget = [&](std::uint64_t index) { chain_live[issued[index].chain].erase(index); };
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.uniform(10);
    if (op < 5) {
      std::int64_t at = now;
      switch (instants) {
        case Instants::kSpread:
          // Narrow spread: many same-instant ties, so FIFO order is exercised.
          at += static_cast<std::int64_t>(rng.uniform(40));
          break;
        case Instants::kLockstep:
          if (rng.uniform(8) == 0) {
            lockstep_offset = 5 * static_cast<std::int64_t>(rng.uniform(3));
          }
          at += lockstep_offset;
          break;
        case Instants::kAlternating:
          at += (now + static_cast<std::int64_t>(issued.size())) % 2 == 0 ? 2 : 1;
          break;
      }
      const std::uint64_t index = issued.size();
      EventQueue::Callback cb = [&fired, index] { fired = index; };
      PrefetchHint hint;
      if (hinted) {
        hint.addrs = {&state[index % 64], nullptr, &state[(index * 7) % 64], &issued};
      }
      const EventQueue::Handle h = rng.uniform(2) == 0 && !hinted
                                       ? q.push(Time::from_ns(at), std::move(cb))
                                       : q.push(Time::from_ns(at), std::move(cb), hint);
      ASSERT_NE(h, 0u);
      const bool chained =
          !issued.empty() && issued.back().at == at && model.contains({at, index - 1});
      seen.chained_pushes += chained ? 1U : 0U;
      seen.draining_pushes += !model.empty() && model.begin()->first == now && at == now ? 1U : 0U;
      const auto tie = model.lower_bound({at, 0});
      seen.tied_pushes += tie != model.end() && tie->first == at ? 1U : 0U;
      const std::uint64_t chain = chained ? issued.back().chain : chain_live.size();
      if (!chained) {
        chain_live.emplace_back();
      }
      chain_live[chain].insert(index);
      issued.push_back(Issued{h, at, index, chain});
      model.emplace(at, index);
    } else if (op < 7) {
      if (issued.empty()) {
        continue;
      }
      const Issued& victim = issued[rng.uniform(issued.size())];
      const bool live = model.erase({victim.at, victim.index}) > 0;
      if (live) {
        const std::set<std::uint64_t>& members = chain_live[victim.chain];
        const bool head = *members.begin() == victim.index;
        const bool tail = *members.rbegin() == victim.index;
        seen.head_cancels += head && !tail ? 1U : 0U;
        seen.middle_cancels += !head && !tail ? 1U : 0U;
        seen.tail_cancels += tail && !head ? 1U : 0U;
        forget(victim.index);
      }
      ASSERT_EQ(q.cancel(victim.handle), live) << "step " << step;
    } else {
      Time at{};
      EventQueue::Callback cb;
      if (model.empty()) {
        ASSERT_FALSE(q.pop(at, cb));
        continue;
      }
      ASSERT_TRUE(q.pop(at, cb));
      q.prefetch_next();
      cb();
      const auto earliest = *model.begin();
      model.erase(model.begin());
      ASSERT_EQ(at.ns(), earliest.first) << "step " << step;
      ASSERT_EQ(fired, earliest.second) << "step " << step;
      forget(earliest.second);
      popped.push_back(fired);
      now = at.ns();
    }
    ASSERT_EQ(q.size(), model.size());
  }
  Time at{};
  EventQueue::Callback cb;
  while (q.pop(at, cb)) {
    q.prefetch_next();
    cb();
    ASSERT_FALSE(model.empty());
    ASSERT_EQ(fired, model.begin()->second);
    model.erase(model.begin());
    popped.push_back(fired);
  }
  EXPECT_TRUE(model.empty());
  // Every handle is dead once its event fired or was cancelled.
  for (const Issued& i : issued) {
    EXPECT_FALSE(q.cancel(i.handle));
  }
}

TEST(EventQueue, MatchesAnOrderedSetModelWithAndWithoutHints) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1009ULL}) {
    SCOPED_TRACE(seed);
    std::vector<std::uint64_t> plain;
    std::vector<std::uint64_t> hinted;
    ChainCoverage seen;
    differential_run(seed, false, Instants::kSpread, plain, seen);
    differential_run(seed, true, Instants::kSpread, hinted, seen);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_GT(plain.size(), 1000u);
    EXPECT_EQ(plain, hinted);
  }
}

// Lockstep instants grow long same-instant chains, and cancel their heads,
// middles and tails and push at the instant being drained; alternating
// instants queue many events per instant without ever chaining two.
TEST(EventQueue, MatchesTheModelOnLockstepAndAlternatingInstants) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1009ULL}) {
    SCOPED_TRACE(seed);
    std::vector<std::uint64_t> plain;
    std::vector<std::uint64_t> hinted;
    ChainCoverage lockstep;
    ChainCoverage lockstep_hinted;
    differential_run(seed, false, Instants::kLockstep, plain, lockstep);
    differential_run(seed, true, Instants::kLockstep, hinted, lockstep_hinted);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(plain, hinted);
    EXPECT_GT(lockstep.chained_pushes, 5000u);
    EXPECT_GT(lockstep.draining_pushes, 100u);
    EXPECT_GT(lockstep.head_cancels, 20u);
    EXPECT_GT(lockstep.middle_cancels, 20u);
    EXPECT_GT(lockstep.tail_cancels, 20u);

    std::vector<std::uint64_t> alternating_order;
    ChainCoverage alternating;
    differential_run(seed, false, Instants::kAlternating, alternating_order, alternating);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(alternating.chained_pushes, 0u);
    EXPECT_GT(alternating.tied_pushes, 5000u);
  }
}

// A schedule of chained, cancelled and same-instant events: the prefetch
// hints change host caching only, so the firing order is identical.
std::vector<int> hinted_schedule(bool hinted) {
  Simulator sim;
  Rng rng{42};
  std::vector<int> order;
  std::array<std::uint64_t, 16> blocks{};
  std::vector<Simulator::EventId> ids;
  int next_id = 0;
  std::function<void(Time)> add = [&](Time at) {
    const int id = next_id++;
    auto cb = [&, id] {
      order.push_back(id);
      blocks[static_cast<std::size_t>(id) % blocks.size()] += 1;
      if (next_id < 3000) {
        add(sim.now() + Time::from_ns(static_cast<std::int64_t>(rng.uniform(50))));
      }
      if (rng.uniform(4) == 0 && !ids.empty()) {
        sim.cancel(ids[rng.uniform(ids.size())]);
      }
    };
    if (!hinted) {
      ids.push_back(sim.schedule_on_node(0, at, std::move(cb)));
      return;
    }
    const PrefetchHint hint{{&blocks[static_cast<std::size_t>(id) % blocks.size()], &order,
                             nullptr, &ids}};
    ids.push_back(id % 2 == 0 ? sim.schedule_at(at, std::move(cb), hint)
                              : sim.schedule_on_node(0, at, std::move(cb), hint));
  };
  for (int i = 0; i < 64; ++i) {
    add(Time::from_ns(static_cast<std::int64_t>(rng.uniform(20))));
  }
  sim.run();
  return order;
}

TEST(Simulator, PrefetchHintsDoNotChangeTheFiringOrder) {
  const std::vector<int> plain = hinted_schedule(false);
  EXPECT_GT(plain.size(), 1000u);
  EXPECT_EQ(plain, hinted_schedule(true));
}

TEST(InplaceFunction, InlineAndBoxedClosuresBothInvoke) {
  int hits = 0;
  auto small_lambda = [&hits] { ++hits; };
  static_assert(InplaceFunction<void()>::fits_inline<decltype(small_lambda)>(),
                "a one-pointer capture must stay in the small buffer");
  InplaceFunction<void()> small{small_lambda};
  std::array<std::uint64_t, 16> payload{};
  payload[3] = 5;
  auto big_lambda = [&hits, payload] { hits += static_cast<int>(payload[3]); };
  static_assert(!InplaceFunction<void()>::fits_inline<decltype(big_lambda)>(),
                "a 128-byte capture must take the boxed path");
  InplaceFunction<void()> big{big_lambda};
  ASSERT_TRUE(small);
  ASSERT_TRUE(big);
  small();
  big();
  EXPECT_EQ(hits, 6);
}

TEST(InplaceFunction, MoveTransfersOwnershipWithoutCopying) {
  auto token = std::make_shared<int>(1);
  InplaceFunction<int()> f{[token] { return *token; }};
  EXPECT_EQ(token.use_count(), 2);
  InplaceFunction<int()> g{std::move(f)};
  EXPECT_EQ(token.use_count(), 2);  // moved, never copied
  EXPECT_FALSE(f);                  // NOLINT(bugprone-use-after-move) — pinned moved-from state
  EXPECT_TRUE(g);
  EXPECT_EQ(g(), 1);
  g = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceFunction, TakesArgumentsAndReturnsValues) {
  InplaceFunction<int(int, int)> add{[](int a, int b) { return a + b; }};
  EXPECT_EQ(add(2, 3), 5);
  InplaceFunction<int(int, int)> other;
  EXPECT_TRUE(other == nullptr);
  other = std::move(add);
  EXPECT_EQ(other(4, 4), 8);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformWithinBound) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

// uniform()'s power-of-two fast path draws exactly what the rejection
// formula draws, for every power of two up to 2^40 and for other bounds.
TEST(Rng, UniformMatchesTheDivisionFormulaForEveryBound) {
  auto by_division = [](Rng& rng, std::uint64_t bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = rng.next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  };
  std::vector<std::uint64_t> bounds;
  for (int k = 0; k <= 40; ++k) {
    bounds.push_back(std::uint64_t{1} << k);
  }
  for (const std::uint64_t other : {3ULL, 17ULL, 63ULL, 65ULL, 1000ULL, (1ULL << 40) + 1,
                                    (1ULL << 63) + 1, ~0ULL}) {
    bounds.push_back(other);
  }
  for (const std::uint64_t bound : bounds) {
    SCOPED_TRACE(bound);
    Rng fast{bound ^ 0x5EEDULL};
    Rng reference{bound ^ 0x5EEDULL};
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(fast.uniform(bound), by_division(reference, bound)) << "draw " << i;
    }
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng{7};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_real();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

}  // namespace
}  // namespace ampom::sim
