// Microbenchmarks of the simulation engine itself: event throughput, fabric
// message dispatch and executor reference consumption. These bound how much
// wall time the paper-scale experiments cost.
//
// On top of the ad-hoc benches this binary carries the engine's continuous
// perf profiles — schedule-heavy, cancel-heavy (reliable-paging silence-
// timer churn) and mixed — each run against BOTH the production indexed-heap
// Simulator and a verbatim copy of the lazy-delete engine it replaced, so
// every run measures the speedup on the machine it runs on. Two more,
// burst-cycle and lockstep-cycle, replay the cluster burst loop over cold
// per-actor state (the indexed engine with prefetch hints): with deadlines
// spread over 2 ms, and with every deadline landing on a shared 5 ms grid,
// as bursts of jobs that share a node do. Each profile reports:
//   events_per_sec   engine operations (schedule + cancel + fire) per second
//   peak_queued      max entries physically queued (lazy-delete strands
//                    cancelled entries; the indexed heap must not)
//   allocs_per_op    heap allocations per engine op, via the global
//                    operator-new hook below (0 for SBO-sized callbacks)
//
// tools/perf_gate consumes the --benchmark_out=FILE JSON, normalizes it to
// BENCH_simcore.json and gates CI on the machine-independent fields.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <unordered_set>  // ampom-lint: ordered-safe(membership only; reference lazy-delete engine preserved verbatim)
#include <vector>

#include "net/fabric.hpp"
#include "proc/executor.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook: every global new/delete in this binary bumps a
// counter. Profiles snapshot it around their measured (post-warmup) phase,
// with no library calls in between, so the delta is exactly the engine's.
// ---------------------------------------------------------------------------

namespace bench_alloc {
std::atomic<std::uint64_t> g_allocations{0};
inline std::uint64_t count() { return g_allocations.load(std::memory_order_relaxed); }
}  // namespace bench_alloc

// noinline: once inlined, GCC pattern-matches the malloc/free bodies against
// the operator new/delete calls and raises -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  bench_alloc::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ampom;
using sim::Time;

// ---------------------------------------------------------------------------
// The retired engine, verbatim: std::priority_queue + lazy deletion through
// a live-set. Kept here (not in src/) purely as the perf baseline.
// ---------------------------------------------------------------------------

class LazyEngine {
 public:
  using Callback = std::function<void()>;
  struct EventId {
    std::uint64_t seq{0};
    [[nodiscard]] bool valid() const { return seq != 0; }
  };

  [[nodiscard]] Time now() const { return now_; }

  EventId schedule_at(Time at, Callback cb) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Item{at, seq, std::move(cb)});
    live_.insert(seq);
    return EventId{seq};
  }
  EventId schedule_after(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  bool cancel(EventId id) { return id.valid() && live_.erase(id.seq) > 0; }

  std::uint64_t run() {
    std::uint64_t fired = 0;
    Item item;
    while (pop_next(item)) {
      now_ = item.at;
      ++fired;
      item.cb();
    }
    return fired;
  }

  [[nodiscard]] std::size_t queued_entries() const { return heap_.size(); }

 private:
  struct Item {
    Time at;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    [[nodiscard]] bool operator()(const Item& a, const Item& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  bool pop_next(Item& out) {
    while (!heap_.empty()) {
      out = std::move(const_cast<Item&>(heap_.top()));
      heap_.pop();
      if (live_.erase(out.seq) > 0) {
        return true;
      }
    }
    return false;
  }

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::unordered_set<std::uint64_t> live_;  // ampom-lint: ordered-safe(membership only; reference lazy-delete engine preserved verbatim)
  Time now_{Time::zero()};
  std::uint64_t next_seq_{1};
};

// ---------------------------------------------------------------------------
// Profile drivers, templated over the engine so both implementations run the
// byte-for-byte same workload.
// ---------------------------------------------------------------------------

struct Sink {
  std::uint64_t sum{0};
};

// Callbacks capture ~24 bytes (a sink pointer plus two ids), the shape of a
// real paging/timer closure: over std::function's inline buffer, comfortably
// inside InplaceFunction's.
template <class Engine>
std::uint64_t drive_schedule_heavy(Engine& eng, Sink& sink, int events) {
  for (int i = 0; i < events; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    eng.schedule_after(Time::from_ns(997 * (i % 4096) + 1),
                       [s = &sink, id, page = id * 7] { s->sum += id ^ page; });
  }
  return static_cast<std::uint64_t>(events) + eng.run();  // schedules + fires
}

// The reliable-paging hot pattern: every page arrival cancels and re-arms a
// silence timer whose timeout dwarfs the inter-page gap, so the lazy engine
// strands timeout/gap dead entries per request at steady state.
template <class Engine>
struct PagingChurn {
  Engine& eng;
  Sink& sink;
  int remaining{0};
  typename Engine::EventId timer{};
  std::size_t peak_queued{0};
  std::uint64_t ops{0};

  void run(int arrivals) {
    remaining = arrivals;
    eng.schedule_after(Time::from_ns(1001), [this] { arrive(); });
    eng.run();
  }

  void arrive() {
    ops += 1;  // this arrival fired
    if (timer.valid()) {
      eng.cancel(timer);
      ops += 1;
    }
    const auto rid = static_cast<std::uint64_t>(remaining);
    timer = eng.schedule_after(Time::from_us(1000),
                               [s = &sink, rid, page = rid * 3] { s->sum += rid + page; });
    ops += 1;
    if ((remaining & 255) == 0) {
      peak_queued = std::max(peak_queued, eng.queued_entries());
    }
    if (--remaining > 0) {
      eng.schedule_after(Time::from_ns(1001), [this] { arrive(); });
      ops += 1;
    }
  }
};

// Mixed: bursts of scheduling, half of each burst cancelled, the rest fired.
// `ids` is caller-owned scratch so its allocation stays out of the measured
// region.
template <class Engine>
std::uint64_t drive_mixed(Engine& eng, Sink& sink, int bursts, int burst_size,
                          std::size_t& peak_queued,
                          std::vector<typename Engine::EventId>& ids) {
  std::uint64_t ops = 0;
  ids.reserve(static_cast<std::size_t>(burst_size));
  for (int b = 0; b < bursts; ++b) {
    ids.clear();
    for (int i = 0; i < burst_size; ++i) {
      const auto id = static_cast<std::uint64_t>(i);
      ids.push_back(eng.schedule_after(Time::from_ns(977 * (i % 1024) + 1),
                                       [s = &sink, id, b64 = static_cast<std::uint64_t>(b)] {
                                         s->sum += id + b64;
                                       }));
      ++ops;
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      eng.cancel(ids[i]);
      ++ops;
    }
    peak_queued = std::max(peak_queued, eng.queued_entries());
    ops += eng.run();
  }
  return ops;
}

// How a BurstCycle reschedules its actors.
enum class Cadence {
  // At now + U[4, 6] ms: the spread of cluster burst deadlines, so few
  // events share an instant.
  kJittered,
  // At exactly now + 5 ms, from 8 start phases 25 ms apart: the phases fall
  // on one 5 ms grid, so every instant drains a run of up to kActors events
  // pushed back to back, the way the bursts of jobs sharing a node (and so
  // one CPU dilation) end together.
  kLockstep,
};

// The cluster burst loop in miniature: kActors actors, each with its own
// heap-allocated state block of about 1.5 KB (together several times an L2
// cache, as the per-process state of a 5,120-job cluster is). Each event
// touches four lines of its actor's block and reschedules the actor at the
// cadence's next deadline. An engine that takes a prefetch hint gets those
// four lines with each event.
template <class Engine, Cadence kCadence>
struct BurstCycle {
  static constexpr std::uint32_t kActors = 5120;
  static constexpr std::size_t kWords = 192;  // 1.5 KB
  static constexpr std::array<std::size_t, 4> kTouched = {0, 48, 96, 144};
  struct Actor {
    std::array<std::uint64_t, kWords> state{};
  };

  Engine& eng;
  std::vector<std::unique_ptr<Actor>> actors;
  sim::Rng rng{0x9E3779B97F4A7C15ULL};
  std::uint64_t fires_left{0};
  std::uint64_t ops{0};

  explicit BurstCycle(Engine& engine) : eng{engine} {
    actors.reserve(kActors);
    for (std::uint32_t a = 0; a < kActors; ++a) {
      actors.push_back(std::make_unique<Actor>());
    }
  }
  BurstCycle(const BurstCycle&) = delete;  // queued callbacks hold `this`
  BurstCycle& operator=(const BurstCycle&) = delete;

  // Start every actor, and fire until `fires` events have run (the actors
  // still queued then fire once more without rescheduling).
  void run(std::uint64_t fires) {
    fires_left = fires;
    for (std::uint32_t a = 0; a < kActors; ++a) {
      if constexpr (kCadence == Cadence::kLockstep) {
        schedule(a, Time::from_ms(25 * static_cast<std::int64_t>(a % 8)));
      } else {
        schedule(a, next_delay());
      }
    }
    eng.run();
  }

  void fire(std::uint32_t a) {
    ++ops;
    std::uint64_t* s = actors[a]->state.data();
    std::uint64_t acc = a;
    for (const std::size_t w : kTouched) {
      acc += s[w];
      s[w] = acc;
    }
    if (fires_left > 0) {
      --fires_left;
      schedule(a, next_delay());
    }
  }

  Time next_delay() {
    if constexpr (kCadence == Cadence::kLockstep) {
      return Time::from_ms(5);
    } else {
      return Time::from_us(4000 + static_cast<std::int64_t>(rng.uniform(2001)));
    }
  }

  void schedule(std::uint32_t a, Time delay) {
    ++ops;
    const Time at = eng.now() + delay;
    auto cb = [this, a] { fire(a); };
    if constexpr (requires { eng.schedule_at(at, std::move(cb), sim::PrefetchHint{}); }) {
      const std::uint64_t* s = actors[a]->state.data();
      eng.schedule_at(at, std::move(cb),
                      sim::PrefetchHint{{s + kTouched[0], s + kTouched[1], s + kTouched[2],
                                         s + kTouched[3]}});
    } else {
      eng.schedule_at(at, std::move(cb));
    }
  }
};

// ---------------------------------------------------------------------------
// Benchmark wrappers: warm each engine to steady state (vector growth out of
// the way), then measure ops/sec and allocations over the hot phase.
// ---------------------------------------------------------------------------

void report(benchmark::State& state, std::uint64_t total_ops, std::uint64_t allocs,
            std::uint64_t alloc_ops, std::size_t peak_queued) {
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(total_ops), benchmark::Counter::kIsRate);
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(alloc_ops > 0 ? alloc_ops : 1);
  state.counters["peak_queued"] = static_cast<double>(peak_queued);
}

template <class Engine>
void profile_schedule_heavy(benchmark::State& state) {
  constexpr int kEvents = 1 << 16;
  std::uint64_t total_ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_ops = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine eng;
    Sink sink;
    // Warm with the full batch size so the engine's vectors reach their
    // steady-state capacity before allocations are counted.
    drive_schedule_heavy(eng, sink, kEvents);
    const std::uint64_t a0 = bench_alloc::count();
    state.ResumeTiming();
    const std::uint64_t ops = drive_schedule_heavy(eng, sink, kEvents);
    state.PauseTiming();
    allocs += bench_alloc::count() - a0;
    alloc_ops += ops;
    total_ops += ops;
    peak = std::max(peak, eng.queued_entries());
    benchmark::DoNotOptimize(sink.sum);
    state.ResumeTiming();
  }
  // schedule_heavy holds the whole batch queued at once by design.
  report(state, total_ops, allocs, alloc_ops, static_cast<std::size_t>(1 << 16));
}

template <class Engine>
void profile_cancel_heavy(benchmark::State& state) {
  constexpr int kWarmup = 4096;
  constexpr int kArrivals = 1 << 18;
  std::uint64_t total_ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_ops = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine eng;
    Sink sink;
    PagingChurn<Engine> churn{eng, sink};
    churn.run(kWarmup);  // steady state: containers grown, dead entries flushed
    const std::uint64_t a0 = bench_alloc::count();
    const std::uint64_t ops0 = churn.ops;
    churn.peak_queued = 0;
    state.ResumeTiming();
    churn.run(kArrivals);
    state.PauseTiming();
    allocs += bench_alloc::count() - a0;
    alloc_ops += churn.ops - ops0;
    total_ops += churn.ops - ops0;
    peak = std::max(peak, churn.peak_queued);
    benchmark::DoNotOptimize(sink.sum);
    state.ResumeTiming();
  }
  report(state, total_ops, allocs, alloc_ops, peak);
}

template <class Engine>
void profile_mixed(benchmark::State& state) {
  constexpr int kBursts = 64;
  constexpr int kBurstSize = 4096;
  std::uint64_t total_ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_ops = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine eng;
    Sink sink;
    std::vector<typename Engine::EventId> ids;
    std::size_t warm_peak = 0;
    drive_mixed(eng, sink, 2, kBurstSize, warm_peak, ids);
    const std::uint64_t a0 = bench_alloc::count();
    state.ResumeTiming();
    const std::uint64_t ops = drive_mixed(eng, sink, kBursts, kBurstSize, peak, ids);
    state.PauseTiming();
    allocs += bench_alloc::count() - a0;
    alloc_ops += ops;
    total_ops += ops;
    benchmark::DoNotOptimize(sink.sum);
    state.ResumeTiming();
  }
  report(state, total_ops, allocs, alloc_ops, peak);
}

template <class Engine, Cadence kCadence>
void profile_burst_cycle(benchmark::State& state) {
  using Cycle = BurstCycle<Engine, kCadence>;
  constexpr std::uint64_t kWarmFires = 4 * Cycle::kActors;
  constexpr std::uint64_t kFires = 1 << 19;
  std::uint64_t total_ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine eng;
    Cycle cycle{eng};
    cycle.run(kWarmFires);
    const std::uint64_t a0 = bench_alloc::count();
    const std::uint64_t ops0 = cycle.ops;
    state.ResumeTiming();
    cycle.run(kFires);
    state.PauseTiming();
    allocs += bench_alloc::count() - a0;
    alloc_ops += cycle.ops - ops0;
    total_ops += cycle.ops - ops0;
    benchmark::DoNotOptimize(cycle.actors.front()->state.data());
    benchmark::ClobberMemory();
    state.ResumeTiming();
  }
  // Every actor has exactly one event queued between its fires.
  report(state, total_ops, allocs, alloc_ops, Cycle::kActors);
}

void BM_ScheduleHeavy_Indexed(benchmark::State& state) {
  profile_schedule_heavy<sim::Simulator>(state);
}
void BM_ScheduleHeavy_Lazy(benchmark::State& state) { profile_schedule_heavy<LazyEngine>(state); }
void BM_CancelHeavy_Indexed(benchmark::State& state) { profile_cancel_heavy<sim::Simulator>(state); }
void BM_CancelHeavy_Lazy(benchmark::State& state) { profile_cancel_heavy<LazyEngine>(state); }
void BM_Mixed_Indexed(benchmark::State& state) { profile_mixed<sim::Simulator>(state); }
void BM_Mixed_Lazy(benchmark::State& state) { profile_mixed<LazyEngine>(state); }
void BM_BurstCycle_Indexed(benchmark::State& state) {
  profile_burst_cycle<sim::Simulator, Cadence::kJittered>(state);
}
void BM_BurstCycle_Lazy(benchmark::State& state) {
  profile_burst_cycle<LazyEngine, Cadence::kJittered>(state);
}
void BM_LockstepCycle_Indexed(benchmark::State& state) {
  profile_burst_cycle<sim::Simulator, Cadence::kLockstep>(state);
}
void BM_LockstepCycle_Lazy(benchmark::State& state) {
  profile_burst_cycle<LazyEngine, Cadence::kLockstep>(state);
}

BENCHMARK(BM_ScheduleHeavy_Indexed);
BENCHMARK(BM_ScheduleHeavy_Lazy);
BENCHMARK(BM_CancelHeavy_Indexed);
BENCHMARK(BM_CancelHeavy_Lazy);
BENCHMARK(BM_Mixed_Indexed);
BENCHMARK(BM_Mixed_Lazy);
BENCHMARK(BM_BurstCycle_Indexed);
BENCHMARK(BM_BurstCycle_Lazy);
BENCHMARK(BM_LockstepCycle_Indexed);
BENCHMARK(BM_LockstepCycle_Lazy);

// ---------------------------------------------------------------------------
// The original ad-hoc microbenches.
// ---------------------------------------------------------------------------

void BM_ScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      simulator.schedule_at(Time::from_us(i), [] {});
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_TimerCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::vector<sim::Simulator::EventId> ids;
    ids.reserve(10000);
    for (std::int64_t i = 0; i < 10000; ++i) {
      ids.push_back(simulator.schedule_at(Time::from_us(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      simulator.cancel(ids[i]);
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TimerCancellation);

void BM_FabricSend(benchmark::State& state) {
  sim::Simulator simulator;
  net::Fabric fabric{simulator, 2};
  fabric.set_handler(1, [](const net::Message&) {});
  std::uint64_t sent = 0;
  for (auto _ : state) {
    fabric.send(net::Message{0, 1, 4506, net::Background{}});
    if (++sent % 1024 == 0) {
      simulator.run();  // drain periodically so the heap stays small
    }
  }
  simulator.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}
BENCHMARK(BM_FabricSend);

void BM_ExecutorLocalRefs(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<proc::Ref> refs(100000,
                                proc::Ref{300, Time::from_ns(500), proc::Ref::Kind::Memory});
    for (std::size_t i = 0; i < refs.size(); ++i) {
      refs[i].page = 300 + (i % 512);
    }
    sim::Simulator simulator;
    proc::Process process{1,
                          std::make_unique<proc::TraceStream>(std::move(refs), 4 * sim::kMiB),
                          0};
    process.aspace().populate_all_dirty();
    proc::Executor executor{simulator, process, proc::NodeCosts{}};
    state.ResumeTiming();
    executor.start();
    simulator.run();
    benchmark::DoNotOptimize(executor.stats().refs_consumed);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ExecutorLocalRefs);

}  // namespace

BENCHMARK_MAIN();
