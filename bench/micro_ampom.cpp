// Microbenchmarks of the AMPoM analysis path — the code that runs inside
// the page-fault handler, whose cost Fig. 11 bounds below 0.6 % of runtime.
// These measure the real host cost of each analysis step; the simulator
// charges the calibrated equivalents from AmpomConfig.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/dependent_zone.hpp"
#include "core/locality.hpp"
#include "core/lookback_window.hpp"
#include "simcore/rng.hpp"

namespace {

using namespace ampom;

core::LookbackWindow sequential_window(std::size_t l) {
  core::LookbackWindow w{l};
  std::int64_t t = 0;
  for (std::size_t i = 0; i < l; ++i) {
    w.record(1000 + i, sim::Time::from_us(++t), 0.8);
  }
  return w;
}

core::LookbackWindow random_window(std::size_t l, std::uint64_t seed) {
  core::LookbackWindow w{l};
  sim::Rng rng{seed};
  std::int64_t t = 0;
  for (std::size_t i = 0; i < l; ++i) {
    w.record(rng.uniform(1u << 20), sim::Time::from_us(++t), 0.8);
  }
  return w;
}

void BM_WindowRecord(benchmark::State& state) {
  core::LookbackWindow w{static_cast<std::size_t>(state.range(0))};
  std::int64_t t = 0;
  mem::PageId page = 0;
  for (auto _ : state) {
    w.record(page += 2, sim::Time::from_us(++t), 0.5);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_WindowRecord)->Arg(20)->Arg(64);

void BM_LocalityScoreSequential(benchmark::State& state) {
  const auto w = sequential_window(static_cast<std::size_t>(state.range(0)));
  core::LocalityAnalyzer analyzer{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.score(w));
  }
}
BENCHMARK(BM_LocalityScoreSequential)->Arg(20)->Arg(64);

void BM_LocalityScoreRandom(benchmark::State& state) {
  const auto w = random_window(static_cast<std::size_t>(state.range(0)), 42);
  core::LocalityAnalyzer analyzer{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.score(w));
  }
}
BENCHMARK(BM_LocalityScoreRandom)->Arg(20)->Arg(64);

void BM_OutstandingStreams(benchmark::State& state) {
  const auto w = sequential_window(20);
  core::LocalityAnalyzer analyzer{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.outstanding_streams(w));
  }
}
BENCHMARK(BM_OutstandingStreams)->Arg(2)->Arg(4)->Arg(8);

void BM_ZoneSize(benchmark::State& state) {
  core::AmpomConfig cfg;
  core::ZoneInputs in;
  in.locality_score = 0.7;
  in.paging_rate_hz = 2800.0;
  in.cpu_mean = 0.3;
  in.cpu_next = 1.0;
  in.rtt_one_way = sim::Time::from_us(100);
  in.page_transfer = sim::Time::from_us(360);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::zone_size(in, cfg));
  }
}
BENCHMARK(BM_ZoneSize);

void BM_SelectZone(benchmark::State& state) {
  const auto w = sequential_window(20);
  core::LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_zone(w, streams, n, 1u << 20));
  }
}
BENCHMARK(BM_SelectZone)->Arg(8)->Arg(64)->Arg(256);

// Page of fault i when kCursors stride streams advance in lockstep, each
// starting kCursorGap pages after the previous one: the streams' zones
// overlap, so the §3.4 saved-quota rule decides most of the zone.
constexpr std::uint64_t kCursors = 4;
constexpr std::uint64_t kCursorGap = 10;
mem::PageId interleaved_page(std::uint64_t i) {
  return 5000 + (i % kCursors) * kCursorGap + (i / kCursors) % (1u << 16);
}

void BM_SelectZoneInterleaved(benchmark::State& state) {
  core::LookbackWindow w{20};
  for (std::uint64_t i = 0; i < 20; ++i) {
    w.record(interleaved_page(i), sim::Time::from_us(static_cast<std::int64_t>(i) + 1), 0.8);
  }
  core::LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<mem::PageId> zone;
  for (auto _ : state) {
    core::select_zone(w, streams, n, 1u << 20, zone);
    benchmark::DoNotOptimize(zone.data());
  }
  state.counters["streams"] = static_cast<double>(streams.size());
}
BENCHMARK(BM_SelectZoneInterleaved)->Arg(64)->Arg(256);

// The full per-fault analysis pipeline, as the policy runs it, on a
// multi-stream window faulting fast enough that Eq. 3 reaches zone_cap.
void BM_FullAnalysis(benchmark::State& state) {
  core::AmpomConfig cfg;
  core::LocalityAnalyzer analyzer{cfg.dmax};
  core::LookbackWindow w{cfg.lookback_length};
  std::vector<core::StrideStream> streams;
  std::vector<mem::PageId> zone;
  std::int64_t t = 0;
  std::uint64_t i = 0;
  std::uint64_t zone_pages = 0;
  for (auto _ : state) {
    w.record(interleaved_page(i++), sim::Time::from_us(++t), 0.4);
    core::ZoneInputs in;
    in.locality_score = analyzer.score_and_streams(w, streams);
    in.paging_rate_hz = w.paging_rate_hz();
    in.cpu_mean = w.mean_cpu();
    in.cpu_next = 1.0;
    in.rtt_one_way = sim::Time::from_us(100);
    in.page_transfer = sim::Time::from_us(360);
    const auto n = core::zone_size(in, cfg);
    core::select_zone(w, streams, n, 1u << 22, zone);
    benchmark::DoNotOptimize(zone.data());
    zone_pages += zone.size();
  }
  state.counters["zone_pages"] =
      static_cast<double>(zone_pages) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FullAnalysis);

}  // namespace

BENCHMARK_MAIN();
