// Tests of the perf_gate comparator: JSON parsing, adaptation of raw
// google-benchmark output, the schema-2 round trip (bench writer and gate
// renderer alike), and every row of the rule table for the four tools.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <string>

#include "bench/common.hpp"
#include "perf_gate/gate.hpp"

namespace ampom::perfgate {
namespace {

JsonValue parse_ok(const std::string& text) {
  std::string error;
  auto doc = parse_json(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc ? *doc : JsonValue{};
}

Doc load_ok(const std::string& text) {
  std::string error;
  auto doc = load_doc(parse_ok(text), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc ? *doc : Doc{};
}

std::string load_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(load_doc(parse_ok(text), &error).has_value()) << text;
  return error;
}

// True when some failure message contains every one of `parts`.
bool has_failure(const GateResult& result, std::initializer_list<const char*> parts) {
  for (const std::string& failure : result.failures) {
    bool all = true;
    for (const char* part : parts) {
      all = all && failure.find(part) != std::string::npos;
    }
    if (all) {
      return true;
    }
  }
  return false;
}

std::string first_failure(const GateResult& result) {
  return result.failures.empty() ? "" : result.failures.front();
}

TEST(PerfGateJson, ParsesScalarsArraysAndNestedObjects) {
  const JsonValue doc = parse_ok(
      R"({"name": "x", "n": -2.5e3, "flag": true, "none": null,
          "list": [1, 2, 3], "inner": {"k": "v\n\"q\""}})");
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.find("name")->string, "x");
  EXPECT_DOUBLE_EQ(doc.find("n")->number, -2500.0);
  EXPECT_TRUE(doc.find("flag")->boolean);
  EXPECT_EQ(doc.find("none")->kind, JsonValue::Kind::Null);
  ASSERT_EQ(doc.find("list")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("list")->array[2].number, 3.0);
  EXPECT_EQ(doc.find("inner")->find("k")->string, "v\n\"q\"");
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(PerfGateJson, RejectsMalformedInput) {
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "{\"a\": 1} x", "\"unterminated",
                          "{\"a\": nope}", ""}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(PerfGateJson, DeeplyNestedInputIsRejectedNotACrash) {
  // Unbounded recursion would overflow the stack on two million '['.
  std::string error;
  EXPECT_FALSE(parse_json(std::string(2'000'000, '['), &error).has_value());
  EXPECT_EQ(error, "nesting deeper than 4 at byte 4");
  // The deepest real input (google-benchmark's context.caches[i]) fits.
  EXPECT_TRUE(parse_json(R"({"a": [{"b": [1]}]})", &error).has_value()) << error;
  EXPECT_FALSE(parse_json(R"({"a": [{"b": [[1]]}]})", &error).has_value());
}

TEST(PerfGateJson, RendersDeterministicValuesAtRoundTripPrecision) {
  // A 9-digit event count and a simulated time that needs all 17
  // significant digits: both writers must print them so they parse back
  // bit-identical, or the exact w1 == wN checks cannot see small drift.
  const double events = 155726513.0;
  const double sim_sec = std::nextafter(10.0052, 11.0);
  bench::ResultDoc written{"parallel_sweep"};
  written.add("n10000/w1", {{"nodes", 10000},
                            {"workers", 1},
                            {"events", events},
                            {"sim_sec", sim_sec},
                            {"wall_sec", 1.0},
                            {"peak_rss_mb", 900.5}});
  const Doc from_bench = load_ok(written.render());
  EXPECT_EQ(from_bench.cases.at("n10000/w1").at("events"), events);
  EXPECT_EQ(from_bench.cases.at("n10000/w1").at("sim_sec"), sim_sec);
  const Doc rerendered = load_ok(render_doc(from_bench));
  EXPECT_EQ(rerendered.cases, from_bench.cases);
  EXPECT_EQ(rerendered.host_cpus, from_bench.host_cpus);
}

// --- micro_simcore ----------------------------------------------------------

// A raw google-benchmark document with the ten profile benches (extra
// benches and fields present, as in real output).
std::string raw_run(double indexed_cancel_rate, double indexed_cancel_allocs) {
  auto bench = [](const std::string& name, double rate, double allocs, double peak) {
    return R"({"name": ")" + name + R"(", "run_type": "iteration",
               "real_time": 1.0, "events_per_sec": )" + std::to_string(rate) +
           R"(, "allocs_per_op": )" + std::to_string(allocs) +
           R"(, "peak_queued": )" + std::to_string(peak) + "}";
  };
  return R"({"context": {"num_cpus": 8, "caches": [{"level": 1}]}, "benchmarks": [)" +
         bench("BM_ScheduleHeavy_Indexed", 11.0e6, 0.0, 65536) + "," +
         bench("BM_ScheduleHeavy_Lazy", 7.0e6, 1.0, 65536) + "," +
         bench("BM_CancelHeavy_Indexed", indexed_cancel_rate, indexed_cancel_allocs, 1) + "," +
         bench("BM_CancelHeavy_Lazy", 15.0e6, 0.75, 1000) + "," +
         bench("BM_Mixed_Indexed", 36.0e6, 0.0, 2048) + "," +
         bench("BM_Mixed_Lazy", 12.0e6, 1.0, 4096) + "," +
         bench("BM_BurstCycle_Indexed", 6.0e6, 0.0, 5120) + "," +
         bench("BM_BurstCycle_Lazy", 5.0e6, 0.5, 5120) + "," +
         bench("BM_LockstepCycle_Indexed", 9.0e6, 0.0, 5120) + "," +
         bench("BM_LockstepCycle_Lazy", 6.0e6, 0.5, 5120) + "," +
         bench("BM_ScheduleAndRun/1000", 1.0e6, 0.0, 0) + "]}";
}

Doc engine_run(double cancel_rate, double cancel_allocs) {
  std::string error;
  const auto doc = summarize_raw(parse_ok(raw_run(cancel_rate, cancel_allocs)), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc ? *doc : Doc{};
}

TEST(PerfGateSummary, NormalizesRawBenchmarkOutput) {
  const Doc doc = engine_run(73.0e6, 0.0);
  EXPECT_EQ(doc.tool, "micro_simcore");
  EXPECT_DOUBLE_EQ(doc.host_cpus, 8.0);
  ASSERT_EQ(doc.cases.size(), 10u);
  const Metrics& cancel = doc.cases.at("cancel_heavy/indexed");
  EXPECT_DOUBLE_EQ(cancel.at("events_per_sec"), 73.0e6);
  EXPECT_DOUBLE_EQ(doc.cases.at("cancel_heavy/lazy").at("peak_queued"), 1000.0);
  EXPECT_NEAR(cancel.at("speedup_vs_lazy"), 73.0 / 15.0, 1e-9);
  EXPECT_NEAR(doc.cases.at("mixed/indexed").at("speedup_vs_lazy"), 3.0, 1e-9);
}

TEST(PerfGateSummary, MissingBenchmarkOrCounterIsAnErrorNotAPass) {
  std::string error;
  EXPECT_FALSE(summarize_raw(parse_ok(R"({"benchmarks": []})"), &error).has_value());
  EXPECT_NE(error.find("BM_ScheduleHeavy_Indexed"), std::string::npos) << error;

  // Drop one counter from one bench: still an error.
  std::string raw = raw_run(73.0e6, 0.0);
  const auto pos = raw.find("\"peak_queued\"");
  ASSERT_NE(pos, std::string::npos);
  raw.replace(pos, 13, "\"renamed\"");
  EXPECT_FALSE(summarize_raw(parse_ok(raw), &error).has_value());
  EXPECT_NE(error.find("peak_queued"), std::string::npos) << error;
}

TEST(PerfGateSummary, RenderedSummaryRoundTripsThroughLoad) {
  const Doc doc = engine_run(73.0e6, 0.0);
  const std::string rendered = render_doc(doc);
  const Doc reloaded = load_ok(rendered);
  EXPECT_EQ(reloaded.tool, doc.tool);
  EXPECT_EQ(reloaded.cases, doc.cases);  // exact, not approximate
  // Rendering is deterministic: same document, same bytes.
  EXPECT_EQ(rendered, render_doc(reloaded));
}

TEST(PerfGateGate, PassesAHealthyRunWithoutABaseline) {
  const GateResult result = gate(engine_run(73.0e6, 0.0), nullptr, GateOptions{});
  EXPECT_TRUE(result.pass) << first_failure(result);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.notes.size(), 10u);  // one throughput line per case
}

TEST(PerfGateGate, AnySingleIndexedAllocationFailsTheSboInvariant) {
  const Doc current = engine_run(73.0e6, 1e-6);  // one alloc per million ops
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(has_failure(result, {"cancel_heavy/indexed", "allocs_per_op"}));
}

TEST(PerfGateGate, CancelHeavySpeedupBelowTheFloorFails) {
  const Doc current = engine_run(20.0e6, 0.0);  // 1.33x < the 1.5x floor
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(has_failure(result, {"speedup_vs_lazy", "below the floor 1.5"}));
}

TEST(PerfGateGate, BaselineTrajectoryIsEnforcedWithTolerance) {
  const Doc baseline = engine_run(73.0e6, 0.0);  // speedup 4.867x
  // The 30% band puts the floor at 3.407x: 3.41x passes, 3.40x fails.
  EXPECT_TRUE(gate(engine_run(3.41 * 15.0e6, 0.0), &baseline, GateOptions{}).pass);
  const GateResult slow = gate(engine_run(3.40 * 15.0e6, 0.0), &baseline, GateOptions{});
  EXPECT_FALSE(slow.pass);
  ASSERT_EQ(slow.failures.size(), 1u);
  EXPECT_TRUE(has_failure(slow, {"cancel_heavy/indexed", "speedup regressed"}));
}

TEST(PerfGateGate, PeakQueuedGrowthPastBaselineFails) {
  const Doc baseline = engine_run(73.0e6, 0.0);
  Doc current = engine_run(73.0e6, 0.0);
  // A leak-shaped regression: cancelled entries pile up again.
  current.cases.at("cancel_heavy/indexed").at("peak_queued") = 500.0;
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(has_failure(result, {"peak_queued"}));
}

TEST(PerfGateGate, ProfileMissingFromCurrentRunFails) {
  const Doc baseline = engine_run(73.0e6, 0.0);
  Doc current = engine_run(73.0e6, 0.0);
  current.cases.erase("mixed/indexed");
  current.cases.erase("mixed/lazy");
  GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"mixed/indexed", "was not run"}));
  // cancel_heavy carries the floor, so it must be present even without a
  // baseline.
  current = engine_run(73.0e6, 0.0);
  current.cases.erase("cancel_heavy/indexed");
  result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"cancel_heavy/indexed", "missing from this run"}));
}

TEST(PerfGateLoad, RejectsDocumentsWithoutSchemaOrProfiles) {
  EXPECT_NE(load_error(R"({"tool": "scale_sweep", "cases": {}})").find("schema"),
            std::string::npos);
  // A schema-1 document is not silently accepted.
  EXPECT_NE(load_error(R"({"schema": 1, "tool": "perf_gate", "profiles": {}})").find("schema"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "micro_simcore", "host_cpus": 1})")
                .find("cases"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "nobody", "host_cpus": 1, "cases": {}})")
                .find("no rules for tool 'nobody'"),
            std::string::npos);
}

// --- scale_sweep ------------------------------------------------------------

Metrics scale_case(double nodes, double msgs, double events, double wall) {
  return {{"nodes", nodes},       {"zones", nodes / 8.0},
          {"fan_out", 3.0},       {"procs", nodes * 10.0},
          {"events", events},     {"sim_sec", 10.0},
          {"msgs_per_node_period", msgs}, {"wall_sec", wall},
          {"events_per_sec", wall > 0.0 ? events / wall : 0.0},
          {"peak_rss_mb", nodes / 10.0}};
}

Doc healthy_scale() {
  Doc doc;
  doc.tool = "scale_sweep";
  doc.cases.emplace("n64", scale_case(64, 5.97, 1.0e6, 0.5));
  doc.cases.emplace("n256", scale_case(256, 5.91, 4.0e6, 3.6));
  doc.cases.emplace("n1024", scale_case(1024, 6.00, 16.0e6, 19.0));
  return doc;
}

TEST(PerfGateScale, RoundTripsAndPassesWithoutBaseline) {
  const Doc reloaded = load_ok(render_doc(healthy_scale()));
  EXPECT_EQ(reloaded.cases.size(), 3u);
  EXPECT_EQ(reloaded.cases.at("n1024").at("msgs_per_node_period"), 6.00);
  const GateResult result = gate(reloaded, nullptr, GateOptions{});
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateScale, PerNodeTrafficAboveFanOutCeilingFails) {
  Doc current = healthy_scale();
  // An all-pairs regression: traffic scales with cluster size again.
  current.cases.at("n1024").at("msgs_per_node_period") = 2.0 * 1023.0;
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n1024", "O(fan_out) ceiling"}));
}

TEST(PerfGateScale, TrafficTrendingWithClusterSizeFails) {
  Doc current = healthy_scale();
  // Below the 3x-fan_out ceiling but clearly growing with n: the
  // size-independence spread check must object.
  current.cases.at("n64").at("msgs_per_node_period") = 4.0;
  current.cases.at("n256").at("msgs_per_node_period") = 6.0;
  current.cases.at("n1024").at("msgs_per_node_period") = 8.5;
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"depends on cluster size"}));
}

TEST(PerfGateScale, ZeroTrafficCaseFailsTheSpreadCheck) {
  // Daemons that went silent in one case (0 msgs/node/period) are the
  // widest spread there is, not a reason to skip the check.
  Doc current = healthy_scale();
  current.cases.at("n256").at("msgs_per_node_period") = 0.0;
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"spreads from 0 to 6", "depends on cluster size"}));
  // All-silent is uniform, not a spread (the baseline bands catch it).
  for (auto& [name, metrics] : current.cases) {
    metrics.at("msgs_per_node_period") = 0.0;
  }
  EXPECT_TRUE(gate(current, nullptr, GateOptions{}).pass);
}

TEST(PerfGateScale, BaselineOnlyCaseFailsByDefaultNamingTheCase) {
  // A case silently dropped from the run must not gate green: nothing
  // compared it. The failure names the case so the fix is obvious.
  const Doc baseline = healthy_scale();
  Doc current = healthy_scale();
  current.cases.erase("n1024");
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n1024", "was not run"}));
}

TEST(PerfGateScale, AllowCaseSubsetWaivesBaselineOnlyMisses) {
  // The committed baseline carries the --full grid; a CI --quick run with a
  // subset of cases gates cleanly only under the explicit waiver.
  const Doc baseline = healthy_scale();
  Doc current = healthy_scale();
  current.cases.erase("n1024");
  const GateResult result = gate(current, &baseline, GateOptions{.allow_case_subset = true});
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateScale, CurrentOnlyCaseFailsEvenWithTheSubsetWaiver) {
  // The inverse mismatch — a case the baseline has never seen — is never
  // waivable: until the baseline is refreshed, nothing gates that case.
  const Doc baseline = healthy_scale();
  Doc current = healthy_scale();
  Metrics extra = current.cases.at("n1024");
  extra.at("nodes") = 4096.0;
  current.cases.emplace("n4096", extra);
  const GateResult result = gate(current, &baseline, GateOptions{.allow_case_subset = true});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n4096", "missing from the baseline"}));
}

TEST(PerfGateScale, EventDriftPastToleranceFails) {
  const Doc baseline = healthy_scale();
  Doc current = healthy_scale();
  current.cases.at("n256").at("events") *= 1.5;
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n256", "events", "outside the baseline band"}));
}

TEST(PerfGateScale, WallTimeTrajectoryRegressionFails) {
  // Same machine speed at the anchor, but the big case takes 3x the
  // baseline's relative wall time: the scaling shape regressed even though
  // every absolute number alone could be blamed on a slower machine.
  const Doc baseline = healthy_scale();
  Doc current = healthy_scale();
  current.cases.at("n1024").at("wall_sec") *= 3.0;
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n1024", "relative to n64", "scaling shape regressed"}));
}

TEST(PerfGateScale, PeakRssGrowthPastBaselineFails) {
  const Doc baseline = healthy_scale();
  Doc current = healthy_scale();
  current.cases.at("n64").at("peak_rss_mb") *= 0.25;  // shrinking is never a failure
  current.cases.at("n1024").at("peak_rss_mb") *= 1.25;
  EXPECT_TRUE(gate(current, &baseline, GateOptions{}).pass);
  current.cases.at("n1024").at("peak_rss_mb") *= 1.1;  // 1.375x the baseline
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n1024", "peak_rss_mb", "peak memory grew"}));
  EXPECT_EQ(result.failures.size(), 1u) << first_failure(result);
}

TEST(PerfGateScale, RejectsNonScaleDocuments) {
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "scale_sweep", "host_cpus": 1, "cases": {}})")
                .find("cases"),
            std::string::npos);
  // A case without a metric a scale rule reads cannot be gated.
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "scale_sweep", "host_cpus": 1,
                          "cases": {"n64": {"nodes": 64, "msgs_per_node_period": 6}}})")
                .find("'fan_out'"),
            std::string::npos);
  // One grouping level at most.
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "scale_sweep", "host_cpus": 1,
                          "cases": {"n64/a/b": {}}})")
                .find("at most one grouping level"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "scale_sweep", "host_cpus": 1,
                          "cases": {"n64": {"nodes": "64"}}})")
                .find("not a number"),
            std::string::npos);
}

// --- parallel_sweep ---------------------------------------------------------

Metrics parallel_run(double nodes, double workers, double events, double wall) {
  return {{"nodes", nodes},   {"zones", nodes / 100.0},
          {"procs", nodes * 10.0}, {"workers", workers},
          {"events", events}, {"sim_sec", 10.0},
          {"wall_sec", wall}, {"events_per_sec", wall > 0.0 ? events / wall : 0.0},
          {"peak_rss_mb", nodes / 10.0 + workers}};
}

// An 8-CPU recording: the big case clears the 2x floor, the small one is
// exempt from it (< 2000 nodes) and establishes the trajectory anchor.
Doc healthy_parallel() {
  Doc doc;
  doc.tool = "parallel_sweep";
  doc.host_cpus = 8.0;
  doc.cases.emplace("n256/w1", parallel_run(256, 1, 4013613.0, 4.0));
  doc.cases.emplace("n256/w4", parallel_run(256, 4, 4013613.0, 2.2));
  doc.cases.emplace("n2000/w1", parallel_run(2000, 1, 3.1e7, 40.0));
  doc.cases.emplace("n2000/w4", parallel_run(2000, 4, 3.1e7, 15.0));
  return doc;
}

TEST(PerfGateParallel, RoundTripsExactCountersAndPassesWithoutBaseline) {
  const Doc reloaded = load_ok(render_doc(healthy_parallel()));
  EXPECT_DOUBLE_EQ(reloaded.host_cpus, 8.0);
  // Exact, not approximate: a rounded render would turn the next
  // bit-identity check into noise.
  EXPECT_EQ(reloaded.cases.at("n256/w4").at("events"), 4013613.0);
  const GateResult result = gate(reloaded, nullptr, GateOptions{});
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateParallel, AnyScheduleDriftAcrossWorkerCountsFails) {
  Doc current = healthy_parallel();
  current.cases.at("n2000/w4").at("events") += 1.0;
  GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n2000/w4", "depends on the worker count"}));

  current = healthy_parallel();
  current.cases.at("n256/w4").at("sim_sec") += 1e-9;
  result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n256/w4", "sim_sec"}));
}

TEST(PerfGateParallel, SpeedupFloorBindsOnlyWhenTheHostHasTheCpus) {
  Doc current = healthy_parallel();
  current.cases.at("n2000/w4").at("wall_sec") = 35.0;  // 1.14x, floor is 2x
  const GateResult failed = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(failed.pass);
  EXPECT_TRUE(has_failure(failed, {"n2000/w4", "speedup over n2000/w1", "below the floor 2"}));

  // The same numbers from a 1-CPU container: no parallelism was available,
  // so only bit-identity and trajectory gate.
  current.host_cpus = 1.0;
  const GateResult skipped = gate(current, nullptr, GateOptions{});
  EXPECT_TRUE(skipped.pass) << first_failure(skipped);
}

TEST(PerfGateParallel, SmallCasesAreExemptFromTheSpeedupFloor) {
  Doc current = healthy_parallel();
  current.cases.at("n256/w4").at("wall_sec") = 6.0;  // slower than w1
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateParallel, BaselineOnlyCaseFailsByDefaultNamingTheCase) {
  const Doc baseline = healthy_parallel();
  Doc current = healthy_parallel();
  current.cases.erase("n2000/w1");
  current.cases.erase("n2000/w4");
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n2000/w4", "was not run"}));
}

TEST(PerfGateParallel, AllowCaseSubsetWaivesBaselineOnlyMisses) {
  const Doc baseline = healthy_parallel();
  Doc current = healthy_parallel();
  current.cases.erase("n2000/w1");
  current.cases.erase("n2000/w4");
  const GateResult result = gate(current, &baseline, GateOptions{.allow_case_subset = true});
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateParallel, BaselineEventDriftPastToleranceFails) {
  const Doc baseline = healthy_parallel();
  Doc current = healthy_parallel();
  // Consistent across workers, so bit-identity holds.
  current.cases.at("n2000/w1").at("events") *= 1.5;
  current.cases.at("n2000/w4").at("events") *= 1.5;
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n2000/w1", "outside the baseline band"}));
}

TEST(PerfGateParallel, WallTimeTrajectoryRegressionFails) {
  const Doc baseline = healthy_parallel();
  Doc current = healthy_parallel();
  // w1 on the big case takes 3x the baseline's relative wall time while the
  // anchor is unchanged — the serial engine's scaling shape regressed.
  current.cases.at("n2000/w1").at("wall_sec") *= 3.0;
  current.cases.at("n2000/w4").at("wall_sec") *= 3.0;
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n2000/w1", "scaling shape regressed"}));
}

TEST(PerfGateParallel, PeakRssGrowthPastBaselineFails) {
  const Doc baseline = healthy_parallel();
  Doc current = healthy_parallel();
  current.cases.at("n2000/w4").at("peak_rss_mb") *= 1.5;
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"n2000/w4", "peak_rss_mb", "peak memory grew"}));
  EXPECT_EQ(result.failures.size(), 1u) << first_failure(result);
}

TEST(PerfGateParallel, RejectsNonParallelAndIncompleteDocuments) {
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "parallel_sweep", "cases": {}})")
                .find("host_cpus"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "parallel_sweep", "host_cpus": 4, "cases": {
                            "n256/w1": {"nodes": 256, "workers": 1, "sim_sec": 1,
                                        "wall_sec": 1}}})")
                .find("'events'"),
            std::string::npos);
  // A size whose runs lack the w1 reference cannot be gated.
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "parallel_sweep", "host_cpus": 4, "cases": {
                            "n256/w4": {"nodes": 256, "workers": 4, "events": 10,
                                        "sim_sec": 1, "wall_sec": 1}}})")
                .find("no reference case 'n256/w1'"),
            std::string::npos);
}

// --- cache_ablation ---------------------------------------------------------

Metrics cache_run(double wss_kib, double migrations, double charged_ms) {
  return {{"wss_kib", wss_kib},          {"nodes", 3.0},
          {"procs", 5.0},                {"migrations", migrations},
          {"warmup_charged_ms", charged_ms}, {"warmup_paid_ms", charged_ms},
          {"makespan_sec", 30.0}};
}

Doc healthy_cache() {
  Doc doc;
  doc.tool = "cache_ablation";
  const struct {
    const char* name;
    double wss_kib;
    double load_ms;
    double cache_ms;
  } kCases[] = {
      {"wss1024k", 1024.0, 40.0, 25.0},
      {"wss4096k", 4096.0, 160.0, 95.0},
  };
  for (const auto& spec : kCases) {
    const std::string name = spec.name;
    doc.cases.emplace(name + "/load", cache_run(spec.wss_kib, 4.0, spec.load_ms));
    doc.cases.emplace(name + "/eq3", cache_run(spec.wss_kib, 4.0, spec.load_ms * 0.9));
    doc.cases.emplace(name + "/cache", cache_run(spec.wss_kib, 4.0, spec.cache_ms));
  }
  return doc;
}

TEST(PerfGateCache, HealthyAblationPasses) {
  const GateResult result = gate(healthy_cache(), nullptr, GateOptions{});
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateCache, MissingPolicyFailsNamingCaseAndPolicy) {
  Doc current = healthy_cache();
  current.cases.erase("wss4096k/eq3");
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"wss4096k/eq3", "missing from this run"}));
}

TEST(PerfGateCache, CacheAwareNotBeatingLoadFails) {
  // The acceptance invariant: under contention, cache-aware placement must
  // strictly reduce the total warm-up charge vs the load-greedy pick.
  Doc current = healthy_cache();
  for (const char* wss : {"wss1024k", "wss4096k"}) {
    current.cases.at(std::string(wss) + "/cache").at("warmup_charged_ms") =
        current.cases.at(std::string(wss) + "/load").at("warmup_charged_ms");
  }
  const GateResult result = gate(current, nullptr, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"not strictly below"}));
}

TEST(PerfGateCache, RoundTripsThroughRenderAndLoad) {
  const Doc doc = healthy_cache();
  const Doc reloaded = load_ok(render_doc(doc));
  EXPECT_EQ(reloaded.tool, doc.tool);
  EXPECT_EQ(reloaded.cases, doc.cases);
}

TEST(PerfGateCache, BaselineChargeRegressionFails) {
  const Doc baseline = healthy_cache();
  Doc current = healthy_cache();
  current.cases.at("wss4096k/cache").at("warmup_charged_ms") *= 2.0;
  const GateResult result = gate(current, &baseline, GateOptions{});
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(has_failure(result, {"wss4096k/cache", "warmup_charged_ms"}));
}

TEST(PerfGateCache, CaseMismatchFollowsTheFailByDefaultRule) {
  const Doc baseline = healthy_cache();
  Doc current = healthy_cache();
  for (const char* policy : {"load", "eq3", "cache"}) {
    current.cases.erase(std::string("wss1024k/") + policy);
  }
  EXPECT_FALSE(gate(current, &baseline, GateOptions{}).pass);
  const GateResult result = gate(current, &baseline, GateOptions{.allow_case_subset = true});
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateCache, RejectsForeignAndIncompleteDocuments) {
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "perf_gate", "host_cpus": 1, "cases": {}})")
                .find("no rules"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "cache_ablation", "host_cpus": 1, "cases": {
                            "wss64k/load": {"wss_kib": 64, "migrations": 1}}})")
                .find("'warmup_charged_ms'"),
            std::string::npos);
}

}  // namespace
}  // namespace ampom::perfgate
