// Scale sweep: how far does one machine carry the cluster world?
//
// Each case builds a zoned gossip cluster (fan-out 3), lands a job burst on
// half of every zone's nodes and lets the zone-sharded balancer spread it,
// then reports the cost of the whole run:
//
//   events                total simulator events (deterministic)
//   sim_sec               simulated makespan (deterministic)
//   msgs_per_node_period  InfoDaemon sends per node per gossip period
//                         (deterministic; the O(fan_out)-not-O(n) proof)
//   wall_sec              host wall time (informational, machine-dependent)
//   events_per_sec        events / wall_sec (informational)
//   ns_per_event          wall_sec / events in ns: per-event host cost
//                         against live-process count (informational; no
//                         gate rule reads it)
//   peak_rss_mb           process peak RSS after the case (the grid ascends,
//                         so it is this case's footprint; gated one-sided)
//
// tools/perf_gate gates the --json output (one case per size, "n64") against
// the committed BENCH_scale.json: the deterministic fields plus the
// wall-time trajectory. Grids:
//
//   --quick    64 (8x8) and 256 (16x16) nodes         (CI smoke)
//   (default)  quick + 1024 (32x32) and 2000 (20x100)
//   --full     default + 10000 (100x100), 100k procs  (the 10k-node claim)

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "bench/common.hpp"
#include "driver/builder.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace ampom;

struct CaseSpec {
  std::uint32_t zones;
  std::uint32_t nodes_per_zone;
  std::uint32_t procs_per_node;  // spawned on the even nodes of each zone
};

struct CaseResult {
  std::uint32_t nodes;
  std::uint32_t zones;
  std::uint32_t fan_out;
  std::uint64_t procs;
  std::uint64_t events;
  double sim_sec;
  double msgs_per_node_period;
  double wall_sec;
  double events_per_sec;
  double ns_per_event;
  double peak_rss_mb;
};

constexpr std::uint32_t kFanOut = 3;

balancer::JobSpec scale_job(net::NodeId home, std::uint64_t index) {
  balancer::JobSpec job;
  job.home = home;
  job.label = "scale";
  job.start = sim::Time::from_ms(25 * (index % 8));
  // Small image, small hot set: migrations stay cheap so the sweep measures
  // the cluster fabric (gossip, balancing, event engine), not paging volume.
  job.make_workload = [index] {
    return std::make_unique<workload::HotColdStream>(
        2 * sim::kMiB, /*hot_pages=*/64, /*touches=*/4000 + 500 * (index % 5),
        /*cold_fraction=*/0.05, sim::Time::from_us(100));
  };
  return job;
}

CaseResult run_case(const CaseSpec& spec) {
  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(spec.zones, spec.nodes_per_zone)
                                        .gossip(kFanOut)
                                        .build();
  const auto wall_begin = std::chrono::steady_clock::now();  // ampom-lint: nondet-ok(wall throughput is a reported quantity, never fed back into the run)
  balancer::ClusterSim world{scenario};

  // The burst: procs_per_node jobs on every even node, none on odd ones —
  // a 2x imbalance inside every zone for the balancer to flatten.
  std::uint64_t spawned = 0;
  const std::uint32_t nodes = spec.zones * spec.nodes_per_zone;
  for (net::NodeId node = 0; node < nodes; node += 2) {
    for (std::uint32_t j = 0; j < 2 * spec.procs_per_node; ++j) {
      world.spawn(scale_job(node, spawned++));
    }
  }

  balancer::LoadBalancer::Config cfg;
  cfg.assumed_freeze_seconds = 0.2;
  balancer::LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();
  const auto wall_end = std::chrono::steady_clock::now();  // ampom-lint: nondet-ok(wall throughput is a reported quantity, never fed back into the run)

  std::uint64_t daemon_msgs = 0;
  for (net::NodeId id = 0; id < nodes; ++id) {
    // Pings this daemon sent plus acks it received ~= its total sends (every
    // received gossip ping is answered by one ack).
    daemon_msgs += world.infod(id).pings_sent() + world.infod(id).acks_received();
  }

  CaseResult result;
  result.nodes = nodes;
  result.zones = spec.zones;
  result.fan_out = kFanOut;
  result.procs = spawned;
  result.events = world.simulator().events_processed();
  result.sim_sec = world.makespan().sec();
  const double periods = result.sim_sec / world.infod_period().sec();
  result.msgs_per_node_period =
      periods > 0.0 ? static_cast<double>(daemon_msgs) / nodes / periods : 0.0;
  result.wall_sec = std::chrono::duration<double>(wall_end - wall_begin).count();
  result.events_per_sec =
      result.wall_sec > 0.0 ? static_cast<double>(result.events) / result.wall_sec : 0.0;
  result.ns_per_event =
      result.events > 0 ? result.wall_sec * 1e9 / static_cast<double>(result.events) : 0.0;
  result.peak_rss_mb = bench::peak_rss_mb();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::GridOptions opts = bench::parse_grid_options(argc, argv);
  std::vector<CaseSpec> grid = {{8, 8, 10}, {16, 16, 10}};
  if (!opts.quick) {
    grid.push_back({32, 32, 10});
    grid.push_back({20, 100, 10});
  }
  if (opts.full) {
    grid.push_back({100, 100, 10});
  }

  bench::ResultDoc doc{"scale_sweep"};
  for (const CaseSpec& spec : grid) {
    const CaseResult r = run_case(spec);
    std::cout << "n" << r.nodes << ": " << r.procs << " procs, " << r.events
              << " events, sim " << r.sim_sec << " s, wall " << r.wall_sec << " s ("
              << r.events_per_sec / 1e6 << " Mev/s, " << r.ns_per_event << " ns/event), "
              << r.msgs_per_node_period
              << " msgs/node/period, peak RSS " << r.peak_rss_mb << " MiB\n";
    // Appended, not `"n" + std::to_string(...)`: g++ 12 -O3 reports a false
    // -Wrestrict on that temporary operator+.
    std::string name = "n";
    name += std::to_string(r.nodes);
    doc.add(std::move(name),
            {{"nodes", r.nodes},
             {"zones", r.zones},
             {"fan_out", r.fan_out},
             {"procs", static_cast<double>(r.procs)},
             {"events", static_cast<double>(r.events)},
             {"sim_sec", r.sim_sec},
             {"msgs_per_node_period", r.msgs_per_node_period},
             {"wall_sec", r.wall_sec},
             {"events_per_sec", r.events_per_sec},
             {"ns_per_event", r.ns_per_event},
             {"peak_rss_mb", r.peak_rss_mb}});
  }
  return doc.write(opts.json_path);
}
