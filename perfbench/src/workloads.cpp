#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "driver/builder.hpp"
#include "driver/experiment.hpp"
#include "driver/runner.hpp"
#include "net/fabric.hpp"
#include "simcore/simulator.hpp"
#include "trace/trace.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

using namespace ampom;

void Execution::fail(const std::string& reason) {
  ++failed;
  if (failures.size() < 10) {
    failures.push_back(reason);
  }
}

namespace {

using StreamFactory = std::function<std::unique_ptr<proc::ReferenceStream>()>;

constexpr std::size_t kCaptureTotal = std::size_t{1} << 20;  // classify replay pages

// Traced runs cap the program's own trace buffer: 48 B per event.
trace::TraceConfig trace_config() {
  trace::TraceConfig config;
  config.enabled = true;
  config.max_events = std::size_t{1} << 20;
  return config;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// FNV-1a over 64-bit words: a compact fingerprint of per-process outcomes.
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return static_cast<std::int64_t>(hash_ & 0x7FFFFFFFFFFFFFFFULL);
  }

 private:
  std::uint64_t hash_{0xCBF29CE484222325ULL};
};

std::uint64_t drained_length(const StreamFactory& factory) {
  auto stream = factory();
  while (stream->next()) {
  }
  return stream->emitted();
}

Json cell_json(const std::string& label, driver::Scheme scheme, const driver::RunMetrics& m,
               double host_s) {
  Json cell = Json::object();
  cell.set("label", label);
  cell.set("scheme", driver::scheme_name(scheme));
  cell.set("freeze_s", m.freeze_time.sec());
  cell.set("total_s", m.total_time.sec());
  cell.set("pages_arrived", m.pages_arrived);
  cell.set("fault_requests", m.remote_fault_requests);
  cell.set("host_s", host_s);
  return cell;
}

// One scheme-comparison cell: a single migrating process under run_experiment.
struct Cell {
  std::string label;
  driver::Scheme scheme;
  std::uint64_t memory_mib;
  StreamFactory factory;
};

// Runs `cells` serially through run_experiment (traced: through a Runner
// with tracing on and every stream decorated), checking each as one
// operation and filling the per-layer counters from RunMetrics.
class CellRunner {
 public:
  CellRunner(std::uint64_t seed, std::vector<Cell> cells)
      : seed_{seed}, cells_{std::move(cells)} {}

  // Builds every cell's scenario and world, simulating none of them; the
  // time excludes tearing the worlds down.
  [[nodiscard]] double setup_only() const {
    struct Wired {};  // thrown from on_setup: the world is built, stop here
    auto start = Clock::now();
    std::vector<driver::Scenario> scenarios = build();
    double elapsed = seconds_since(start);
    for (driver::Scenario& scenario : scenarios) {
      scenario.on_setup = [&elapsed, &start](sim::Simulator&, net::Fabric&) {
        elapsed += seconds_since(start);
        throw Wired{};
      };
      start = Clock::now();
      try {
        (void)driver::run_experiment(scenario);
        throw std::logic_error("run_experiment did not call on_setup");
      } catch (const Wired&) {
      }
    }
    return elapsed;
  }

  [[nodiscard]] std::vector<driver::Scenario> build() const {
    std::vector<driver::Scenario> scenarios;
    scenarios.reserve(cells_.size());
    for (const Cell& cell : cells_) {
      scenarios.push_back(driver::ScenarioBuilder{}
                              .scheme(cell.scheme)
                              .workload(cell.label, cell.factory, cell.memory_mib)
                              .seed(seed_)
                              .build());
    }
    return scenarios;
  }

  // Fills `ex`: cells, det outputs, operations, host times, layer counters.
  void run(std::vector<driver::Scenario>& scenarios, const ExecOptions& options,
           StreamProbe* probe, Execution& ex) {
    Counters& layers = ex.layers;
    if (expected_refs_.empty()) {
      // Each stream's full length, from a private copy of the same stream.
      for (const Cell& cell : cells_) {
        expected_refs_.push_back(drained_length(cell.factory));
      }
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      driver::Scenario& scenario = scenarios[i];
      const std::string key = cell.label + "." + driver::scheme_name(cell.scheme);
      // on_setup fires once the cell's world is wired, before it simulates:
      // the split between set-up and simulation.
      Clock::time_point wired{};
      std::uint64_t heap_wired = 0;
      sim::Simulator* simulator = nullptr;
      net::Fabric* fabric = nullptr;
      scenario.on_setup = [&](sim::Simulator& s, net::Fabric& f) {
        wired = Clock::now();
        heap_wired = heap_in_use_bytes();
        simulator = &s;
        fabric = &f;
      };
      const std::uint64_t heap_before = heap_in_use_bytes();
      driver::RunMetrics m;
      const auto start = Clock::now();
      if (options.traced) {
        // At stream end the world is still alive: read its engine and fabric.
        auto on_end = [&] {
          layers["simcore.events"] += static_cast<double>(simulator->events_processed());
          layers["simcore.queue_high_water"] =
              std::max(layers["simcore.queue_high_water"],
                       static_cast<double>(simulator->slot_high_water()));
          for (net::NodeId n = 0; n < fabric->node_count(); ++n) {
            layers["net.messages"] += static_cast<double>(fabric->counters(n).tx_messages);
            layers["net.bytes"] += static_cast<double>(fabric->counters(n).tx_bytes);
          }
        };
        scenario.make_workload = [&, i] { return probe->wrap(i, cell.factory(), on_end); };
        scenario.trace = trace_config();
        driver::Runner runner;
        const Scoped span{options.spans, "run_experiment " + key};
        m = runner.run(scenario);
        layers["trace.events"] += static_cast<double>(runner.trace()->events().size());
        layers["trace.dropped"] += static_cast<double>(runner.trace()->events_dropped());
        if (probe->slot(i).emitted != m.refs_consumed) {
          ex.fail(key + ": decorated stream emitted differs from refs_consumed");
        }
      } else {
        m = driver::run_experiment(scenario);
      }
      const double host_s = seconds_since(wired);
      // One simulated process per cell: its wired world's heap footprint.
      layers["mem.bytes_per_proc"] =
          std::max(layers["mem.bytes_per_proc"],
                   heap_wired > heap_before ? static_cast<double>(heap_wired - heap_before) : 0.0);
      ex.setup_s += std::chrono::duration<double>(wired - start).count();
      ex.wall_s += host_s;
      ex.cells.push(cell_json(cell.label, cell.scheme, m, host_s));
      check(key, m, expected_refs_[i], ex);
      accumulate(key, cell.scheme, m, ex);
    }
  }

 private:
  static void check(const std::string& key, const driver::RunMetrics& m,
                    std::uint64_t expected_refs, Execution& ex) {
    ++ex.attempted;
    ex.turnaround_s.push_back(m.total_time.sec());
    if (!m.migration_completed) {
      ex.fail(key + ": migration did not complete");
    } else if (!m.ledger_ok) {
      ex.fail(key + ": page ledger violated");
    } else if (m.refs_consumed != expected_refs) {
      ex.fail(key + ": refs_consumed " + std::to_string(m.refs_consumed) + " != emitted " +
              std::to_string(expected_refs));
    } else if (m.total_time > kDeadline) {
      ex.fail(key + ": missed the simulated deadline");
    }
  }

  static void accumulate(const std::string& key, driver::Scheme scheme,
                         const driver::RunMetrics& m, Execution& ex) {
    Counters& layers = ex.layers;
    ex.det[key + ".freeze_ns"] = m.freeze_time.ns();
    ex.det[key + ".total_ns"] = m.total_time.ns();
    ex.det[key + ".fault_requests"] = static_cast<std::int64_t>(m.remote_fault_requests);
    ex.det[key + ".pages_arrived"] = static_cast<std::int64_t>(m.pages_arrived);
    ex.det[key + ".refs"] = static_cast<std::int64_t>(m.refs_consumed);
    ex.det[key + ".bytes_freeze"] = static_cast<std::int64_t>(m.bytes_freeze);
    ex.makespan_s += m.total_time.sec();
    if (scheme == driver::Scheme::Ampom) {
      ex.pages_arrived += m.pages_arrived;
      ex.fault_requests += m.remote_fault_requests;
    }
    layers["workload.refs"] += static_cast<double>(m.refs_consumed);
    layers["mem.first_touches"] += static_cast<double>(m.first_touches);
    layers["proc.hard_faults"] += static_cast<double>(m.hard_faults);
    layers["proc.soft_faults"] += static_cast<double>(m.soft_faults);
    layers["proc.inflight_waits"] += static_cast<double>(m.inflight_waits);
    layers["proc.stall_sim_s"] += m.stall_time.sec();
    layers["proc.fault_requests"] += static_cast<double>(m.remote_fault_requests);
    layers["proc.prefetch_requests"] += static_cast<double>(m.prefetch_requests);
    layers["proc.retransmits"] += static_cast<double>(m.paging_retransmits);
    layers["proc.timeouts"] += static_cast<double>(m.paging_timeouts);
    layers["core.analyses"] += static_cast<double>(m.ampom_faults_seen);
    layers["core.zone_pages"] += static_cast<double>(m.ampom_zone_considered);
    layers["core.analysis_sim_ms"] += m.ampom_analysis_time.ms();
    layers["migration.count"] += 1.0;
    layers["migration.failed"] += m.migration_completed ? 0.0 : 1.0;
    layers["migration.freeze_sim_s"] += m.freeze_time.sec();
    layers["migration.freeze_bytes"] += static_cast<double>(m.bytes_freeze);
    layers["net.dropped"] += static_cast<double>(m.net_messages_dropped);
    layers["cluster.dead_detected"] += static_cast<double>(m.dead_nodes_detected);
  }

  static constexpr sim::Time kDeadline = sim::Time::from_ms(3'600'000);

  std::uint64_t seed_;
  std::vector<Cell> cells_;
  std::vector<std::uint64_t> expected_refs_;
};

// --- paper_migration ------------------------------------------------------------

// The four HPCC kernels at their largest Table 1 size under openMosix,
// NoPrefetch and AMPoM, plus the small-working-set DGEMM pair.
class PaperMigration final : public Workload {
 public:
  explicit PaperMigration(std::uint64_t seed) : runner_{seed, cells(seed)} {}

  double setup_only() override { return runner_.setup_only(); }

  Execution execute(const ExecOptions& options) override {
    Execution ex;
    std::unique_ptr<StreamProbe> probe;
    std::vector<driver::Scenario> scenarios;
    {
      const Scoped span{options.spans, "build"};
      const auto start = Clock::now();
      scenarios = runner_.build();
      ex.setup_s = seconds_since(start);  // plus each cell's world wiring, below
    }
    if (options.traced) {
      probe = std::make_unique<StreamProbe>(scenarios.size(), kCaptureTotal / scenarios.size());
    }
    runner_.run(scenarios, options, probe.get(), ex);
    {
      const Scoped span{options.spans, "collect"};
      // Layers this workload never exercises: no balancer, no gossip, no
      // cache model in run_experiment's three-node world.
      for (const char* idle : {"balancer.ticks", "balancer.decisions", "balancer.cross_zone_moves",
                               "balancer.rehomes", "cluster.msgs_per_node_period",
                               "cluster.digest_entries", "migration.warmup_charged_ms"}) {
        ex.layers.emplace(idle, 0.0);
      }
      if (probe) {
        ex.layers["workload.next_ns"] = probe->next_ns();
        ex.layers["mem.classify_ns"] = probe->classify_ns();
      }
    }
    return ex;
  }

 private:
  static std::vector<Cell> cells(std::uint64_t seed) {
    using workload::HpccKernel;
    const std::array<std::pair<HpccKernel, std::uint64_t>, 4> kernels{{
        {HpccKernel::Dgemm, workload::kDgemmCases.back().memory_mib},
        {HpccKernel::Stream, workload::kStreamCases.back().memory_mib},
        {HpccKernel::RandomAccess, workload::kRandomAccessCases.back().memory_mib},
        {HpccKernel::Fft, workload::kFftCases.back().memory_mib},
    }};
    std::vector<Cell> out;
    for (const auto& [kernel, mib] : kernels) {
      for (const auto scheme :
           {driver::Scheme::OpenMosix, driver::Scheme::NoPrefetch, driver::Scheme::Ampom}) {
        out.push_back({workload::hpcc_kernel_name(kernel), scheme, mib,
                       [kernel = kernel, mib = mib, seed] {
                         return workload::make_hpcc_kernel(kernel, mib, seed);
                       }});
      }
    }
    // §5.6: DGEMM allocating 575 MB but touching 115 MB.
    for (const auto scheme : {driver::Scheme::OpenMosix, driver::Scheme::Ampom}) {
      out.push_back({"DGEMM-ws", scheme, 575, [] { return workload::make_small_ws_dgemm(575, 115); }});
    }
    return out;
  }

  CellRunner runner_;
};

// --- the cluster workloads --------------------------------------------------------

struct ClusterShape {
  bool faults{false};  // cluster_faults: loss, partition, flap, reliability, cache model
  std::uint32_t zones{16};
  std::uint32_t nodes_per_zone{32};
  std::uint32_t jobs_per_even_node{20};
  sim::Bytes job_bytes{2 * sim::kMiB};
  std::uint64_t hot_pages{64};
  std::size_t workers{0};
};

// 512 nodes (16 zones x 32) with fan-out-3 gossip; 5,120 HotColdStream jobs
// land on the even nodes and the zone-sharded balancer spreads them.
class ClusterWorkload final : public Workload {
 public:
  ClusterWorkload(std::uint64_t seed, ClusterShape shape)
      : seed_{seed}, shape_{shape}, shape_cells_{seed, job_shape_cells()} {}

  std::optional<std::size_t> differential_workers() const override {
    if (shape_.workers == 0) {
      return std::nullopt;
    }
    return shape_.workers == 1 ? 2 : 1;
  }

  double setup_only() override {
    const auto start = Clock::now();
    const World world = build(shape_.workers, nullptr, nullptr);
    return seconds_since(start);
  }

  Execution execute(const ExecOptions& options) override {
    Execution ex;
    const std::size_t jobs = job_count();
    std::unique_ptr<StreamProbe> probe;
    if (options.traced) {
      probe = std::make_unique<StreamProbe>(jobs, kCaptureTotal / jobs);
    }
    // Declared before the world, so the world never outlives what it points at.
    std::unique_ptr<trace::TraceRecorder> recorder;
    if (options.traced) {
      recorder = std::make_unique<trace::TraceRecorder>(trace_config());
    }
    const std::uint64_t heap_before = heap_in_use_bytes();
    const auto setup_start = Clock::now();
    World world = build(options.workers.value_or(shape_.workers), probe.get(), options.spans);
    ex.setup_s = seconds_since(setup_start);
    if (recorder) {
      world.sim->set_trace(recorder.get());
    }

    std::uint64_t peak_heap = 0;
    double dead_verdicts = 0.0;
    const auto run_start = Clock::now();
    // 1 s simulated slices (traced: each its own span); samples are taken
    // between them.
    for (std::int64_t slice = 1;; ++slice) {
      const sim::Time until = std::min(sim::Time::from_sec(static_cast<double>(slice)), kDeadline);
      bool done = false;
      {
        const Scoped span{options.spans, "run_until"};
        done = world.sim->run_until(until);
      }
      peak_heap = std::max(peak_heap, heap_in_use_bytes());
      if (options.traced) {
        dead_verdicts = std::max(dead_verdicts, dead_peer_verdicts(*world.sim));
      }
      if (done || until >= kDeadline) {
        break;
      }
    }
    ex.wall_s = seconds_since(run_start);

    const Scoped span{options.spans, "collect"};
    collect(world, ex);
    ex.layers["mem.bytes_per_proc"] =
        peak_heap > heap_before
            ? static_cast<double>(peak_heap - heap_before) / static_cast<double>(jobs)
            : 0.0;
    ex.layers["cluster.dead_detected"] =
        options.traced ? dead_verdicts : dead_peer_verdicts(*world.sim);
    if (probe) {
      for (std::size_t i = 0; i < jobs; ++i) {
        if (probe->slot(i).emitted != world.sim->hosts()[i]->stats().refs_consumed) {
          ex.fail("job " + std::to_string(i) + ": decorated stream emitted differs");
        }
      }
      ex.layers["workload.next_ns"] = probe->next_ns();
      ex.layers["mem.classify_ns"] = probe->classify_ns();
      ex.layers["trace.events"] = static_cast<double>(recorder->events().size());
      ex.layers["trace.dropped"] = static_cast<double>(recorder->events_dropped());
    }
    // The paper-shaped comparison for this workload's own job shape runs
    // once per process, outside every timed region.
    if (!shape_result_) {
      Execution shape_ex;
      auto scenarios = shape_cells_.build();
      shape_cells_.run(scenarios, ExecOptions{}, nullptr, shape_ex);
      if (shape_ex.failed > 0) {
        ex.fail("job-shape cells: " + shape_ex.failures.front());
      }
      shape_result_ = shape_ex.cells;
    }
    ex.cells = *shape_result_;
    return ex;
  }

 private:
  struct World {
    std::unique_ptr<balancer::ClusterSim> sim;
    std::unique_ptr<balancer::LoadBalancer> balancer;
    std::vector<const proc::ReferenceStream*> streams;
  };

  static constexpr sim::Time kDeadline = sim::Time::from_ms(300'000);

  [[nodiscard]] std::size_t job_count() const {
    return static_cast<std::size_t>(shape_.zones) * shape_.nodes_per_zone / 2 *
           shape_.jobs_per_even_node;
  }

  [[nodiscard]] std::uint64_t touches(std::uint64_t index) const { return 4000 + 500 * (index % 5); }

  [[nodiscard]] StreamFactory job_stream(std::uint64_t index) const {
    return [bytes = shape_.job_bytes, hot = shape_.hot_pages, touches = touches(index),
            seed = mix(seed_, index)] {
      return std::make_unique<workload::HotColdStream>(bytes, hot, touches,
                                                       /*cold_fraction=*/0.05,
                                                       sim::Time::from_us(100), seed);
    };
  }

  [[nodiscard]] driver::Scenario scenario(std::size_t workers) const {
    driver::ScenarioBuilder builder;
    builder.scheme(driver::Scheme::Ampom)
        .topology(shape_.zones, shape_.nodes_per_zone)
        .gossip(/*fan_out=*/3)
        .seed(seed_);
    if (shape_.faults) {
      driver::FaultPlan plan;
      plan.seed = seed_;
      plan.default_faults.drop_probability = 0.005;
      builder.faults(std::move(plan))
          .chaos_seed(seed_)
          .reliability(driver::ReliabilityConfig::all_on());
      std::vector<net::NodeId> zone0;
      for (net::NodeId n = 0; n < shape_.nodes_per_zone; ++n) {
        zone0.push_back(n);
      }
      builder.partition(std::move(zone0), sim::Time::from_ms(2000), sim::Time::from_ms(3500));
      const net::NodeId a = shape_.nodes_per_zone + 2;  // an even (loaded) node of zone 1
      builder.flapping_link(a, a + 1, sim::Time::from_ms(1000), sim::Time::from_ms(5000),
                            sim::Time::from_ms(400));
      builder.cache_model().placement(driver::Placement::kCacheAware);
    }
    if (workers > 0) {
      builder.workers(workers);
    }
    return builder.build();
  }

  World build(std::size_t workers, StreamProbe* probe, SpanLog* spans) const {
    World world;
    const std::size_t jobs = job_count();
    world.streams.assign(jobs, nullptr);
    driver::Scenario s;
    {
      const Scoped span{spans, "build"};
      s = scenario(workers);
      world.sim = std::make_unique<balancer::ClusterSim>(s);
    }
    {
      const Scoped span{spans, "spawn"};
      const std::uint32_t nodes = shape_.zones * shape_.nodes_per_zone;
      std::uint64_t index = 0;
      for (net::NodeId node = 0; node < nodes; node += 2) {
        for (std::uint32_t j = 0; j < shape_.jobs_per_even_node; ++j, ++index) {
          balancer::JobSpec job;
          job.home = node;
          job.label = "job";
          job.start = sim::Time::from_ms(25 * static_cast<std::int64_t>(index % 8));
          job.make_workload = [factory = job_stream(index), slot = &world.streams[index], probe,
                               index]() -> std::unique_ptr<proc::ReferenceStream> {
            auto stream = factory();
            *slot = stream.get();
            if (probe != nullptr) {
              return probe->wrap(index, std::move(stream));
            }
            return stream;
          };
          world.sim->spawn(std::move(job));
        }
      }
    }
    {
      const Scoped span{spans, "balancer.start"};
      balancer::LoadBalancer::Config config;
      config.assumed_freeze_seconds = 0.2;
      config.placement = s.placement;
      world.balancer = std::make_unique<balancer::LoadBalancer>(*world.sim, config);
      world.balancer->start();
    }
    return world;
  }

  static double dead_peer_verdicts(balancer::ClusterSim& sim) {
    std::uint64_t dead = 0;
    for (net::NodeId n = 0; n < sim.node_count(); ++n) {
      dead += sim.infod(n).dead_peers();
    }
    return static_cast<double>(dead);
  }

  void collect(World& world, Execution& ex) const {
    balancer::ClusterSim& sim = *world.sim;
    Counters& l = ex.layers;
    Fingerprint fp;
    std::int64_t finish_sum = 0;
    std::uint64_t analyses = 0;
    const auto& hosts = sim.hosts();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const balancer::ProcessHost& host = *hosts[i];
      const proc::ExecStats& st = host.stats();
      ++ex.attempted;
      const std::string who = "job " + std::to_string(i);
      if (!host.finished()) {
        ex.fail(who + ": unfinished at the simulated deadline");
      } else if (host.migrating()) {
        ex.fail(who + ": migration never completed");
      } else if (world.streams[i] == nullptr || st.refs_consumed != world.streams[i]->emitted()) {
        ex.fail(who + ": refs_consumed differs from the stream's emitted()");
      } else if (host.migrations() <= 1 && !host.ledger().at_most_one_transfer_each()) {
        ex.fail(who + ": page ledger violated");
      }
      if (host.finished()) {
        ex.turnaround_s.push_back((st.finished_at - st.started_at).sec());
      }
      finish_sum += st.finished_at.ns();
      fp.add(static_cast<std::uint64_t>(st.finished_at.ns()));
      fp.add(host.current_node());
      fp.add(host.migrations());
      fp.add(st.hard_faults);

      l["workload.refs"] += static_cast<double>(st.refs_consumed);
      l["mem.first_touches"] += static_cast<double>(st.first_touches);
      l["proc.hard_faults"] += static_cast<double>(st.hard_faults);
      l["proc.soft_faults"] += static_cast<double>(st.soft_faults);
      l["proc.inflight_waits"] += static_cast<double>(st.inflight_waits);
      l["proc.stall_sim_s"] += st.stall_time.sec();
      analyses += st.hard_faults + st.soft_faults + st.inflight_waits;
      l["migration.count"] += static_cast<double>(host.migrations());
      l["migration.failed"] += static_cast<double>(host.failed_migrations());
      l["migration.freeze_sim_s"] += host.freeze_total().sec();
      l["migration.warmup_charged_ms"] += st.warmup_charged.ms();
      for (net::NodeId n = 0; n < sim.node_count(); ++n) {
        if (const proc::PagingClientStats* ps = host.paging_stats(n)) {
          l["proc.fault_requests"] += static_cast<double>(ps->fault_requests);
          l["proc.prefetch_requests"] += static_cast<double>(ps->prefetch_requests);
          l["proc.retransmits"] += static_cast<double>(ps->retransmits);
          l["proc.timeouts"] += static_cast<double>(ps->timeouts);
          l["core.zone_pages"] += static_cast<double>(ps->prefetch_pages_requested);
          ex.pages_arrived += ps->pages_arrived;
          ex.fault_requests += ps->fault_requests;
        }
      }
    }
    l["migration.freeze_bytes"] = 0.0;  // not exposed by ClusterSim
    // Faults the executor routes to the AMPoM policy are its analyses; the
    // per-host policy has no public accessor, and its cost is fixed per call.
    l["core.analyses"] = static_cast<double>(analyses);
    l["core.analysis_sim_ms"] =
        static_cast<double>(analyses) * sim.ampom_config().analysis_cost().ms();

    std::uint64_t daemon_msgs = 0;
    std::uint64_t digest = 0;
    for (net::NodeId n = 0; n < sim.node_count(); ++n) {
      daemon_msgs += sim.infod(n).pings_sent() + sim.infod(n).acks_received();
      digest += sim.infod(n).digest_entries_sent();
      l["net.messages"] += static_cast<double>(sim.fabric().counters(n).tx_messages);
      l["net.bytes"] += static_cast<double>(sim.fabric().counters(n).tx_bytes);
    }
    const double periods = sim.makespan().sec() / sim.infod_period().sec();
    l["cluster.msgs_per_node_period"] =
        periods > 0.0 ? static_cast<double>(daemon_msgs) / static_cast<double>(sim.node_count()) / periods
                      : 0.0;
    l["cluster.digest_entries"] = static_cast<double>(digest);
    const std::uint64_t dropped =
        sim.fault_injector() != nullptr ? sim.fault_injector()->stats().dropped : 0;
    l["net.dropped"] = static_cast<double>(dropped);
    l["simcore.events"] = static_cast<double>(sim.simulator().events_processed());
    l["simcore.queue_high_water"] = static_cast<double>(sim.simulator().slot_high_water());
    l["balancer.ticks"] = static_cast<double>(world.balancer->ticks());
    l["balancer.decisions"] = static_cast<double>(world.balancer->decisions());
    l["balancer.cross_zone_moves"] = static_cast<double>(world.balancer->cross_zone_moves());
    l["balancer.rehomes"] = static_cast<double>(world.balancer->rehomes());

    ex.makespan_s = sim.makespan().sec();
    ex.det["events"] = static_cast<std::int64_t>(sim.simulator().events_processed());
    ex.det["makespan_ns"] = sim.makespan().ns();
    ex.det["finish_sum_ns"] = finish_sum;
    ex.det["outcome_fingerprint"] = fp.value();
    ex.det["refs"] = static_cast<std::int64_t>(l["workload.refs"]);
    ex.det["migrations"] = static_cast<std::int64_t>(l["migration.count"]);
    ex.det["failed_migrations"] = static_cast<std::int64_t>(l["migration.failed"]);
    ex.det["fault_requests"] = static_cast<std::int64_t>(ex.fault_requests);
    ex.det["pages_arrived"] = static_cast<std::int64_t>(ex.pages_arrived);
    ex.det["net_messages"] = static_cast<std::int64_t>(l["net.messages"]);
    ex.det["net_dropped"] = static_cast<std::int64_t>(dropped);
    ex.det["balancer_decisions"] = static_cast<std::int64_t>(world.balancer->decisions());
  }

  // The paper's scheme comparison on this workload's job shape: one cell
  // per job variant under openMosix, NoPrefetch and AMPoM.
  [[nodiscard]] std::vector<Cell> job_shape_cells() const {
    std::vector<Cell> out;
    for (std::uint64_t variant = 0; variant < 5; ++variant) {
      for (const auto scheme :
           {driver::Scheme::OpenMosix, driver::Scheme::NoPrefetch, driver::Scheme::Ampom}) {
        out.push_back({"job" + std::to_string(variant), scheme, shape_.job_bytes / sim::kMiB,
                       job_stream(variant)});
      }
    }
    return out;
  }

  std::uint64_t seed_;
  ClusterShape shape_;
  CellRunner shape_cells_;
  std::optional<Json> shape_result_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_migration", "cluster_scale",
                                              "cluster_faults"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_migration") {
    return std::make_unique<PaperMigration>(seed);
  }
  if (name == "cluster_scale") {
    return std::make_unique<ClusterWorkload>(seed, ClusterShape{});
  }
  if (name == "cluster_faults") {
    ClusterShape shape;
    shape.faults = true;
    shape.job_bytes = 8 * sim::kMiB;
    shape.hot_pages = 256;
    shape.workers = 2;
    return std::make_unique<ClusterWorkload>(seed, shape);
  }
  return nullptr;
}

}  // namespace perfbench
