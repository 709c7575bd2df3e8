#pragma once
// The benchmark's workloads. Each drives the simulator only through its
// public entry points — driver::run_experiment (and driver::Runner, its
// traced form), balancer::ClusterSim, balancer::LoadBalancer, the
// ReferenceStream factories handed to them, and the stats accessors.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "json.hpp"
#include "probes.hpp"

namespace perfbench {

// Deterministic outputs of one execution, by name. Integers only, so two
// executions compare exactly.
using DetOutputs = std::map<std::string, std::int64_t>;

// One execution of a workload: set-up, the simulation, and its collection.
struct Execution {
  double setup_s{0.0};  // host: scenarios, worlds, spawned jobs
  double wall_s{0.0};   // host: simulating, set-up excluded
  DetOutputs det;
  // Every simulated process is one operation.
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  // the first few reasons
  std::vector<double> turnaround_s;   // simulated, per operation
  double makespan_s{0.0};             // simulated
  // Pooled over the workload's AMPoM processes: pages that came from the
  // home node, and how many of them the process blocked on a request for.
  std::uint64_t pages_arrived{0};
  std::uint64_t fault_requests{0};
  // The scheme-comparison cells behind the paper-shaped metrics:
  // [{label, scheme, freeze_s, total_s, pages_arrived, fault_requests,
  // host_s}]. Deterministic except host_s.
  Json cells{Json::array()};
  Counters layers;

  void fail(const std::string& reason);
};

struct ExecOptions {
  bool traced{false};
  SpanLog* spans{nullptr};
  // Partitioned-engine worker count; nullopt keeps the workload's own.
  std::optional<std::size_t> workers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Sets up exactly as execute() does, stops before simulating, and
  // returns the host seconds the set-up took.
  [[nodiscard]] virtual double setup_only() = 0;
  [[nodiscard]] virtual Execution execute(const ExecOptions& options) = 0;
  // For a workload on the partitioned engine, the other worker count its
  // traced run re-executes it at; every deterministic output must match.
  [[nodiscard]] virtual std::optional<std::size_t> differential_workers() const {
    return std::nullopt;
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();
// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
