// perfbench_sim: runs one benchmark workload in this process and prints its
// raw measurements as one JSON object on stdout. perfbench/run.py derives
// the reported metrics from it and checks them.
//
//   perfbench_sim --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 (timed): set-up runs alone a few times, then the workload is
//   executed, set-up included, as often as fits in S host seconds (at least
//   once), with tracing off; set-up and simulation are timed apart.
// --trace 1 (traced): one untraced execution, one traced execution (spans,
//   decorated streams, the program's TraceRecorder), and for a workload on
//   the partitioned engine one more untraced execution at another worker
//   count. The deterministic outputs of all of them must agree.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "json.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 8;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_sim: " << error << "\n"
            << "usage: perfbench_sim --workload NAME --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) {
    usage("--workload is required");
  }
  return args;
}

Json doubles(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) {
    out.push(v);
  }
  return out;
}

Json execution_json(const Execution& ex) {
  Json out = Json::object();
  out.set("attempted", ex.attempted);
  out.set("failed", ex.failed);
  Json failures = Json::array();
  for (const std::string& f : ex.failures) {
    failures.push(f);
  }
  out.set("failures", std::move(failures));
  Json det = Json::object();
  for (const auto& [name, value] : ex.det) {
    det.set(name, value);
  }
  out.set("det", std::move(det));
  out.set("makespan_s", ex.makespan_s);
  out.set("turnaround_s", doubles(ex.turnaround_s));
  out.set("pages_arrived", ex.pages_arrived);
  out.set("fault_requests", ex.fault_requests);
  out.set("cells", ex.cells);
  return out;
}

// Every deterministic output of `other` must equal the reference's.
void expect_same(Execution& reference, const Execution& other, const std::string& what) {
  if (other.failed > 0) {
    reference.fail(what + ": " + other.failures.front());
  }
  for (const auto& [name, value] : reference.det) {
    const auto it = other.det.find(name);
    if (it == other.det.end() || it->second != value) {
      reference.fail(what + ": deterministic output " + name + " differs");
    }
  }
}

void timed(Workload& workload, const Args& args, Json& out) {
  // Set-up alone a fixed number of times, then whole executions (each
  // setting up afresh) until the next one would overrun the budget.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_s.push_back(workload.setup_only());
  }
  std::vector<double> wall_s;
  std::vector<Execution> runs;
  const auto start = Clock::now();
  do {
    runs.push_back(workload.execute(ExecOptions{}));
    setup_s.push_back(runs.back().setup_s);
    wall_s.push_back(runs.back().wall_s);
  } while (seconds_since(start) * (1.0 + 1.0 / static_cast<double>(runs.size())) <=
           args.seconds);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same(runs.front(), runs[i], "repeat " + std::to_string(i));
  }
  out.set("setup_s", doubles(setup_s));
  out.set("wall_s", doubles(wall_s));
  out.set("peak_rss_mib", peak_rss_mib());
  out.set("execution", execution_json(runs.front()));
}

void traced(Workload& workload, Json& out) {
  Execution base = workload.execute(ExecOptions{});
  SpanLog spans;
  ExecOptions traced_options;
  traced_options.traced = true;
  traced_options.spans = &spans;
  const Execution traced_run = workload.execute(traced_options);
  expect_same(base, traced_run, "traced run");
  if (const auto workers = workload.differential_workers()) {
    ExecOptions other;
    other.workers = *workers;
    expect_same(base, workload.execute(other), "workers=" + std::to_string(*workers) + " run");
  }
  out.set("wall_untraced_s", base.wall_s);
  out.set("wall_traced_s", traced_run.wall_s);
  out.set("peak_rss_mib", peak_rss_mib());
  // Heap footprint from the untraced execution: the trace buffer is not
  // the simulator's.
  Counters layers = traced_run.layers;
  layers["mem.bytes_per_proc"] = base.layers.at("mem.bytes_per_proc");
  out.set("layers", to_json(layers));
  out.set("spans", spans.to_json());
  out.set("execution", execution_json(base));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto workload = make_workload(args.workload, args.seed);
  if (!workload) {
    usage("unknown workload " + args.workload);
  }
  Json out = Json::object();
  out.set("workload", args.workload);
  out.set("seed", args.seed);
  out.set("host", host_facts());
  try {
    if (args.trace) {
      traced(*workload, out);
    } else {
      timed(*workload, args, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_sim: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
  std::cout << out.dump() << "\n";
  return 0;
}
