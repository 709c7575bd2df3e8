// perf_gate CLI.
//
//   perf_gate --input=FILE [--baseline=BENCH_<x>.json] [--output=FILE]
//             [--allow-case-subset]
//
// --input is a schema-2 bench document (gate.hpp) or bench/micro_simcore's
// raw --benchmark_out JSON, which is adapted to one. The document's tool
// selects its rules: invariants always, plus the baseline bands and
// trajectories when a --baseline of the same tool is given.
// --allow-case-subset waives baseline cases this run skipped (quick grids).
// --output writes the (adapted) input document, which is how a committed
// baseline is refreshed. Exit 0 on pass, 1 on gate failure, 2 on usage or
// parse errors.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "perf_gate/gate.hpp"

namespace {

using namespace ampom::perfgate;

// Reads a bench document; raw google-benchmark output is adapted on the way.
std::optional<Doc> load_file(const std::string& path, std::string& error) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string what;
  std::optional<Doc> doc;
  if (const auto json = parse_json(text.str(), &what)) {
    doc = json->find("benchmarks") != nullptr ? summarize_raw(*json, &what)
                                              : load_doc(*json, &what);
  }
  if (!doc) {
    error = path + ": " + what;
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string baseline_path;
  std::string output;
  GateOptions gate_options;
  std::string error;
  for (int i = 1; i < argc && error.empty(); ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--input=", 0) == 0) {
      input = arg.substr(8);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--output=", 0) == 0) {
      output = arg.substr(9);
    } else if (arg == "--allow-case-subset") {
      gate_options.allow_case_subset = true;
    } else {
      error = "unknown argument: " + arg;
    }
  }
  if (input.empty() || !error.empty()) {
    std::cerr << "perf_gate: " << (error.empty() ? "--input=FILE is required" : error) << "\n"
              << "usage: perf_gate --input=FILE [--baseline=FILE] [--output=FILE]"
                 " [--allow-case-subset]\n";
    return 2;
  }
  const auto current = load_file(input, error);
  std::optional<Doc> baseline;
  if (current && !baseline_path.empty()) {
    baseline = load_file(baseline_path, error);
    if (baseline && baseline->tool != current->tool) {
      error = baseline_path + " is a " + baseline->tool + " document, the input a " +
              current->tool + " one";
      baseline.reset();
    }
  }
  if (!current || (!baseline_path.empty() && !baseline)) {
    std::cerr << "perf_gate: " << error << "\n";
    return 2;
  }
  if (!output.empty()) {
    std::ofstream out{output, std::ios::binary};
    if (!(out << render_doc(*current))) {
      std::cerr << "perf_gate: cannot write " << output << "\n";
      return 2;
    }
  }

  const GateResult result = gate(*current, baseline ? &*baseline : nullptr, gate_options);
  for (const std::string& note : result.notes) {
    std::cout << "perf_gate: " << note << "\n";
  }
  for (const std::string& failure : result.failures) {
    std::cout << "perf_gate: FAIL: " << failure << "\n";
  }
  if (!result.pass) {
    std::cout << "perf_gate: " << current->tool << " gate FAILED ("
              << result.failures.size() << " check"
              << (result.failures.size() == 1 ? "" : "s") << ")\n";
    return 1;
  }
  std::cout << "perf_gate: " << current->tool << " gate passed"
            << (baseline ? " (invariants + baseline)" : " (invariants only)") << "\n";
  return 0;
}
