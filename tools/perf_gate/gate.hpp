#pragma once
// perf_gate — one gate for every committed bench result.
//
// Every bench that commits a baseline emits, and every BENCH_*.json holds,
// one document type (schema 2):
//
//   {"schema":2,"tool":T,"host_cpus":N,"cases":{"<case>":{"<metric>":number,...}}}
//
// A case name carries at most one grouping level, read from the prefix
// before '/': "n2000/w4" is member "w4" of group "n2000", while "n64" is an
// ungrouped case. The one input format this repo does not own is
// bench/micro_simcore's raw google-benchmark JSON; summarize_raw() adapts it.
//
// What each tool's documents must satisfy lives in one rule table (kRules
// in gate.cpp) keyed by `tool`, and gate() walks it: a new bench adds table
// rows, not code. Absolute wall-clock numbers are machine-dependent and only
// feed ratio checks (speedups, trajectories); deterministic counters are
// compared exactly or within a band.
//
// No external JSON dependency: the parser covers the subset these documents
// use, and caps nesting at kMaxJsonDepth (the deepest input, raw
// google-benchmark output, needs 4 levels).

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ampom::perfgate {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind{Kind::Null};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;  // ordered: renders deterministically

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

inline constexpr int kMaxJsonDepth = 4;

// Parse a JSON document. On failure returns nullopt and, if `error` is
// non-null, a one-line description with the byte offset.
[[nodiscard]] std::optional<JsonValue> parse_json(const std::string& text,
                                                  std::string* error);

using Metrics = std::map<std::string, double>;

// A schema-2 bench document.
struct Doc {
  std::string tool;
  double host_cpus{0};  // CPUs of the recording host; 0 when not recorded
  std::map<std::string, Metrics> cases;
};

// Adapt bench/micro_simcore's raw output (--benchmark_out_format=json) into
// "<profile>/indexed" and "<profile>/lazy" cases; the indexed case also
// carries speedup_vs_lazy. Fails if any expected benchmark or counter is
// missing — a silently dropped profile must not read as a pass.
[[nodiscard]] std::optional<Doc> summarize_raw(const JsonValue& raw, std::string* error);

// Load a schema-2 document. Rejects unknown tools (no rules), case names
// with more than one grouping level, non-numeric metrics, and present cases
// that lack a metric one of their tool's rules reads.
[[nodiscard]] std::optional<Doc> load_doc(const JsonValue& json, std::string* error);

// Render with round-trip precision: a deterministic value survives
// render -> parse -> load bit for bit.
[[nodiscard]] std::string render_doc(const Doc& doc);

struct GateOptions {
  // Case-set mismatches between baseline and current are failures by
  // default: a silently shrunken grid once hid a regressed case behind a
  // green gate. Setting this waives *baseline-only* misses (CI's --quick
  // grids are strict subsets of the committed --full baselines); cases the
  // baseline has never seen still fail — they need a baseline refresh.
  bool allow_case_subset{false};
};

struct GateResult {
  bool pass{true};
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // informational (absolute throughput etc.)
};

// Gate `current` against its tool's rules; `baseline` (same tool) may be
// null, which checks the invariants only — as when recording a first
// baseline.
[[nodiscard]] GateResult gate(const Doc& current, const Doc* baseline,
                              const GateOptions& options);

}  // namespace ampom::perfgate
