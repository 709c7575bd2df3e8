#include "perf_gate/gate.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <set>
#include <string_view>
#include <utility>

namespace ampom::perfgate {
namespace {

// JSON parsing: recursive descent over the subset the documents use.

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  std::optional<JsonValue> parse() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool expect(char c) {
    if (at_end() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (at_end()) {
      return fail("unexpected end of input");
    }
    switch (peek()) {
      case '{':
      case '[': {
        // Bounded recursion: a hostile "[[[[..." must fail, not overflow
        // the stack.
        if (depth_ == kMaxJsonDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        ++depth_;
        const bool ok = parse_members(out, peek() == '{');
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JsonValue::Kind::String;
        return parse_string(out.string);
      case 't':
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = peek() == 't';
        return parse_literal(out.boolean ? "true" : "false");
      case 'n':
        return parse_literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (at_end() || text_[pos_] != *p) {
        return fail(std::string("expected '") + word + "'");
      }
      ++pos_;
    }
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (!at_end()) {
      const char c = peek();
      const bool number_char = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                               c == '.' || c == 'e' || c == 'E';
      if (!number_char) {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected a value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return fail("malformed number '" + token + "'");
    }
    out.kind = JsonValue::Kind::Number;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) {
      return false;
    }
    out.clear();
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The schemas are ASCII; decode BMP escapes in range, '?' otherwise.
          if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end == nullptr || *end != '\0') {
            return fail("malformed \\u escape");
          }
          out += (code >= 0x20 && code < 0x7F) ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  // An array or object; `pos_` is at its opening bracket.
  bool parse_members(JsonValue& out, bool object) {
    out.kind = object ? JsonValue::Kind::Object : JsonValue::Kind::Array;
    const char close = object ? '}' : ']';
    ++pos_;
    skip_ws();
    if (!at_end() && peek() == close) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (object && !(parse_string(key) && (skip_ws(), expect(':')))) {
        return false;
      }
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) {
        return false;
      }
      if (object) {
        out.object.insert_or_assign(std::move(key), std::move(value));
      } else {
        out.array.push_back(std::move(value));
      }
      skip_ws();
      if (at_end()) {
        return fail(object ? "unterminated object" : "unterminated array");
      }
      if (peek() != ',') {
        return expect(close);
      }
      ++pos_;
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_{0};
  int depth_{0};
};

// The shortest text that parses back to the same double: deterministic
// values (event counts, simulated seconds) must survive a render exactly.
std::string fmt(double v) {
  char buf[32];  // enough for any double in shortest form
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// "group/member" splits at the slash; an ungrouped name is {name, ""}.
struct CaseName {
  std::string_view group;
  std::string_view member;
};

CaseName split(std::string_view name) {
  const auto slash = name.find('/');
  if (slash == std::string_view::npos) {
    return {name, {}};
  }
  return {name.substr(0, slash), name.substr(slash + 1)};
}

std::optional<Doc> reject(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what;
  }
  return std::nullopt;
}

// The rule table: the check kinds, then one row per rule.
enum class Check {
  kExact,          // metric == bound
  kFloor,          // metric >= bound (x by); with ref, the ratio ref/case (a speedup)
  kCeiling,        // metric <= bound (x by)
  kGroupEqual,     // metric == the same group's ref case's metric
  kGroupSpread,    // max <= min x bound across the selected cases
  kGroupSumBelow,  // sum over the selected cases < sum over their ref cases
  kInfo,           // note the listed metrics of each selected case
  kBand,           // baseline: base x lower <= metric <= base x bound
  kTrajectory,     // baseline: metric / anchor's <= baseline's ratio x bound
};

struct Rule {
  const char* tool;
  Check check;
  // "*" selects every case, "*/m" member m of every group, anything else
  // that one case. A named member or case must be present in the run.
  const char* cases;
  // The metric checked; for kInfo a comma-separated list. Every selected
  // case must carry it.
  const char* metric;
  double bound{0.0};
  double lower{0.0};
  // kFloor/kCeiling: the bound scales with this metric of the same case.
  // kTrajectory: the anchor is the common case with its smallest value.
  const char* by{nullptr};
  // The member of the same group a case is compared with; required in
  // every group.
  const char* ref{nullptr};
  // Optional case condition; the rule skips cases it rejects.
  bool (*when)(const Doc& doc, const std::string& name){nullptr};
  const char* why{""};
};

// CI's tolerance for deterministic drift and host noise against a baseline.
constexpr double kTolerance = 0.30;
constexpr double kUnbounded = std::numeric_limits<double>::infinity();

// The parallel speedup floor binds on the widest run of a >= 2000-node case,
// and only when the recording host had a CPU per worker: a 1-CPU container
// cannot speed anything up, yet its file still gates bit-identity and the
// trajectory.
bool widest_large_run_with_cpus(const Doc& doc, const std::string& name) {
  const double workers = doc.cases.at(name).at("workers");
  if (doc.cases.at(name).at("nodes") < 2000.0 || workers <= 1.0 || doc.host_cpus < workers) {
    return false;
  }
  for (const auto& [other, metrics] : doc.cases) {
    if (split(other).group == split(name).group && metrics.at("workers") > workers) {
      return false;
    }
  }
  return true;
}

constexpr Rule kRules[] = {
    // bench/micro_simcore: the indexed event queue against the in-binary
    // lazy-delete reference, per profile.
    {.tool = "micro_simcore", .check = Check::kExact, .cases = "*/indexed",
     .metric = "allocs_per_op", .bound = 0.0,
     .why = "the SBO contract: steady-state scheduling allocates nothing"},
    {.tool = "micro_simcore", .check = Check::kFloor, .cases = "cancel_heavy/indexed",
     .metric = "speedup_vs_lazy", .bound = 1.5,
     .why = "in-place cancel must beat lazy deletion where cancels dominate"},
    {.tool = "micro_simcore", .check = Check::kBand, .cases = "*/indexed",
     .metric = "speedup_vs_lazy", .bound = kUnbounded, .lower = 1.0 - kTolerance,
     .why = "speedup regressed"},
    {.tool = "micro_simcore", .check = Check::kBand, .cases = "*/indexed",
     .metric = "peak_queued", .bound = 1.0 + kTolerance,
     .why = "cancelled entries are piling up in the queue"},
    {.tool = "micro_simcore", .check = Check::kInfo, .cases = "*",
     .metric = "events_per_sec,allocs_per_op,peak_queued"},

    // bench/scale_sweep: one zoned gossip world per cluster size.
    {.tool = "scale_sweep", .check = Check::kCeiling, .cases = "*",
     .metric = "msgs_per_node_period", .bound = 3.0, .by = "fan_out",
     .why = "O(fan_out) ceiling: a daemon sends ~2x fan_out per period, an "
            "all-pairs regression ~2x(n-1)"},
    {.tool = "scale_sweep", .check = Check::kGroupSpread, .cases = "*",
     .metric = "msgs_per_node_period", .bound = 1.0 + kTolerance,
     .why = "per-node traffic depends on cluster size"},
    {.tool = "scale_sweep", .check = Check::kBand, .cases = "*", .metric = "events",
     .bound = 1.0 + kTolerance, .lower = 1.0 - kTolerance, .why = "event count drifted"},
    {.tool = "scale_sweep", .check = Check::kBand, .cases = "*",
     .metric = "msgs_per_node_period", .bound = 1.0 + kTolerance,
     .why = "per-node traffic grew"},
    {.tool = "scale_sweep", .check = Check::kTrajectory, .cases = "*", .metric = "wall_sec",
     .bound = 1.0 + kTolerance, .by = "nodes", .why = "scaling shape regressed"},
    {.tool = "scale_sweep", .check = Check::kBand, .cases = "*", .metric = "peak_rss_mb",
     .bound = 1.0 + kTolerance, .why = "peak memory grew"},
    {.tool = "scale_sweep", .check = Check::kInfo, .cases = "*",
     .metric = "nodes,procs,events,wall_sec,events_per_sec,msgs_per_node_period,peak_rss_mb"},

    // bench/parallel_sweep: one world per size ("n2000"), run at each worker
    // count ("n2000/w4"); w1 is the reference.
    {.tool = "parallel_sweep", .check = Check::kGroupEqual, .cases = "*/*", .metric = "events",
     .ref = "w1", .why = "the partitioned schedule depends on the worker count"},
    {.tool = "parallel_sweep", .check = Check::kGroupEqual, .cases = "*/*",
     .metric = "sim_sec", .ref = "w1",
     .why = "the partitioned schedule depends on the worker count"},
    {.tool = "parallel_sweep", .check = Check::kFloor, .cases = "*/*", .metric = "wall_sec",
     .bound = 2.0, .ref = "w1", .when = widest_large_run_with_cpus,
     .why = "the widest run on a large world must at least halve w1's wall time"},
    {.tool = "parallel_sweep", .check = Check::kBand, .cases = "*/w1", .metric = "events",
     .bound = 1.0 + kTolerance, .lower = 1.0 - kTolerance, .why = "event count drifted"},
    {.tool = "parallel_sweep", .check = Check::kTrajectory, .cases = "*/w1",
     .metric = "wall_sec", .bound = 1.0 + kTolerance, .by = "nodes",
     .why = "scaling shape regressed"},
    {.tool = "parallel_sweep", .check = Check::kBand, .cases = "*/*", .metric = "peak_rss_mb",
     .bound = 1.0 + kTolerance, .why = "peak memory grew"},
    {.tool = "parallel_sweep", .check = Check::kInfo, .cases = "*/*",
     .metric = "nodes,workers,events,sim_sec,wall_sec,peak_rss_mb"},

    // bench/cache_ablation: one contended world per migrant WSS, run under
    // each placement policy ("wss4096k/cache"). Every field is simulated,
    // so the bands only absorb future model drift. The info rows name all
    // three policies, so each must have run in every case.
    {.tool = "cache_ablation", .check = Check::kGroupSumBelow, .cases = "*/cache",
     .metric = "warmup_charged_ms", .ref = "load",
     .why = "cache-aware placement must buy a lower total warm-up than load-only"},
    {.tool = "cache_ablation", .check = Check::kBand, .cases = "*/*", .metric = "migrations",
     .bound = 1.0 + kTolerance, .why = "more migrations than the baseline"},
    {.tool = "cache_ablation", .check = Check::kBand, .cases = "*/*",
     .metric = "warmup_charged_ms", .bound = 1.0 + kTolerance,
     .why = "more warm-up charged than the baseline"},
    {.tool = "cache_ablation", .check = Check::kInfo, .cases = "*/load",
     .metric = "wss_kib,migrations,warmup_charged_ms,warmup_paid_ms,makespan_sec"},
    {.tool = "cache_ablation", .check = Check::kInfo, .cases = "*/eq3",
     .metric = "wss_kib,migrations,warmup_charged_ms,warmup_paid_ms,makespan_sec"},
    {.tool = "cache_ablation", .check = Check::kInfo, .cases = "*/cache",
     .metric = "wss_kib,migrations,warmup_charged_ms,warmup_paid_ms,makespan_sec"},
};

// Every metric a rule reads from a case it selects.
std::vector<std::string> metrics_read(const Rule& rule) {
  std::vector<std::string> names;
  std::string_view list = rule.metric;
  while (!list.empty()) {
    const auto comma = list.find(',');
    names.emplace_back(list.substr(0, comma));
    list = comma == std::string_view::npos ? std::string_view{} : list.substr(comma + 1);
  }
  if (rule.by != nullptr) {
    names.emplace_back(rule.by);
  }
  return names;
}

bool matches(std::string_view pattern, std::string_view name) {
  if (pattern == "*") {
    return true;
  }
  const CaseName p = split(pattern);
  const CaseName n = split(name);
  if (p.member.empty() || n.member.empty()) {
    return pattern == name;
  }
  return (p.group == "*" || p.group == n.group) && (p.member == "*" || p.member == n.member);
}

std::string ref_case(const std::string& name, const Rule& rule) {
  return std::string(split(name).group) + "/" + rule.ref;
}

// The cases a rule checks: matched by its pattern, accepted by its
// condition, and — for comparisons — with their reference case present
// (a missing one is reported once, as a missing case).
std::vector<std::string> selected(const Doc& doc, const Rule& rule) {
  std::vector<std::string> out;
  for (const auto& [name, metrics] : doc.cases) {
    if (matches(rule.cases, name) && (rule.when == nullptr || rule.when(doc, name)) &&
        (rule.ref == nullptr || doc.cases.count(ref_case(name, rule)) != 0)) {
      out.push_back(name);
    }
  }
  return out;
}

// The cases the tool's rules name: literal patterns, "*/m" members and
// reference members, in every group of the run.
std::set<std::string> required_cases(const Doc& doc) {
  std::set<std::string> out;
  for (const Rule& rule : kRules) {
    if (doc.tool != rule.tool) {
      continue;
    }
    const std::string_view pattern = rule.cases;
    const CaseName named = split(pattern);
    if (pattern.find('*') == std::string_view::npos) {
      out.emplace(pattern);
    }
    for (const auto& [name, metrics] : doc.cases) {
      const std::string group{split(name).group};
      if (split(name).member.empty()) {
        continue;  // ungrouped
      }
      if (named.group == "*" && !named.member.empty() && named.member != "*") {
        out.emplace(group + "/" + std::string(named.member));
      }
      if (rule.ref != nullptr) {
        out.emplace(group + "/" + rule.ref);
      }
    }
  }
  return out;
}

void fail(GateResult& result, std::string what) {
  result.pass = false;
  result.failures.push_back(std::move(what));
}

// Fail-by-default case-set comparison: comparing only the intersection
// would let a dropped case hide a regression behind a green gate, so every
// miss is named.
void check_case_sets(const Doc& current, const Doc& baseline, const GateOptions& options,
                     GateResult& result) {
  for (const auto& [name, metrics] : current.cases) {
    if (baseline.cases.count(name) == 0) {
      fail(result, "case '" + name +
                       "' is missing from the baseline — nothing gates it; refresh the "
                       "committed baseline to cover it");
    }
  }
  for (const auto& [name, metrics] : baseline.cases) {
    if (current.cases.count(name) != 0) {
      continue;
    }
    if (options.allow_case_subset) {
      result.notes.push_back("case '" + name +
                             "' not run this time (baseline-only miss waived by "
                             "--allow-case-subset)");
    } else {
      fail(result, "case '" + name +
                       "' is in the baseline but was not run — pass --allow-case-subset "
                       "if this quick grid is intentional");
    }
  }
}

void apply(const Rule& rule, const Doc& current, const Doc* baseline, GateResult& result) {
  const auto fail = [&](const std::string& what) {
    perfgate::fail(result, what + " — " + rule.why);
  };
  const std::string metric = metrics_read(rule).front();
  std::vector<std::string> cases = selected(current, rule);
  if (baseline != nullptr) {  // baseline rows compare the common cases only
    std::erase_if(cases, [&](const std::string& name) { return !baseline->cases.count(name); });
  }
  const auto at = [](const Doc& doc, const std::string& name, const std::string& key) {
    return doc.cases.at(name).at(key);
  };
  switch (rule.check) {
    case Check::kExact:
      for (const std::string& name : cases) {
        if (at(current, name, metric) != rule.bound) {
          fail(name + ": " + metric + " = " + fmt(at(current, name, metric)) +
               ", required exactly " + fmt(rule.bound));
        }
      }
      break;
    case Check::kFloor:
    case Check::kCeiling:
      for (const std::string& name : cases) {
        double v = at(current, name, metric);
        std::string what = metric;
        if (rule.ref != nullptr) {
          v = v > 0.0 ? at(current, ref_case(name, rule), metric) / v : 0.0;
          what = "speedup over " + ref_case(name, rule) + " (" + metric + ")";
        }
        const double limit = rule.bound * (rule.by != nullptr ? at(current, name, rule.by) : 1.0);
        if (rule.check == Check::kFloor ? v < limit : v > limit) {
          fail(name + ": " + what + " " + fmt(v) +
               (rule.check == Check::kFloor ? " is below the floor " : " exceeds the ceiling ") +
               fmt(limit));
        }
      }
      break;
    case Check::kGroupEqual:
      for (const std::string& name : cases) {
        const double reference = at(current, ref_case(name, rule), metric);
        if (at(current, name, metric) != reference) {
          fail(name + ": " + metric + " " + fmt(at(current, name, metric)) +
               " != " + ref_case(name, rule) + " " + metric + " " + fmt(reference));
        }
      }
      break;
    case Check::kGroupSpread: {
      if (cases.empty()) {
        break;
      }
      double low = at(current, cases.front(), metric);
      double high = low;
      for (const std::string& name : cases) {
        low = std::min(low, at(current, name, metric));
        high = std::max(high, at(current, name, metric));
      }
      // No zero exemption: a case that reports 0 beside one that does not
      // is the widest spread there is.
      if (high > low * rule.bound) {
        fail(metric + " spreads from " + fmt(low) + " to " + fmt(high) +
             " across cases (limit " + fmt(rule.bound) + "x)");
      }
      break;
    }
    case Check::kGroupSumBelow: {
      double sum = 0.0;
      double ref_sum = 0.0;
      for (const std::string& name : cases) {
        sum += at(current, name, metric);
        ref_sum += at(current, ref_case(name, rule), metric);
      }
      if (!cases.empty() && !(sum < ref_sum)) {
        fail(std::string("total ") + metric + " over " + rule.cases + " is " + fmt(sum) +
             ", not strictly below " + fmt(ref_sum) + " over */" + rule.ref);
      }
      break;
    }
    case Check::kInfo:
      for (const std::string& name : cases) {
        std::string note = name + ":";
        for (const std::string& key : metrics_read(rule)) {
          note += " " + key + " " + fmt(at(current, name, key));
        }
        result.notes.push_back(note);
      }
      break;
    case Check::kBand:
      for (const std::string& name : cases) {
        const double base = at(*baseline, name, metric);
        const double v = at(current, name, metric);
        if (v < base * rule.lower || v > base * rule.bound) {
          fail(name + ": " + metric + " " + fmt(v) + " is outside the baseline band [" +
               fmt(base * rule.lower) + ", " + fmt(base * rule.bound) + "] around " +
               fmt(base));
        }
      }
      break;
    case Check::kTrajectory: {
      // Wall time relative to the smallest common case: machine speed
      // cancels in the ratio and the scaling shape remains.
      const std::string* anchor = nullptr;
      for (const std::string& name : cases) {
        if (anchor == nullptr || at(current, name, rule.by) < at(current, *anchor, rule.by)) {
          anchor = &name;
        }
      }
      if (anchor == nullptr) {
        break;
      }
      const double cur_anchor = at(current, *anchor, metric);
      const double base_anchor = at(*baseline, *anchor, metric);
      for (const std::string& name : cases) {
        if (name == *anchor || cur_anchor <= 0.0 || base_anchor <= 0.0 ||
            at(*baseline, name, metric) <= 0.0) {
          continue;
        }
        const double ratio = at(current, name, metric) / cur_anchor;
        const double base_ratio = at(*baseline, name, metric) / base_anchor;
        if (ratio > base_ratio * rule.bound) {
          fail(name + ": " + metric + " relative to " + *anchor + " is " + fmt(ratio) +
               "x, above the baseline's " + fmt(base_ratio) + "x times " + fmt(rule.bound));
        }
      }
      break;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) {
    return nullptr;
  }
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<JsonValue> parse_json(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  return Parser{text, error}.parse();
}

std::optional<Doc> summarize_raw(const JsonValue& raw, std::string* error) {
  const JsonValue* benchmarks = raw.find("benchmarks");
  if (benchmarks == nullptr || benchmarks->kind != JsonValue::Kind::Array) {
    return reject(error, "raw output has no 'benchmarks' array");
  }
  // The five engine profiles and their benchmark-name stems.
  constexpr std::pair<const char*, const char*> kProfiles[] = {
      {"schedule_heavy", "BM_ScheduleHeavy"},
      {"cancel_heavy", "BM_CancelHeavy"},
      {"mixed", "BM_Mixed"},
      {"burst_cycle", "BM_BurstCycle"},
      {"lockstep_cycle", "BM_LockstepCycle"},
  };
  constexpr std::pair<const char*, const char*> kEngines[] = {{"indexed", "_Indexed"},
                                                              {"lazy", "_Lazy"}};
  Doc doc;
  doc.tool = "micro_simcore";
  const JsonValue* context = raw.find("context");
  const JsonValue* cpus = context != nullptr ? context->find("num_cpus") : nullptr;
  doc.host_cpus = cpus != nullptr && cpus->kind == JsonValue::Kind::Number ? cpus->number : 0.0;
  for (const auto& [profile, stem] : kProfiles) {
    for (const auto& [engine, suffix] : kEngines) {
      const std::string bench_name = std::string(stem) + suffix;
      const JsonValue* bench = nullptr;
      for (const JsonValue& entry : benchmarks->array) {
        const JsonValue* name = entry.find("name");
        if (name != nullptr && name->kind == JsonValue::Kind::String &&
            name->string == bench_name) {
          bench = &entry;
        }
      }
      if (bench == nullptr) {
        return reject(error, "benchmark '" + bench_name + "' not found in raw output");
      }
      Metrics& metrics = doc.cases[std::string(profile) + "/" + engine];
      for (const char* counter : {"events_per_sec", "allocs_per_op", "peak_queued"}) {
        const JsonValue* v = bench->find(counter);
        if (v == nullptr || v->kind != JsonValue::Kind::Number) {
          return reject(error, bench_name + ": counter '" + counter +
                        "' missing from benchmark output");
        }
        metrics[counter] = v->number;
      }
    }
    const double lazy_rate = doc.cases.at(std::string(profile) + "/lazy").at("events_per_sec");
    if (lazy_rate <= 0.0) {
      return reject(error, std::string(stem) + "_Lazy reports a non-positive events_per_sec");
    }
    Metrics& indexed = doc.cases.at(std::string(profile) + "/indexed");
    indexed["speedup_vs_lazy"] = indexed.at("events_per_sec") / lazy_rate;
  }
  return doc;
}

std::optional<Doc> load_doc(const JsonValue& json, std::string* error) {
  const JsonValue* schema = json.find("schema");
  const JsonValue* tool = json.find("tool");
  const JsonValue* host_cpus = json.find("host_cpus");
  const JsonValue* cases = json.find("cases");
  if (schema == nullptr || schema->kind != JsonValue::Kind::Number || schema->number != 2.0) {
    return reject(error, "not a schema-2 bench document (missing \"schema\": 2)");
  }
  if (tool == nullptr || tool->kind != JsonValue::Kind::String) {
    return reject(error, "document has no 'tool' string");
  }
  Doc doc;
  doc.tool = tool->string;
  if (std::none_of(std::begin(kRules), std::end(kRules),
                   [&doc](const Rule& rule) { return doc.tool == rule.tool; })) {
    return reject(error, "no rules for tool '" + doc.tool + "'");
  }
  if (host_cpus == nullptr || host_cpus->kind != JsonValue::Kind::Number) {
    return reject(error, "document has no numeric 'host_cpus'");
  }
  doc.host_cpus = host_cpus->number;
  if (cases == nullptr || cases->kind != JsonValue::Kind::Object || cases->object.empty()) {
    return reject(error, "document has no 'cases' object");
  }
  for (const auto& [name, value] : cases->object) {
    if (name.empty() || name.front() == '/' || name.back() == '/' ||
        std::count(name.begin(), name.end(), '/') > 1) {
      return reject(error, "case '" + name + "': at most one grouping level ('group/member')");
    }
    if (value.kind != JsonValue::Kind::Object) {
      return reject(error, "case '" + name + "' is not an object");
    }
    Metrics& metrics = doc.cases[name];
    for (const auto& [key, number] : value.object) {
      if (number.kind != JsonValue::Kind::Number) {
        return reject(error, "case '" + name + "': metric '" + key + "' is not a number");
      }
      metrics[key] = number.number;
    }
  }
  for (const Rule& rule : kRules) {
    if (doc.tool != rule.tool) {
      continue;
    }
    for (const auto& [name, metrics] : doc.cases) {
      // Every member of a group-equal group is a rerun of its reference
      // case; without that case the group cannot be read at all.
      if (rule.check == Check::kGroupEqual && matches(rule.cases, name) &&
          doc.cases.count(ref_case(name, rule)) == 0) {
        return reject(error, "case '" + name + "' has no reference case '" +
                                 ref_case(name, rule) + "'");
      }
      const bool is_ref = rule.ref != nullptr && split(name).member == rule.ref;
      for (const std::string& key : metrics_read(rule)) {
        if ((matches(rule.cases, name) || is_ref) && metrics.count(key) == 0) {
          return reject(error, "case '" + name + "' is missing numeric metric '" + key + "'");
        }
      }
    }
  }
  return doc;
}

std::string render_doc(const Doc& doc) {
  std::string out = "{\n  \"schema\": 2,\n  \"tool\": \"" + doc.tool + "\",\n";
  out += "  \"host_cpus\": " + fmt(doc.host_cpus) + ",\n  \"cases\": {\n";
  std::size_t i = 0;
  for (const auto& [name, metrics] : doc.cases) {
    out += "    \"" + name + "\": {";
    std::size_t m = 0;
    for (const auto& [key, v] : metrics) {
      out += "\"" + key + "\": " + fmt(v) + (++m < metrics.size() ? ", " : "");
    }
    out += ++i < doc.cases.size() ? "},\n" : "}\n";
  }
  out += "  }\n}\n";
  return out;
}

GateResult gate(const Doc& current, const Doc* baseline, const GateOptions& options) {
  GateResult result;
  for (const std::string& name : required_cases(current)) {
    if (current.cases.count(name) == 0) {
      fail(result, "case '" + name + "' is missing from this run — the " + current.tool +
                       " rules check it");
    }
  }
  if (baseline != nullptr) {
    check_case_sets(current, *baseline, options, result);
  }
  for (const Rule& rule : kRules) {
    const bool needs_baseline = rule.check == Check::kBand || rule.check == Check::kTrajectory;
    if (current.tool == rule.tool && (baseline != nullptr || !needs_baseline)) {
      apply(rule, current, baseline, result);
    }
  }
  return result;
}

}  // namespace ampom::perfgate
