#pragma once
// A minimal JSON value for the benchmark's raw output: objects keep their
// insertion order, numbers print with full precision, integers exactly.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace perfbench {

class Json {
 public:
  using Object = std::vector<std::pair<std::string, Json>>;
  using Array = std::vector<Json>;

  Json() : value_{nullptr} {}
  Json(double v) : value_{v} {}
  Json(std::uint64_t v) : value_{v} {}
  Json(std::int64_t v) : value_{v} {}
  Json(int v) : value_{static_cast<std::int64_t>(v)} {}
  Json(std::string v) : value_{std::move(v)} {}
  Json(const char* v) : value_{std::string{v}} {}
  Json(Array v) : value_{std::make_shared<Array>(std::move(v))} {}
  Json(Object v) : value_{std::make_shared<Object>(std::move(v))} {}

  static Json object() { return Json{Object{}}; }
  static Json array() { return Json{Array{}}; }

  // Object insert (keeps order; a repeated key is appended, not replaced).
  Json& set(std::string key, Json value);
  // Array append.
  Json& push(Json value);

  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  std::variant<std::nullptr_t, double, std::uint64_t, std::int64_t, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>>
      value_;
};

// Named counters of one layer, flattened to "<layer>.<name>" keys.
using Counters = std::map<std::string, double>;

[[nodiscard]] Json to_json(const Counters& counters);

}  // namespace perfbench
