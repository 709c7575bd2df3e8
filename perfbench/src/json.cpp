#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Json& Json::set(std::string key, Json value) {
  auto* obj = std::get_if<std::shared_ptr<Object>>(&value_);
  if (obj == nullptr) {
    throw std::logic_error("Json::set on a non-object");
  }
  (*obj)->emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  auto* arr = std::get_if<std::shared_ptr<Array>>(&value_);
  if (arr == nullptr) {
    throw std::logic_error("Json::push on a non-array");
  }
  (*arr)->push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::dump_to(std::string& out) const {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const auto* d = std::get_if<double>(&value_)) {
    if (!std::isfinite(*d)) {
      out += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", *d);
      out += buf;
    }
  } else if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    out += std::to_string(*u);
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    out += std::to_string(*i);
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    dump_string(*s, out);
  } else if (const auto* a = std::get_if<std::shared_ptr<Array>>(&value_)) {
    out += '[';
    bool first = true;
    for (const Json& v : **a) {
      if (!first) {
        out += ", ";
      }
      first = false;
      v.dump_to(out);
    }
    out += ']';
  } else if (const auto* o = std::get_if<std::shared_ptr<Object>>(&value_)) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : **o) {
      if (!first) {
        out += ", ";
      }
      first = false;
      dump_string(k, out);
      out += ": ";
      v.dump_to(out);
    }
    out += '}';
  }
}

Json to_json(const Counters& counters) {
  Json out = Json::object();
  for (const auto& [name, value] : counters) {
    out.set(name, value);
  }
  return out;
}

}  // namespace perfbench
