// The one writer behind every bench's BENCH_*.json report and its gate
// verdicts. Kept apart from bench_util.hpp, which wtcperf/ also includes.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace wtc::bench {

/// A JSON value as a bench report holds it: a scalar already rendered to
/// its text, or an object or array of values.
///
/// Layout: the root object prints one member per line; below it, a
/// container whose members are all scalars prints on one line and any
/// other container prints one member per line, indented two spaces per
/// level.
class Json {
 public:
  Json(bool value) : text_(value ? "true" : "false") {}
  Json(std::integral auto value) : text_(std::to_string(value)) {}
  Json(const char* value) : text_(quote(value)) {}
  Json(const std::string& value) : text_(quote(value)) {}
  /// A double needs its precision: use fixed().
  Json(double) = delete;

  /// `value` as printf("%.*f", digits, value); null when not finite.
  static Json fixed(double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    Json json(false);
    json.text_ = std::isfinite(value) ? buf : "null";
    return json;
  }

  static Json object(
      std::initializer_list<std::pair<const char*, Json>> members = {}) {
    Json json(false);
    json.open_ = '{';
    for (const auto& [key, value] : members) {
      json.add(key, value);
    }
    return json;
  }

  static Json array(std::initializer_list<Json> items = {}) {
    Json json(false);
    json.open_ = '[';
    json.items_ = items;
    return json;
  }

  /// Appends an object member.
  Json& add(const std::string& key, Json value) {
    keys_.push_back(quote(key) + ": ");
    items_.push_back(std::move(value));
    return *this;
  }

  /// Appends an array element.
  Json& push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  std::string render(int depth = 0) const {
    if (open_ == 0) {
      return text_;
    }
    bool flat = depth > 0;
    for (const Json& item : items_) {
      flat = flat && item.open_ == 0;
    }
    const std::string indent(2 * static_cast<std::size_t>(depth), ' ');
    std::string out(1, open_);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (flat) {
        out += i > 0 ? ", " : "";
      } else {
        out += (i > 0 ? ",\n" : "\n") + indent + "  ";
      }
      out += (open_ == '{' ? keys_[i] : "") + items_[i].render(depth + 1);
    }
    out += flat ? "" : "\n" + indent;
    return out + (open_ == '{' ? '}' : ']');
  }

 private:
  /// Bench names, keys and gate messages: only `"` and `\` need escaping.
  static std::string quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    return out + "\"";
  }

  char open_ = 0;  // '{' object, '[' array, 0 scalar
  std::string text_;
  std::vector<std::string> keys_;  // objects only: `"key": `, one per item
  std::vector<Json> items_;
};

/// A bench's JSON report plus its gates. The report starts as
/// {"bench": NAME}; finish() writes it and turns the failed gates into one
/// `GATE FAILED:` list on stderr and the exit code.
class Report {
 public:
  explicit Report(const char* bench) { root_.add("bench", bench); }

  Report& add(const std::string& key, Json value) {
    root_.add(key, std::move(value));
    return *this;
  }

  /// Records one gate; a failed gate's `failure` is reported by finish().
  /// Returns `passed`.
  bool gate(bool passed, const std::string& failure) {
    if (!passed) {
      failures_.push_back(failure);
    }
    return passed;
  }

  /// Adds "gates_passed" and, when a gate failed, the "failures" list.
  void add_gate_verdicts() {
    add("gates_passed", failures_.empty());
    if (!failures_.empty()) {
      Json list = Json::array();
      for (const auto& failure : failures_) {
        list.push(failure);
      }
      add("failures", std::move(list));
    }
  }

  /// Writes the report to `path`, lists every failed gate on stderr and
  /// returns the bench's exit code: 0 when every gate passed, else 1.
  int finish(const std::string& path) const {
    if (std::FILE* file = std::fopen(path.c_str(), "w")) {
      std::fprintf(file, "%s\n", root_.render().c_str());
      std::fclose(file);
      std::printf("(results written to %s)\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
    for (const auto& failure : failures_) {
      std::fprintf(stderr, "GATE FAILED: %s\n", failure.c_str());
    }
    return failures_.empty() ? 0 : 1;
  }

 private:
  Json root_ = Json::object();
  std::vector<std::string> failures_;
};

}  // namespace wtc::bench
