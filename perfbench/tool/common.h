// Shared helpers of perfbench_tool: a minimal JSON emitter, a monotonic
// microsecond clock, and loading a BAGCSEG segment into the inputs an
// EngineSnapshot is built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bag/bag.h"
#include "server/engine_snapshot.h"
#include "util/result.h"

namespace perfbench {

/// Aborts with the status message: the tool runs on inputs it generated
/// itself, so any failure is a bug worth stopping for.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_tool: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(bagc::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

inline void MustOk(const bagc::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);

/// Appends JSON text to a string; the caller places commas.
class Json {
 public:
  Json& Raw(const std::string& text) {
    out_ += text;
    return *this;
  }
  Json& Str(const std::string& text);
  Json& Num(double value);
  Json& Int(uint64_t value) { return Raw(std::to_string(value)); }
  Json& Key(const std::string& key) {
    Str(key);
    return Raw(":");
  }
  const std::string& text() const { return out_; }

 private:
  std::string out_;
};

/// The bags, names, catalog and dictionaries of one segment file, loaded
/// the way the registry's lazy reload does (zero-copy columnar borrow).
struct SegmentInputs {
  std::vector<std::string> names;
  std::vector<bagc::Bag> bags;
  bagc::AttributeCatalog catalog;
  std::shared_ptr<bagc::DictionarySet> dicts;
};

SegmentInputs LoadSegment(const std::string& path);

}  // namespace perfbench
