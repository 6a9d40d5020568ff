// Layer accounting from outside the program: every call the benchmark
// makes into a mivtx layer goes through a Probe, which opens a trace span
// "bench.<layer>.<call>" (recorded only while the tracer runs) and adds
// the call's wall time to that span name's busy total.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "trace/trace.h"

namespace e2ebench {

// Thread-safe busy-time totals (wall seconds summed across threads) keyed
// by probe name.
class LayerTimes {
 public:
  void add(const char* name, double seconds);
  double busy(const std::string& name) const;
  // Summed busy time of every name starting with `prefix`.
  double busy_prefix(const std::string& prefix) const;

 private:
  mutable std::mutex m_;
  std::map<std::string, double> busy_;
};

// RAII probe around one public call.  `name` must be a string literal of
// the form "bench.<layer>.<call>" (trace spans keep the pointer).
class Probe {
 public:
  Probe(LayerTimes& times, const char* name, const char* detail = "");
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  double elapsed() const;

 private:
  LayerTimes& times_;
  const char* name_;
  double start_;
  mivtx::trace::Span span_;
};

// Self time per layer from the tracer's events: a span's duration minus
// the part its children cover, summed by layer ("bench.<layer>.*" spans
// count for <layer>, library spans for their first name component).
std::string render_self_time_table();

}  // namespace e2ebench
