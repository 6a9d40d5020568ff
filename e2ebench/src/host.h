// Host fingerprint and process resource readings.  Absolute timings drift
// across hosts, so every benchmark output carries the fingerprint.
#pragma once

#include <string>

namespace e2ebench {

struct HostInfo {
  std::string cpu_model;  // /proc/cpuinfo "model name", "unknown" if absent
  unsigned nproc = 0;     // std::thread::hardware_concurrency()
  std::string simd;       // bsimsoi::best_simd_level()
  std::string build_type; // CMAKE_BUILD_TYPE of this binary
  bool trace_compiled = false;  // MIVTX_TRACE
};

HostInfo host_info();
std::string render_host(const HostInfo& host);

// Process user + system CPU seconds so far (all threads).
double process_cpu_seconds();
// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();
// Monotonic wall clock in seconds.
double now_seconds();

}  // namespace e2ebench
