// The metric catalogue BENCHMARK.json declares: every end-to-end metric
// each untraced run prints, every per-layer metric each traced run prints.
#pragma once

#include <string>
#include <vector>

namespace e2ebench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},     {"wall_s", "s"},         {"cpu_s", "s"},
      {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"},     {"op_tail_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

inline const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"tcad.busy_s", "s"},
      {"tcad.device_max_s", "s"},
      {"extract.busy_s", "s"},
      {"extract.evaluations", "count"},
      {"extract.err_max_pct", "%"},
      {"ppa.busy_s", "s"},
      {"ppa.case_p50_ms", "ms"},
      {"charlib.busy_s", "s"},
      {"charlib.entry_p50_ms", "ms"},
      {"charlib.entry_max_ms", "ms"},
      {"charlib.failed", "count"},
      {"charlib.ok_share", "ratio"},
      {"spice.transients", "count"},
      {"spice.newton.iterations", "count"},
      {"spice.sparse.full_factorizations", "count"},
      {"spice.sparse.refactorizations", "count"},
      {"spice.device.evals", "count"},
      {"spice.device.bypasses", "count"},
      {"analyze.parse_busy_s", "s"},
      {"analyze.libsta_busy_s", "s"},
      {"analyze.libsta_gates_per_s", "1/s"},
      {"analyze.libsta_clamped_lookups", "count"},
      {"place.busy_s", "s"},
      {"analyze.tier_rules_busy_s", "s"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.service_first_p50_ms", "ms"},
      {"serve.service_repeat_p50_ms", "ms"},
      {"serve.transport_p50_ms", "ms"},
      {"serve.computed", "count"},
      {"serve.coalesced", "count"},
      {"serve.repeat_share", "ratio"},
      {"cache.hit_rate", "ratio"},
      {"cache.stores", "count"},
      {"cache.disk_hits", "count"},
      {"pool.busy_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return specs;
}

}  // namespace e2ebench
