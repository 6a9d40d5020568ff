// Turning a run's passes into the metric sets the result line carries.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "report.h"
#include "stats.h"

namespace e2ebench {

struct RunTotals {
  double setup_s = 0.0;             // median over the setup repetitions
  std::vector<double> pass_wall_s;  // one per untraced pass
  std::vector<double> pass_cpu_s;
  std::uint64_t ok_ops = 0;          // over every untraced pass
  std::vector<double> latencies_s;   // successful, individually timed ops
  std::size_t planned_latency_ops = 0;
  double peak_rss_mb = 0.0;
};

// Every end-to-end metric, in catalogue order.  `tail` (optional out)
// receives the latency summary behind op_p50_ms / op_tail_ms.
MetricSet end_to_end_metrics(const RunTotals& totals,
                             std::optional<LatencySummary>* tail = nullptr);

// Every per-layer metric, in catalogue order: the traced pass's measured
// values, 0 for layers this workload does not exercise, plus
// trace.overhead_share.  Throws std::invalid_argument when `measured`
// holds a name or unit the catalogue does not.
MetricSet per_layer_metrics(const MetricSet& measured, double overhead_share);

}  // namespace e2ebench
