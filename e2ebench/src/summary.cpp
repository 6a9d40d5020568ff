#include "summary.h"

#include <numeric>
#include <stdexcept>
#include <string>

#include "specs.h"

namespace e2ebench {

MetricSet end_to_end_metrics(const RunTotals& totals,
                             std::optional<LatencySummary>* tail) {
  if (totals.pass_wall_s.empty() ||
      totals.pass_wall_s.size() != totals.pass_cpu_s.size())
    throw std::invalid_argument("end-to-end metrics need at least one pass");
  const double wall_total = std::accumulate(totals.pass_wall_s.begin(),
                                            totals.pass_wall_s.end(), 0.0);
  const std::optional<LatencySummary> lat =
      summarize_latencies(totals.latencies_s, totals.planned_latency_ops);
  if (tail != nullptr) *tail = lat;
  MetricSet m;
  m.add("setup_s", "s", totals.setup_s);
  m.add("wall_s", "s", median(totals.pass_wall_s));
  m.add("cpu_s", "s", median(totals.pass_cpu_s));
  m.add("ops_per_s", "1/s",
        wall_total > 0.0 ? static_cast<double>(totals.ok_ops) / wall_total
                         : 0.0);
  m.add("op_p50_ms", "ms", lat ? 1e3 * lat->p50_s : 0.0);
  m.add("op_tail_ms", "ms", lat ? 1e3 * lat->tail_s : 0.0);
  m.add("peak_rss_mb", "MB", totals.peak_rss_mb);
  for (std::size_t i = 0; i < m.items().size(); ++i)
    if (m.items()[i].name != end_to_end_specs()[i].name)
      throw std::logic_error("end-to-end metrics out of catalogue order");
  return m;
}

MetricSet per_layer_metrics(const MetricSet& measured, double overhead_share) {
  for (const Metric& got : measured.items()) {
    bool known = false;
    for (const MetricSpec& spec : per_layer_specs())
      known |= got.name == spec.name && got.unit == spec.unit;
    if (!known || got.name == "trace.overhead_share")
      throw std::invalid_argument("per-layer metric " + got.name + " [" +
                                  got.unit + "] is not in the catalogue");
  }
  MetricSet m;
  for (const MetricSpec& spec : per_layer_specs()) {
    const std::string name = spec.name;
    if (name == "trace.overhead_share") {
      m.add(name, spec.unit, overhead_share);
    } else {
      const Metric* got = measured.find(name);
      m.add(name, spec.unit, got != nullptr ? got->value : 0.0);
    }
  }
  return m;
}

}  // namespace e2ebench
