// Latency statistics for the benchmark report: interpolated percentiles
// and the tail percentile rule ("the highest percentile with at least ten
// samples beyond it").
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace e2ebench {

// Percentile p in [0, 100] by linear interpolation between closest ranks
// (numpy's default).  Throws std::invalid_argument on an empty sample or
// p outside [0, 100].
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

// Samples strictly beyond percentile p in a sample of n: floor(n(1-p/100)).
std::size_t samples_beyond(std::size_t n, double p);

// Highest percentile of the ladder 99.9/99.5/99/98/95/90/80/75/50 with at
// least `min_beyond` samples beyond it in a sample of n; nullopt when even
// the lowest rung has too few.
std::optional<double> tail_percentile(std::size_t n,
                                      std::size_t min_beyond = 10);

struct LatencySummary {
  std::size_t count = 0;
  double p50_s = 0.0;
  double tail_pct = 0.0;        // which percentile op_tail reports
  double tail_s = 0.0;
  std::size_t tail_beyond = 0;  // samples beyond it in this summary
};

// Summarize `samples` (seconds).  The tail percentile is chosen from
// `planned` — the op count one pass of the workload always has — so the
// rung does not change with how many passes fit in a run; the value is
// taken over every sample.  Returns nullopt when `samples` is empty or no
// rung qualifies.
std::optional<LatencySummary> summarize_latencies(
    const std::vector<double>& samples, std::size_t planned);

}  // namespace e2ebench
