#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2ebench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

namespace {
constexpr double kTailLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                  90.0, 80.0, 75.0, 50.0};
}  // namespace

std::size_t samples_beyond(std::size_t n, double p) {
  // Integer arithmetic in tenths of a percent keeps 99.9 exact.
  const auto tenths = static_cast<std::size_t>(std::llround(p * 10.0));
  return n * (1000 - tenths) / 1000;
}

std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : kTailLadder)
    if (samples_beyond(n, p) >= min_beyond) return p;
  return std::nullopt;
}

std::optional<LatencySummary> summarize_latencies(
    const std::vector<double>& samples, std::size_t planned) {
  if (samples.empty()) return std::nullopt;
  const std::optional<double> rung = tail_percentile(planned);
  if (!rung) return std::nullopt;
  LatencySummary s;
  s.count = samples.size();
  s.p50_s = median(samples);
  s.tail_pct = *rung;
  s.tail_s = percentile(samples, *rung);
  s.tail_beyond = samples_beyond(samples.size(), *rung);
  return s;
}

}  // namespace e2ebench
