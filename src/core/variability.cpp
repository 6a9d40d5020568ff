#include "core/variability.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "trace/trace.h"

namespace mivtx::core {

bsimsoi::SoiModelCard perturb_card(const bsimsoi::SoiModelCard& card,
                                   double dvth, double u0_scale) {
  bsimsoi::SoiModelCard out = card;
  // VTH0 carries the polarity sign; shift its magnitude.
  const double sign = out.vth0 < 0.0 ? -1.0 : 1.0;
  out.vth0 = sign * std::max(0.01, std::fabs(out.vth0) + dvth);
  out.u0 = std::max(1e-4, out.u0 * u0_scale);
  return out;
}

namespace {

// Delay/power result of one Monte-Carlo sample (the slice of CellPpa the
// statistics consume).
struct SampleResult {
  double delay = 0.0;
  double power = 0.0;
};

ModelLibrary sample_library(const ModelLibrary& library, double dvth,
                            double u0s) {
  ModelLibrary sampled;
  for (Polarity pol : {Polarity::kNmos, Polarity::kPmos}) {
    for (Variant v : all_variants()) {
      if (!library.has(v, pol)) continue;
      sampled.put(v, pol, perturb_card(library.card(v, pol), dvth, u0s));
    }
  }
  return sampled;
}

// One full PpaEngine measurement per sample, fanned out over the pool.
std::vector<std::optional<SampleResult>> run_per_sample(
    const ModelLibrary& library, cells::CellType type,
    cells::Implementation impl, const VariationSpec& spec,
    const PpaOptions& ppa_opts, const runtime::ExecPolicy& exec,
    const Rng& base) {
  return runtime::parallel_map<std::optional<SampleResult>>(
      exec.pool, spec.samples,
      [&](std::size_t s) -> std::optional<SampleResult> {
        trace::Span span("variability.sample", "variability");
        span.annotate("sample", static_cast<double>(s));
        Rng rng = base.split(s);
        // Correlated sample: both device types shift together (worst
        // case for delay spread; uncorrelated per-device variation
        // partially averages out inside a cell).
        const double dvth = rng.normal(0.0, spec.sigma_vth);
        const double u0s = std::exp(rng.normal(0.0, spec.sigma_u0_rel));

        const ModelLibrary sampled = sample_library(library, dvth, u0s);
        // Samples already saturate the pool; keep the inner engine
        // serial but let it share the artifact cache.
        runtime::ExecPolicy inner;
        inner.cache = exec.cache;
        PpaEngine engine(sampled, ppa_opts, {}, inner);
        CellPpa ppa = engine.measure(type, impl);
        if (!ppa.ok) return std::nullopt;
        return SampleResult{ppa.delay, ppa.power};
      });
}

}  // namespace

VariabilityStats run_variability(const ModelLibrary& library,
                                 cells::CellType type,
                                 cells::Implementation impl,
                                 const VariationSpec& spec,
                                 const PpaOptions& ppa_opts,
                                 const runtime::ExecPolicy& exec) {
  MIVTX_EXPECT(spec.samples >= 2, "need at least 2 Monte-Carlo samples");
  trace::Span run_span("variability.run", "variability");
  runtime::ScopedTimer timer("variability.run");
  VariabilityStats stats;
  stats.type = type;
  stats.impl = impl;

  const Rng base(spec.seed + static_cast<std::uint64_t>(type) * 131 +
                 static_cast<std::uint64_t>(impl));

  // One cell measurement per Monte-Carlo sample; each sample owns an
  // independent split of the base stream, so its draws do not depend on
  // which worker runs it.
  const std::vector<std::optional<SampleResult>> samples =
      run_per_sample(library, type, impl, spec, ppa_opts, exec, base);

  // Ordered reduction: identical float accumulation for any pool size.
  double sum = 0.0, sum_sq = 0.0, sum_p = 0.0;
  std::size_t ok = 0;
  for (const auto& sample : samples) {
    if (!sample) continue;
    ++ok;
    sum += sample->delay;
    sum_sq += sample->delay * sample->delay;
    sum_p += sample->power;
    stats.worst_delay = std::max(stats.worst_delay, sample->delay);
  }
  MIVTX_EXPECT(ok >= 2, "too few converged Monte-Carlo samples");
  stats.samples = ok;
  const double n = static_cast<double>(ok);
  stats.mean_delay = sum / n;
  stats.mean_power = sum_p / n;
  const double var = std::max(0.0, sum_sq / n - stats.mean_delay * stats.mean_delay);
  stats.sigma_delay = std::sqrt(var * n / (n - 1.0));
  return stats;
}

}  // namespace mivtx::core
