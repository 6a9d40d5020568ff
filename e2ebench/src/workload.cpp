#include "workload.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "charlib/library.h"
#include "core/ppa.h"
#include "host.h"
#include "runtime/metrics.h"
#include "stats.h"

namespace e2ebench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_cold", "cells_ref",
                                                 "block_sta", "serve_mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "paper_cold") return make_paper_cold(config);
  if (name == "cells_ref") return make_cells_ref(config);
  if (name == "block_sta") return make_block_sta(config);
  if (name == "serve_mix") return make_serve_mix(config);
  return nullptr;
}

void run_tasks(std::size_t threads, std::size_t n,
               const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex m;
  std::exception_ptr error;
  const auto worker = [&] {
    try {
      for (std::size_t i; (i = next++) < n;) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(m);
      if (!error) error = std::current_exception();
      next = n;
    }
  };
  std::vector<std::thread> helpers;
  try {
    for (std::size_t t = 1; t < std::min(threads, n); ++t)
      helpers.emplace_back(worker);
  } catch (...) {
    next = n;  // a thread could not start: stop, join, report
    for (std::thread& t : helpers) t.join();
    throw;
  }
  worker();
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
}

std::string read_repo_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string golden_failure(const mivtx::verify::GoldenSuiteResult& measured) {
  const mivtx::verify::GoldenCheck check = mivtx::verify::check_against_baseline(
      measured, read_repo_file("tests/golden/" + measured.suite + ".json"));
  return check.pass ? std::string() : check.summary();
}

std::vector<std::string> cached_golden_failures(
    mivtx::runtime::ArtifactCache& cache, std::size_t jobs,
    const std::vector<std::string>& suites) {
  std::vector<std::string> failures;
  const mivtx::runtime::CacheStats before = cache.stats();
  mivtx::verify::GoldenContext ctx({jobs, &cache});
  for (const std::string& suite : suites) {
    const std::string fail =
        golden_failure(mivtx::verify::compute_golden_suite(suite, ctx));
    if (!fail.empty()) failures.push_back(fail);
  }
  const mivtx::runtime::CacheStats after = cache.stats();
  if (after.misses != before.misses || after.stores != before.stores ||
      after.hits <= before.hits)
    failures.push_back("golden suites did not read the timed artifacts "
                       "(cache was cold)");
  return failures;
}

std::string first_line(const std::string& what) {
  std::string line = what.substr(0, what.find('\n'));
  const std::string marker = " failed: ";
  const std::size_t at = line.find(marker);
  if (line.find(": check `") != std::string::npos && at != std::string::npos)
    line = line.substr(at + marker.size());
  return line;
}

std::vector<CellJob> all_cell_jobs(mivtx::Rng& rng) {
  std::vector<CellJob> jobs;
  for (const auto type : mivtx::cells::all_cells())
    for (const auto impl : mivtx::cells::all_implementations())
      jobs.emplace_back(type, impl);
  shuffle(jobs, rng);
  heaviest_first(jobs);
  return jobs;
}

void heaviest_first(std::vector<CellJob>& jobs) {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const CellJob& a, const CellJob& b) {
                     return mivtx::cells::cell_num_inputs(a.first) >
                            mivtx::cells::cell_num_inputs(b.first);
                   });
}

std::string job_name(const CellJob& job) {
  return std::string(mivtx::cells::cell_name(job.first)) + "/" +
         mivtx::charlib::impl_tag(job.second);
}

void warm_up_ppa(const mivtx::core::ModelLibrary& library) {
  const mivtx::core::PpaEngine engine(library);
  if (!engine.measure(mivtx::cells::CellType::kInv1,
                      mivtx::cells::Implementation::k2D)
           .ok)
    throw std::runtime_error("warm-up INV1X1/2D measurement failed");
}

Stopwatch::Stopwatch()
    : wall0_(now_seconds()), cpu0_(process_cpu_seconds()) {}

void Stopwatch::stop(PassResult& out) const {
  out.wall_s = now_seconds() - wall0_;
  out.cpu_s = process_cpu_seconds() - cpu0_;
}

void add_spice_counters(MetricSet& m) {
  const mivtx::runtime::Metrics& g = mivtx::runtime::Metrics::global();
  m.add("spice.transients", "count",
        g.counter_total("ppa.transients") +
            g.counter_total("charlib.transients"));
  for (const char* name :
       {"spice.newton.iterations", "spice.sparse.full_factorizations",
        "spice.sparse.refactorizations", "spice.device.evals",
        "spice.device.bypasses"})
    m.add(name, "count", g.counter_total(name));
}

void add_cache_stats(MetricSet& m, const mivtx::runtime::CacheStats& stats) {
  m.add("cache.hit_rate", "ratio", stats.hit_rate());
  m.add("cache.stores", "count", static_cast<double>(stats.stores));
  m.add("cache.disk_hits", "count", static_cast<double>(stats.disk_hits));
}

void add_charlib_metrics(MetricSet& m, const LayerTimes& layers,
                         const std::vector<double>& entry_latencies_s,
                         std::size_t attempted, std::size_t failed) {
  m.add("charlib.busy_s", "s",
        layers.busy("bench.charlib.characterize_cell"));
  m.add("charlib.entry_p50_ms", "ms",
        entry_latencies_s.empty() ? 0.0 : 1e3 * median(entry_latencies_s));
  m.add("charlib.entry_max_ms", "ms",
        entry_latencies_s.empty()
            ? 0.0
            : 1e3 * *std::max_element(entry_latencies_s.begin(),
                                      entry_latencies_s.end()));
  m.add("charlib.failed", "count", static_cast<double>(failed));
  m.add("charlib.ok_share", "ratio",
        attempted == 0 ? 0.0
                       : static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted));
}

void add_pool_share(MetricSet& m, const PassResult& pass,
                    std::size_t threads) {
  const double capacity = pass.wall_s * static_cast<double>(threads);
  m.add("pool.busy_share", "ratio",
        capacity > 0.0 ? pass.layers.busy_prefix("bench.op.") / capacity
                       : 0.0);
}

}  // namespace e2ebench
