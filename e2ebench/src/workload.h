// The benchmark's workloads.  Each one generates its inputs from the seed
// in setup(), runs one pass over a fixed op population per run_pass(),
// and checks the outputs of the last pass it timed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cells/celltypes.h"
#include "cells/netgen.h"
#include "layers.h"
#include "report.h"
#include "common/rng.h"
#include "core/flow.h"
#include "runtime/artifact_cache.h"
#include "verify/golden.h"

namespace e2ebench {

struct WorkloadConfig {
  std::uint64_t seed = 1;
  std::size_t threads = 4;  // worker threads (never above nproc)
  std::string work_dir;     // scratch directory inside the checkout
};

// What one pass measured.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  OpLedger ops;
  LayerTimes layers;  // probes; ops are "bench.op.<kind>"
  // Per-layer metrics only a traced pass reports (counters, layer
  // percentiles, cache statistics) — filled by the workload.
  MetricSet layer_metrics;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // Build every input from the seed (called several times; the last
  // call's state is what run_pass uses).  Not timed by run_pass.
  virtual void setup() = 0;
  // Print the measured properties of the generated inputs.
  virtual void describe_inputs(std::ostream& out) const = 0;
  // Ops in one pass that carry their own latency; picks the tail rung.
  virtual std::size_t planned_latency_ops() const = 0;
  // Run one pass.  `traced` selects the split call structure that
  // separates layers from outside and fills layer_metrics.
  virtual void run_pass(bool traced, PassResult& out) = 0;
  // End-to-end figures of the last pass that only this workload has
  // (printed with the metric table, not part of the result line).
  virtual void report_extras(MetricSet&) const {}
  // Check the outputs of the last pass; one message per failed check.
  virtual std::vector<std::string> check() = 0;
};

const std::vector<std::string>& workload_names();
// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

// Factories (one per workload source file).
std::unique_ptr<Workload> make_paper_cold(const WorkloadConfig& config);
std::unique_ptr<Workload> make_cells_ref(const WorkloadConfig& config);
std::unique_ptr<Workload> make_block_sta(const WorkloadConfig& config);
std::unique_ptr<Workload> make_serve_mix(const WorkloadConfig& config);

// Shared helpers for workload sources.

// Run fn(i) for i in [0, n) on `threads` threads (the caller is one),
// each taking the next index when it finishes one.  Every op runs
// serially on its thread, so an op's latency is its own work only.
// Rethrows the first exception fn lets escape, after joining.
void run_tasks(std::size_t threads, std::size_t n,
               const std::function<void(std::size_t)>& fn);

// Read a repository file (relative to the checkout root); throws on error.
std::string read_repo_file(const std::string& path);

// Golden check of a measured suite against tests/golden/<suite>.json;
// returns "" on pass, else the check's summary.
std::string golden_failure(const mivtx::verify::GoldenSuiteResult& measured);

// The golden `suites` computed through `cache`, which the timed pass
// filled: one message per failing suite, plus one when computing them
// stored or missed anything (the check must read the timed artifacts).
std::vector<std::string> cached_golden_failures(
    mivtx::runtime::ArtifactCache& cache, std::size_t jobs,
    const std::vector<std::string>& suites);

// The reason in an exception message: its first line, without the
// "file:line: check `cond` failed: " prefix of MIVTX_EXPECT.
std::string first_line(const std::string& what);

// Seeded Fisher-Yates shuffle (the op order a seed gives).
template <typename T>
void shuffle(std::vector<T>& items, mivtx::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.uniform_index(i)]);
}

using CellJob = std::pair<mivtx::cells::CellType, mivtx::cells::Implementation>;

// Every (cell, impl) pair, shuffled by `rng`, then stably ordered by input
// count, most first: the ops that simulate the most pins start first, so
// the end of a pass is not one long op on an otherwise idle machine.
std::vector<CellJob> all_cell_jobs(mivtx::Rng& rng);
void heaviest_first(std::vector<CellJob>& jobs);
// "NAND2X1/2d".
std::string job_name(const CellJob& job);

// Warm-up every PPA-driving setup ends with: one uncached INV1X1/2D
// measurement, so lazy one-time work (SIMD dispatch, first-touch pages)
// lands in setup_s instead of the first timed op.
void warm_up_ppa(const mivtx::core::ModelLibrary& library);

// Wall and process-CPU time of a pass's timed region.
class Stopwatch {
 public:
  Stopwatch();
  void stop(PassResult& out) const;

 private:
  double wall0_;
  double cpu0_;
};

// Per-layer metrics shared by the workloads: the SPICE solver counters of
// runtime::Metrics (reset before each pass), artifact-cache statistics,
// and the charlib entry layer.
void add_spice_counters(MetricSet& m);
void add_cache_stats(MetricSet& m, const mivtx::runtime::CacheStats& stats);
void add_charlib_metrics(MetricSet& m, const LayerTimes& layers,
                         const std::vector<double>& entry_latencies_s,
                         std::size_t attempted, std::size_t failed);
// pool.busy_share: summed "bench.op.*" time over (wall x threads).
void add_pool_share(MetricSet& m, const PassResult& pass,
                    std::size_t threads);

}  // namespace e2ebench
