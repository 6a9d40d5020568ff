// cells_ref: the cell-level SPICE path on the checked-in reference cards,
// no TCAD.  One pass is the 56-case PPA survey (PpaEngine::measure per
// case, as measure_all does) plus default-grid characterize_cell of all
// 56 (cell, impl) entries, from an empty in-memory artifact cache.  Ops
// run serially, one per benchmark thread, so each latency is one op's.  Entries the characterizer cannot measure
// stay in the workload and count as failed ops.
#include <cmath>
#include <mutex>
#include <optional>

#include "charlib/characterize.h"
#include "common/error.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "stats.h"
#include "workload.h"

namespace e2ebench {
namespace {

// Every table value finite (and positive when `positive`).
bool table_ok(const mivtx::charlib::Table2D& t, bool positive) {
  for (std::size_t r = 0; r < t.rows(); ++r)
    for (std::size_t c = 0; c < t.cols(); ++c)
      if (!std::isfinite(t.at(r, c)) || (positive && t.at(r, c) <= 0.0))
        return false;
  return true;
}

class CellsRef : public Workload {
 public:
  explicit CellsRef(const WorkloadConfig& config) : cfg_(config) {}

  const char* name() const override { return "cells_ref"; }

  void setup() override {
    // The checked-in cards are this workload's input; parse them here.
    library_ = mivtx::core::ModelLibrary::from_text(
        mivtx::core::reference_model_text());
    mivtx::Rng rng(cfg_.seed);
    ppa_cases_ = all_cell_jobs(rng);
    char_jobs_ = all_cell_jobs(rng);
    warm_up_ppa(library_);
  }

  void describe_inputs(std::ostream& out) const override {
    out << "inputs: reference cards, " << ppa_cases_.size()
        << " PPA cases, " << char_jobs_.size()
        << " default-grid charlib entries\n";
  }

  std::size_t planned_latency_ops() const override {
    return ppa_cases_.size() + char_jobs_.size();
  }

  void run_pass(bool traced, PassResult& out) override {
    cache_ = std::make_unique<mivtx::runtime::ArtifactCache>();
    const Stopwatch watch;
    run_ppa(out);
    run_charlib(out);
    watch.stop(out);
    if (!traced) return;
    MetricSet& m = out.layer_metrics;
    m.add("ppa.busy_s", "s", out.layers.busy("bench.ppa.measure"));
    m.add("ppa.case_p50_ms", "ms",
          case_latencies_.empty() ? 0.0 : 1e3 * median(case_latencies_));
    std::size_t failed = 0;
    for (const auto& e : entries_) failed += e.has_value() ? 0 : 1;
    add_charlib_metrics(m, out.layers, entry_latencies_, entries_.size(),
                        failed);
    add_spice_counters(m);
    add_cache_stats(m, cache_->stats());
    add_pool_share(m, out, cfg_.threads);
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures =
        cached_golden_failures(*cache_, cfg_.threads, {"fig5"});

    const mivtx::charlib::CharGrid grid = mivtx::charlib::default_char_grid();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i]) continue;
      const std::string name = job_name(char_jobs_[i]);
      for (const auto& arc : entries_[i]->arcs) {
        // VDD charges the load only on a rising output; on a falling
        // output the rail can get back a little more than it gives (the
        // reference cards read down to -1.3e-16 J at the lightest load).
        if (!table_ok(arc.delay, true) || !table_ok(arc.out_slew, true) ||
            !table_ok(arc.energy, arc.output_rise)) {
          failures.push_back(name + " pin " + arc.pin +
                             ": non-finite or non-positive table value");
          break;
        }
      }
      mivtx::charlib::CharLibrary one;
      one.slew_axis = grid.slews;
      one.load_axis = grid.loads;
      one.insert(char_jobs_[i].second, *entries_[i]);
      const std::string text = one.to_text();
      if (mivtx::charlib::CharLibrary::from_text(text).to_text() != text)
        failures.push_back(name + ": .mlib text does not round-trip");
    }
    return failures;
  }

 private:
  void run_ppa(PassResult& out) {
    const mivtx::core::PpaEngine engine(library_, {}, {},
                                        {nullptr, cache_.get()});
    case_latencies_.clear();
    run_tasks(cfg_.threads, ppa_cases_.size(), [&](std::size_t i) {
      const CellJob& job = ppa_cases_[i];
      const std::string op_name = job_name(job);
      try {
        Probe op(out.layers, "bench.op.ppa_case", op_name.c_str());
        mivtx::core::CellPpa ppa;
        {
          Probe probe(out.layers, "bench.ppa.measure", op_name.c_str());
          ppa = engine.measure(job.first, job.second);
        }
        if (!ppa.ok) {
          out.ops.fail(FailureKind::kPpaNotOk, op_name, "CellPpa::ok false");
          return;
        }
        const double s = op.elapsed();
        out.ops.ok(s);
        const std::lock_guard<std::mutex> lock(m_);
        case_latencies_.push_back(s);
      } catch (const std::exception& e) {
        out.ops.fail(FailureKind::kException, op_name, first_line(e.what()));
      }
    });
  }

  void run_charlib(PassResult& out) {
    mivtx::charlib::CharOptions copts;
    copts.grid = mivtx::charlib::default_char_grid();
    const mivtx::charlib::Characterizer characterizer(
        library_, copts, {}, {nullptr, cache_.get()});
    entries_.assign(char_jobs_.size(), std::nullopt);
    entry_latencies_.clear();
    run_tasks(cfg_.threads, char_jobs_.size(), [&](std::size_t i) {
      const CellJob& job = char_jobs_[i];
      const std::string op_name = job_name(job);
      try {
        Probe op(out.layers, "bench.op.charlib_entry", op_name.c_str());
        Probe probe(out.layers, "bench.charlib.characterize_cell",
                    op_name.c_str());
        entries_[i] = characterizer.characterize_cell(job.first, job.second);
        const double s = op.elapsed();
        out.ops.ok(s);
        const std::lock_guard<std::mutex> lock(m_);
        entry_latencies_.push_back(s);
      } catch (const mivtx::Error& e) {
        out.ops.fail(FailureKind::kCharlibMeasurement, op_name,
                     first_line(e.what()));
      } catch (const std::exception& e) {
        out.ops.fail(FailureKind::kException, op_name, first_line(e.what()));
      }
    });
  }

  WorkloadConfig cfg_;
  mivtx::core::ModelLibrary library_;
  std::vector<CellJob> ppa_cases_;
  std::vector<CellJob> char_jobs_;

  // Outputs of the last pass.
  std::unique_ptr<mivtx::runtime::ArtifactCache> cache_;
  std::vector<std::optional<mivtx::charlib::CellChar>> entries_;
  std::mutex m_;  // guards the latency lists
  std::vector<double> case_latencies_;
  std::vector<double> entry_latencies_;
};

}  // namespace

std::unique_ptr<Workload> make_cells_ref(const WorkloadConfig& config) {
  return std::make_unique<CellsRef>(config);
}

}  // namespace e2ebench
