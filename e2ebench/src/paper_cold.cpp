// paper_cold: the paper pipeline from nothing — TCAD + staged extraction
// of all 8 devices, the 56-case PPA survey on the extracted cards,
// default-grid characterization of the (cell, impl) entries rca16 and
// alu64 map, and block PPA of both designs.  Every pass starts from an
// empty in-memory artifact cache.
//
// Ops: 8 devices, 56 PPA cases, 20 charlib entries, 2 blocks.  The
// untraced pass drives run_full_flow (device latencies are not visible
// from outside it, so devices carry no latency sample); the traced pass
// calls run_curves_unit and run_extraction_unit per device so TCAD and
// extraction time split.  PPA cases call PpaEngine::measure per case —
// what measure_all does — so each case is timed.  Ops run serially, one
// per benchmark thread.
//
// op_p50_ms / op_tail_ms cover the 56 PPA cases only: the 16 charlib
// entries that measure are ten times longer and too few for a tail rung
// of their own, and mixed in they put the rung on the seam between the
// two populations.  Their latencies go to the charlib.* layer metrics.
#include <algorithm>
#include <mutex>
#include <optional>
#include <set>

#include "analyze/blockppa.h"
#include "charlib/characterize.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/flow.h"
#include "core/flow_units.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "gatelevel/netlist.h"
#include "stats.h"
#include "workload.h"

namespace e2ebench {
namespace {

class PaperCold : public Workload {
 public:
  explicit PaperCold(const WorkloadConfig& config) : cfg_(config) {}

  const char* name() const override { return "paper_cold"; }

  void setup() override {
    mivtx::Rng rng(cfg_.seed);
    blocks_.clear();
    blocks_.push_back(mivtx::gatelevel::ripple_carry_adder(16));
    blocks_.push_back(mivtx::gatelevel::alu_block(64));
    char_jobs_.clear();
    std::set<CellJob> seen;
    for (const auto& block : blocks_)
      for (const CellJob& job : mivtx::analyze::library_jobs(block, {}))
        if (seen.insert(job).second) char_jobs_.push_back(job);
    shuffle(char_jobs_, rng);
    heaviest_first(char_jobs_);
    ppa_cases_ = all_cell_jobs(rng);
    warm_up_ppa(mivtx::core::reference_model_library());
  }

  void describe_inputs(std::ostream& out) const override {
    out << "inputs: 8 devices (nominal process), " << ppa_cases_.size()
        << " PPA cases, " << char_jobs_.size()
        << " default-grid charlib entries, blocks";
    for (const auto& b : blocks_)
      out << " " << b.name() << "(" << b.instances().size() << " gates)";
    out << "\n";
  }

  std::size_t planned_latency_ops() const override {
    return ppa_cases_.size();
  }

  void run_pass(bool traced, PassResult& out) override {
    cache_ = std::make_unique<mivtx::runtime::ArtifactCache>();
    devices_.clear();
    device_max_s_ = 0.0;
    const Stopwatch watch;
    const bool flow_ok = traced ? run_devices_split(out) : run_flow(out);
    if (flow_ok) {
      run_ppa(out);
      run_charlib(out);
      run_blocks(out);
    }
    watch.stop(out);
    if (traced) add_layer_metrics(out);
  }

  void report_extras(MetricSet& extras) const override {
    if (!devices_.empty())
      extras.add("extract_err_max_pct", "%", extract_err_max_pct());
  }

  std::vector<std::string> check() override {
    if (devices_.size() != 8) return {"flow did not produce 8 devices"};
    return cached_golden_failures(*cache_, cfg_.threads, {"table3", "fig4"});
  }

 private:
  // Untraced: the user entry point, 8 devices behind one call.
  bool run_flow(PassResult& out) {
    mivtx::core::FlowOptions fopts;
    fopts.jobs = cfg_.threads;
    fopts.cache = cache_.get();
    try {
      mivtx::core::FlowResult flow;
      {
        Probe probe(out.layers, "bench.flow.run_full_flow");
        flow = mivtx::core::run_full_flow(mivtx::core::ProcessParams{}, {},
                                          {}, fopts);
      }
      library_ = std::move(flow.library);
      devices_ = std::move(flow.devices);
    } catch (const std::exception& e) {
      for (int i = 0; i < 8; ++i)
        out.ops.fail(FailureKind::kException, "flow", first_line(e.what()));
      return false;
    }
    for (std::size_t i = 0; i < devices_.size(); ++i) out.ops.ok_untimed();
    return true;
  }

  // Traced: curves unit then extraction unit per device.
  bool run_devices_split(PassResult& out) {
    using mivtx::core::Polarity;
    std::vector<std::pair<mivtx::core::Variant, Polarity>> order;
    for (const Polarity pol : {Polarity::kNmos, Polarity::kPmos})
      for (const auto v : mivtx::core::all_variants())
        order.emplace_back(v, pol);
    std::vector<std::optional<mivtx::core::DeviceExtraction>> slots(
        order.size());
    run_tasks(cfg_.threads, order.size(), [&](std::size_t i) {
      const auto [v, pol] = order[i];
      const std::string key = mivtx::core::device_key(v, pol);
      try {
        Probe op(out.layers, "bench.op.device", key.c_str());
        {
          Probe probe(out.layers, "bench.tcad.run_curves_unit", key.c_str());
          mivtx::core::run_curves_unit(mivtx::core::ProcessParams{}, v, pol,
                                       {}, cache_.get());
          const double s = probe.elapsed();
          const std::lock_guard<std::mutex> lock(m_);
          device_max_s_ = std::max(device_max_s_, s);
        }
        Probe probe(out.layers, "bench.extract.run_extraction_unit",
                    key.c_str());
        slots[i] = mivtx::core::run_extraction_unit(
            mivtx::core::ProcessParams{}, v, pol, {}, {}, cache_.get());
        out.ops.ok(op.elapsed());
      } catch (const std::exception& e) {
        out.ops.fail(FailureKind::kException, key, first_line(e.what()));
      }
    });
    library_ = mivtx::core::ModelLibrary();
    for (auto& slot : slots) {
      if (!slot) return false;
      library_.put(slot->variant, slot->polarity, slot->report.card);
      devices_.push_back(std::move(*slot));
    }
    return true;
  }

  void run_ppa(PassResult& out) {
    const mivtx::core::PpaEngine engine(library_, {}, {},
                                        {nullptr, cache_.get()});
    ppa_latencies_.assign(ppa_cases_.size(), -1.0);
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
        ppa_latencies_[i] = op.elapsed();
        out.ops.ok(ppa_latencies_[i]);
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
    charlib_ = mivtx::charlib::CharLibrary();
    charlib_.slew_axis = characterizer.grid().slews;
    charlib_.load_axis = characterizer.grid().loads;
    std::vector<std::optional<mivtx::charlib::CellChar>> slots(
        char_jobs_.size());
    entry_latencies_.clear();
    charlib_failed_ = 0;
    run_tasks(cfg_.threads, char_jobs_.size(), [&](std::size_t i) {
      const CellJob& job = char_jobs_[i];
      const std::string op_name = job_name(job);
      try {
        Probe op(out.layers, "bench.op.charlib_entry", op_name.c_str());
        Probe probe(out.layers, "bench.charlib.characterize_cell",
                    op_name.c_str());
        slots[i] = characterizer.characterize_cell(job.first, job.second);
        const double s = op.elapsed();
        out.ops.ok_untimed();
        const std::lock_guard<std::mutex> lock(m_);
        entry_latencies_.push_back(s);
      } catch (const mivtx::Error& e) {
        out.ops.fail(FailureKind::kCharlibMeasurement, op_name,
                     first_line(e.what()));
        const std::lock_guard<std::mutex> lock(m_);
        ++charlib_failed_;
      } catch (const std::exception& e) {
        out.ops.fail(FailureKind::kException, op_name, first_line(e.what()));
        const std::lock_guard<std::mutex> lock(m_);
        ++charlib_failed_;
      }
    });
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (slots[i]) charlib_.insert(char_jobs_[i].second, std::move(*slots[i]));
  }

  void run_blocks(PassResult& out) {
    run_tasks(cfg_.threads, blocks_.size(), [&](std::size_t i) {
      const auto& block = blocks_[i];
      try {
        Probe op(out.layers, "bench.op.block", block.name().c_str());
        mivtx::analyze::BlockPpaReport report;
        {
          Probe probe(out.layers, "bench.analyze.run_block_ppa",
                      block.name().c_str());
          report = mivtx::analyze::run_block_ppa(block, charlib_, {});
        }
        std::size_t missing = 0;
        for (const auto& row : report.rows) missing += row.missing_arcs;
        if (missing > 0) {
          out.ops.fail(FailureKind::kMissingTiming, block.name(),
                       mivtx::format("%zu missing arcs over %zu impls",
                                     missing, report.rows.size()));
          return;
        }
        out.ops.ok_untimed();
      } catch (const std::exception& e) {
        out.ops.fail(FailureKind::kException, block.name(),
                     first_line(e.what()));
      }
    });
  }

  void add_layer_metrics(PassResult& out) {
    MetricSet& m = out.layer_metrics;
    m.add("tcad.busy_s", "s", out.layers.busy("bench.tcad.run_curves_unit"));
    m.add("tcad.device_max_s", "s", device_max_s_);
    m.add("extract.busy_s", "s",
          out.layers.busy("bench.extract.run_extraction_unit"));
    double evaluations = 0.0;
    for (const auto& d : devices_)
      for (const auto& stage : d.report.stages)
        evaluations += static_cast<double>(stage.evaluations);
    m.add("extract.evaluations", "count", evaluations);
    m.add("extract.err_max_pct", "%", extract_err_max_pct());
    m.add("ppa.busy_s", "s", out.layers.busy("bench.ppa.measure"));
    std::vector<double> cases;
    for (const double s : ppa_latencies_)
      if (s >= 0.0) cases.push_back(s);
    m.add("ppa.case_p50_ms", "ms", cases.empty() ? 0.0 : 1e3 * median(cases));
    add_charlib_metrics(m, out.layers, entry_latencies_, char_jobs_.size(),
                        charlib_failed_);
    add_spice_counters(m);
    add_cache_stats(m, cache_->stats());
    add_pool_share(m, out, cfg_.threads);
  }

  double extract_err_max_pct() const {
    double worst = 0.0;
    for (const auto& d : devices_)
      worst = std::max({worst, d.report.errors.idvg, d.report.errors.idvd,
                        d.report.errors.cv});
    return 100.0 * worst;
  }

  WorkloadConfig cfg_;
  std::vector<mivtx::gatelevel::GateNetlist> blocks_;
  std::vector<CellJob> char_jobs_;
  std::vector<CellJob> ppa_cases_;

  // Outputs of the last pass.
  std::unique_ptr<mivtx::runtime::ArtifactCache> cache_;
  mivtx::core::ModelLibrary library_;
  std::vector<mivtx::core::DeviceExtraction> devices_;
  mivtx::charlib::CharLibrary charlib_;
  std::vector<double> ppa_latencies_;  // -1 = failed case
  std::mutex m_;  // guards the three fields below
  std::vector<double> entry_latencies_;
  std::size_t charlib_failed_ = 0;
  double device_max_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_cold(const WorkloadConfig& config) {
  return std::make_unique<PaperCold>(config);
}

}  // namespace e2ebench
