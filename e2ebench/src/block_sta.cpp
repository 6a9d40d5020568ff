// block_sta: block-level timing with no transients in the timed phase.
// Setup generates 40 seeded random_logic_block designs with sizes spread
// log-uniformly over 1k-10k gates (the same sizes for every seed; the seed
// draws the logic), plus rca16, alu4 and alu64, renders each to .gnl text,
// and characterizes a mini-grid library of all 56 entries on the
// reference cards.
//
// One op: parse_design, to_gate_netlist, then run_block_ppa for all four
// implementations (serially, as mivtx_blockppa does).  Ops run one per
// thread.  The traced pass replaces run_block_ppa by its parts —
// run_library_sta, Placer::place and analyze_tiers per implementation —
// so STA, placement and tier rules split.
#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>

#include "analyze/blockppa.h"
#include "analyze/design.h"
#include "charlib/characterize.h"
#include "common/strings.h"
#include "core/reference_cards.h"
#include "gatelevel/netlist.h"
#include "lint/diagnostics.h"
#include "stats.h"
#include "workload.h"

namespace e2ebench {
namespace {

constexpr std::size_t kRandomDesigns = 40;
constexpr double kMinGates = 1000.0;
constexpr double kMaxGates = 10000.0;

struct DesignInput {
  std::string name;
  std::string gnl;  // the only form the timed phase sees
  std::size_t gates = 0;
};

class BlockSta : public Workload {
 public:
  explicit BlockSta(const WorkloadConfig& config) : cfg_(config) {}

  const char* name() const override { return "block_sta"; }

  void setup() override {
    mivtx::Rng rng(cfg_.seed);
    std::vector<mivtx::gatelevel::GateNetlist> netlists;
    for (std::size_t i = 0; i < kRandomDesigns; ++i) {
      const double u = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(kRandomDesigns);
      const auto gates = static_cast<std::size_t>(
          std::lround(kMinGates * std::pow(kMaxGates / kMinGates, u)));
      netlists.push_back(
          mivtx::gatelevel::random_logic_block(gates, rng.next_u64()));
    }
    netlists.push_back(mivtx::gatelevel::ripple_carry_adder(16));
    netlists.push_back(mivtx::gatelevel::alu_block(4));
    netlists.push_back(mivtx::gatelevel::alu_block(64));
    histogram_.clear();
    inputs_.clear();
    for (const auto& n : netlists) {
      for (const auto& [type, count] : n.cell_histogram())
        histogram_[type] += count;
      inputs_.push_back({n.name(),
                         mivtx::analyze::to_gnl_text(
                             mivtx::analyze::design_from_netlist(n)),
                         n.instances().size()});
    }
    // Largest first, so no big design starts last (seeded order among
    // equal sizes).
    shuffle(inputs_, rng);
    std::stable_sort(inputs_.begin(), inputs_.end(),
                     [](const DesignInput& a, const DesignInput& b) {
                       return a.gates > b.gates;
                     });

    // Mini grid on the reference cards, no cache: setup pays every
    // transient, the timed phase none.
    mivtx::charlib::CharOptions copts;
    copts.grid = mivtx::charlib::mini_char_grid();
    const mivtx::charlib::Characterizer characterizer(
        mivtx::core::reference_model_library(), copts);
    const std::vector<CellJob> jobs = all_cell_jobs(rng);
    std::vector<mivtx::charlib::CellChar> entries(jobs.size());
    run_tasks(cfg_.threads, jobs.size(), [&](std::size_t i) {
      entries[i] = characterizer.characterize_cell(jobs[i].first,
                                                   jobs[i].second);
    });
    library_ = mivtx::charlib::CharLibrary();
    library_.slew_axis = characterizer.grid().slews;
    library_.load_axis = characterizer.grid().loads;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      library_.insert(jobs[i].second, std::move(entries[i]));
  }

  void describe_inputs(std::ostream& out) const override {
    std::vector<double> sizes;
    std::size_t total = 0;
    for (const auto& d : inputs_) {
      sizes.push_back(static_cast<double>(d.gates));
      total += d.gates;
    }
    out << mivtx::format(
        "inputs: %zu designs, %zu gates; gates per design min %.0f p25 %.0f "
        "p50 %.0f p75 %.0f max %.0f; library %zu entries (mini grid)\n",
        inputs_.size(), total, percentile(sizes, 0), percentile(sizes, 25),
        percentile(sizes, 50), percentile(sizes, 75), percentile(sizes, 100),
        library_.num_cells());
    out << "cell histogram:";
    for (const auto& [type, count] : histogram_)
      out << " " << mivtx::cells::cell_name(type) << "=" << count;
    out << "\n";
  }

  std::size_t planned_latency_ops() const override { return inputs_.size(); }

  void run_pass(bool traced, PassResult& out) override {
    reports_.assign(inputs_.size(), std::nullopt);
    clamped_ = 0;
    const Stopwatch watch;
    run_tasks(cfg_.threads, inputs_.size(), [&](std::size_t i) {
      const DesignInput& input = inputs_[i];
      try {
        Probe op(out.layers, "bench.op.block", input.name.c_str());
        std::optional<mivtx::analyze::BlockPpaReport> report =
            run_op(input, traced, out);
        if (!report) return;
        std::size_t missing = 0;
        for (const auto& row : report->rows) missing += row.missing_arcs;
        if (missing > 0) {
          out.ops.fail(FailureKind::kMissingTiming, input.name,
                       mivtx::format("%zu missing arcs over %zu impls",
                                     missing, report->rows.size()));
          return;
        }
        out.ops.ok(op.elapsed());
        reports_[i] = std::move(report);
      } catch (const std::exception& e) {
        out.ops.fail(FailureKind::kException, input.name,
                     first_line(e.what()));
      }
    });
    watch.stop(out);
    if (!traced) return;
    MetricSet& m = out.layer_metrics;
    m.add("analyze.parse_busy_s", "s",
          out.layers.busy("bench.analyze.parse_design") +
              out.layers.busy("bench.analyze.to_gate_netlist"));
    const double sta_s = out.layers.busy("bench.analyze.run_library_sta");
    std::size_t gate_impls = 0;
    for (const auto& d : inputs_)
      gate_impls += d.gates * mivtx::cells::all_implementations().size();
    m.add("analyze.libsta_busy_s", "s", sta_s);
    m.add("analyze.libsta_gates_per_s", "1/s",
          sta_s > 0.0 ? static_cast<double>(gate_impls) / sta_s : 0.0);
    m.add("analyze.libsta_clamped_lookups", "count",
          static_cast<double>(clamped_));
    m.add("place.busy_s", "s", out.layers.busy("bench.place.place"));
    m.add("analyze.tier_rules_busy_s", "s",
          out.layers.busy("bench.analyze.analyze_tiers"));
    add_pool_share(m, out, cfg_.threads);
  }

  std::vector<std::string> check() override {
    // The rca16 and alu4 rows of the timed pass against the blockppa
    // golden (same mini grid, same reference cards).
    mivtx::verify::GoldenSuiteResult measured{"blockppa", {}};
    for (const char* design : {"rca16", "alu4"}) {
      const mivtx::analyze::BlockPpaReport* report = nullptr;
      for (const auto& r : reports_)
        if (r && r->design == design) report = &*r;
      if (report == nullptr)
        return {std::string("no timed report for ") + design};
      measured.metrics.push_back({report->design + ".gates",
                                  static_cast<double>(report->num_gates)});
      for (const auto& row : report->rows) {
        const std::string key =
            report->design + "." + mivtx::charlib::impl_tag(row.impl);
        measured.metrics.push_back({key + ".delay_s", row.delay});
        measured.metrics.push_back({key + ".power_w", row.power});
        measured.metrics.push_back({key + ".area_m2", row.area});
        measured.metrics.push_back({key + ".utilization", row.utilization});
        measured.metrics.push_back(
            {key + ".missing_arcs", static_cast<double>(row.missing_arcs)});
      }
    }
    const std::string fail = golden_failure(measured);
    if (fail.empty()) return {};
    return {fail};
  }

 private:
  // parse -> netlist -> block PPA; nullopt after recording a failure.
  std::optional<mivtx::analyze::BlockPpaReport> run_op(
      const DesignInput& input, bool traced, PassResult& out) {
    const char* name = input.name.c_str();
    mivtx::lint::DiagnosticSink sink;
    mivtx::analyze::Design design;
    {
      Probe probe(out.layers, "bench.analyze.parse_design", name);
      design = mivtx::analyze::parse_design(input.gnl, sink);
    }
    if (sink.num_errors() > 0) {
      out.ops.fail(FailureKind::kInvalidInput, input.name,
                   "parse_design reported errors");
      return std::nullopt;
    }
    std::optional<mivtx::gatelevel::GateNetlist> netlist;
    {
      Probe probe(out.layers, "bench.analyze.to_gate_netlist", name);
      netlist = mivtx::analyze::to_gate_netlist(design);
    }
    if (!netlist) {
      out.ops.fail(FailureKind::kInvalidInput, input.name,
                   "to_gate_netlist rejected the design");
      return std::nullopt;
    }
    const mivtx::analyze::BlockPpaOptions opts;
    if (!traced) {
      Probe probe(out.layers, "bench.analyze.run_block_ppa", name);
      return mivtx::analyze::run_block_ppa(*netlist, library_, opts);
    }
    // run_block_ppa's per-implementation steps, one probe each.
    mivtx::analyze::BlockPpaReport report;
    report.design = netlist->name();
    report.num_gates = netlist->instances().size();
    const mivtx::place::Placer placer(opts.tier.rules);
    std::size_t clamped = 0;
    for (const auto impl : mivtx::cells::all_implementations()) {
      mivtx::analyze::BlockImplPpa row;
      row.impl = impl;
      {
        Probe probe(out.layers, "bench.analyze.run_library_sta", name);
        const mivtx::analyze::LibStaResult sta =
            mivtx::analyze::run_library_sta(*netlist, library_, impl,
                                            opts.sta);
        row.delay = sta.worst_arrival;
        row.energy = sta.switching_energy;
        row.power = row.delay > 0.0 ? row.energy / row.delay : 0.0;
        row.clamped_lookups = sta.clamped_lookups;
        row.missing_arcs = sta.missing.size();
        clamped += sta.clamped_lookups;
      }
      mivtx::place::Placement placement;
      {
        Probe probe(out.layers, "bench.place.place", name);
        placement = placer.place(*netlist, impl, opts.place_mode);
      }
      row.area = placement.chip_area();
      mivtx::lint::DiagnosticSink tier_sink;
      {
        Probe probe(out.layers, "bench.analyze.analyze_tiers", name);
        mivtx::analyze::analyze_tiers(design, placement, tier_sink,
                                      opts.tier);
      }
      row.tier_errors = tier_sink.num_errors();
      row.tier_warnings = tier_sink.num_warnings();
      report.rows.push_back(row);
    }
    const std::lock_guard<std::mutex> lock(m_);
    clamped_ += clamped;
    return report;
  }

  WorkloadConfig cfg_;
  std::vector<DesignInput> inputs_;
  std::map<mivtx::cells::CellType, std::size_t> histogram_;
  mivtx::charlib::CharLibrary library_;

  // Outputs of the last pass.
  std::vector<std::optional<mivtx::analyze::BlockPpaReport>> reports_;
  std::mutex m_;  // guards clamped_
  std::size_t clamped_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_block_sta(const WorkloadConfig& config) {
  return std::make_unique<BlockSta>(config);
}

}  // namespace e2ebench
