// PPA measurement engine (paper §IV / Fig. 5).
//
// For every (cell, implementation) it builds the parasitic-annotated
// netlist, then for each input pin finds a side-input assignment that makes
// the output sensitive to that pin, applies a full-swing pulse and runs a
// transient.  Reported metrics:
//   delay  - mean 50%-to-50% propagation delay over all pin arcs and both
//            edges (the paper's "average propagation delay of the outputs")
//   power  - mean VDD-rail power over the switching window, averaged over
//            the pin simulations
//   area   - cell layout area from layout/cell_layout.h
//   pdp    - power * delay
#pragma once

#include <optional>
#include <vector>

#include "cells/netgen.h"
#include "core/flow.h"
#include "layout/cell_layout.h"
#include "runtime/exec_policy.h"
#include "spice/dcop.h"
#include "spice/transient.h"

namespace mivtx::core {

struct ArcMeasurement {
  std::string pin;
  bool input_rising = false;
  double delay = 0.0;  // s
};

struct CellPpa {
  cells::CellType type = cells::CellType::kInv1;
  cells::Implementation impl = cells::Implementation::k2D;
  bool ok = false;
  double delay = 0.0;  // s (average over arcs)
  double power = 0.0;  // W (average)
  double area = 0.0;   // m^2
  double pdp = 0.0;    // J
  cells::MivStats mivs;
  std::vector<ArcMeasurement> arcs;
};

struct PpaOptions {
  double vdd = 1.0;
  double t_edge = 20e-12;    // input rise/fall
  double t_delay = 200e-12;  // time before the first edge
  double t_width = 500e-12;  // pulse width
  double h_max = 10e-12;     // transient step cap
  // Solver-core selection for the measurement transients (backend,
  // bypass tolerance, ...); defaults pick the sparse core for every cell.
  spice::NewtonOptions newton;
  cells::ParasiticSpec parasitics;
  // Mandatory pre-simulation gate: lint the cell topology, the rule-driven
  // layout (KOZ checks), and the generated netlist before spending any
  // transient time on it.  A cell failing the gate comes back with
  // ok == false and no measurements.  Opt out for deliberately ill-formed
  // experiments.
  bool lint = true;
};

// Pin-probe primitives shared by PpaEngine::measure_pin and the NLDM
// characterizer (charlib/characterize.h), which runs the same per-pin
// transient at each grid point.

// Total simulated time of one pin probe (pulse up, pulse down, recovery).
double pin_probe_t_stop(const PpaOptions& opts);

// Drive a built cell for probing `pin`: side inputs at their sensitizing
// DC levels, the probed pin pulsing low -> high -> low.
void apply_pin_stimulus(cells::CellNetlist& cell,
                        const std::vector<std::string>& input_names,
                        std::size_t pin, const std::vector<bool>& side,
                        const PpaOptions& opts);

class PpaEngine {
 public:
  // `exec` controls scheduling and artifact reuse only; measured numbers
  // are identical for any pool size (per-pin results reduce in pin order)
  // and any cache state (keys hash the cards + every physics option).
  PpaEngine(const ModelLibrary& library, PpaOptions opts = {},
            layout::DesignRules rules = {}, runtime::ExecPolicy exec = {});

  // Model set used for an implementation (n-type per variant, p-type
  // always traditional).
  cells::ModelSet model_set(cells::Implementation impl) const;

  CellPpa measure(cells::CellType type, cells::Implementation impl) const;
  // All 14 cells x 4 implementations.
  std::vector<CellPpa> measure_all() const;

  // Pin sensitization: values for the other inputs so the output follows
  // (or inverts) pin `pin_index`.  nullopt if the pin cannot toggle the
  // output (never the case for these cells).
  static std::optional<std::vector<bool>> sensitize(cells::CellType type,
                                                    std::size_t pin_index);

  const layout::DesignRules& rules() const { return layout_.rules(); }

 private:
  // Per-pin measurement, the unit of intra-cell parallelism.
  struct PinOutcome {
    bool simulated = false;  // transient converged
    std::vector<ArcMeasurement> arcs;
    double power = 0.0;
    cells::MivStats mivs;
  };
  PinOutcome measure_pin(cells::CellType type, cells::Implementation impl,
                         const cells::ModelSet& models, std::size_t pin,
                         const std::vector<bool>& side) const;
  CellPpa measure_uncached(cells::CellType type,
                           cells::Implementation impl) const;

  const ModelLibrary& library_;
  PpaOptions opts_;
  layout::LayoutModel layout_;
  runtime::ExecPolicy exec_;
};

// Per-implementation averages across all cells (the summary numbers the
// paper quotes: delay -3 %/-2 %/+2 %, power -0.5 %/-1 %/-2 %, ...).
struct ImplementationSummary {
  cells::Implementation impl = cells::Implementation::k2D;
  double mean_delay = 0.0;
  double mean_power = 0.0;
  double mean_area = 0.0;
  double mean_pdp = 0.0;
};

std::vector<ImplementationSummary> summarize(const std::vector<CellPpa>& all);

}  // namespace mivtx::core
