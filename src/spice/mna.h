// Modified-nodal-analysis assembly.
//
// Unknown vector layout: x = [v(node 1..N-1), i(branch of each V source)].
// The assembler produces the Newton residual f(x) and Jacobian J(x) in one
// pass; dynamic (charge) elements contribute companion currents derived
// from the integration method of the active transient step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bsimsoi/model.h"
#include "linalg/dense.h"
#include "spice/circuit.h"

namespace mivtx::bsimsoi {
class DeviceBatch;
}

namespace mivtx::spice {

class AssemblyPlan;

// Charge/current history for dynamic elements.  Slot assignment: one slot
// per capacitor (charge), one per inductor (flux), three (g, d, s) per
// MOSFET (terminal charges), in element order.
struct DynamicState {
  std::vector<double> q;   // charge at the last accepted time point
  std::vector<double> iq;  // charge-current at the last accepted time point
};

// kBdf2 (variable-step Gear-2) is the production transient method: the
// parasitic-annotated cells mix femtosecond RC time constants with
// nanosecond edges, and trapezoidal's marginal stiff damping rings on
// them.  Trapezoidal is kept for accuracy cross-checks on non-stiff
// circuits.
enum class Integrator { kNone, kBackwardEuler, kTrapezoidal, kBdf2 };

struct AssemblyContext {
  double time = 0.0;          // source evaluation time
  double source_scale = 1.0;  // continuation scaling of all sources
  double gmin = 1e-12;        // conductance across MOSFET channels
  Integrator integrator = Integrator::kNone;
  double h = 0.0;                      // time step (transient only)
  const DynamicState* prev = nullptr;  // state at the previous time point
  // BDF2 extras: state two points back and the step ratio h / h_prev.
  const DynamicState* prev2 = nullptr;
  double step_ratio = 1.0;
};

// Number of charge slots the circuit needs.
std::size_t count_charge_slots(const Circuit& circuit);

// Terminal-voltage device bypass: one entry per MOSFET (element order)
// holding the controlling voltages and full model output of the last
// fresh BSIMSOI evaluation.  When every terminal moved by at most `vtol`
// since that evaluation the assembler re-stamps the cached output instead
// of re-evaluating the model — the convergence-recheck and accept-step
// assemblies repeat the exact same iterate, so they bypass every device
// even with vtol == 0.  A negative vtol disables the cache.
struct MosfetCache {
  struct Entry {
    double vg = 0.0, vd = 0.0, vs = 0.0;
    bsimsoi::ModelOutput out;
    bool valid = false;
  };
  std::vector<Entry> entries;
  double vtol = 0.0;
  std::uint64_t evals = 0;     // fresh model evaluations (all kinds)
  std::uint64_t bypasses = 0;  // stamps served from the cache (all kinds)
  // Per-analysis-kind split of the totals above: evals == evals_dc +
  // evals_tran (same for bypasses).  "dc" covers every static assembly
  // (operating point, gmin/source continuation, sweeps); "tran" the
  // companion-model assemblies of a transient step.
  std::uint64_t evals_dc = 0, evals_tran = 0;
  std::uint64_t bypasses_dc = 0, bypasses_tran = 0;

  // Batched evaluation (bsimsoi::DeviceBatch): when `batch` is set the
  // assembler reads device outputs from it instead of calling
  // bsimsoi::eval per stamp; batch_stage() runs the bypass decisions and
  // stages the fresh instances before the caller fires one kernel pass
  // over all of them.  Instance index of MOSFET i (element order) is i.
  bsimsoi::DeviceBatch* batch = nullptr;  // non-owning
  // Lane-occupancy accounting: real instances staged vs kLaneWidth *
  // blocks dispatched (tail blocks replicate lanes).
  std::uint64_t batch_evals = 0;   // kernel passes (DeviceBatch::eval calls)
  std::uint64_t batch_blocks = 0;  // kernel blocks dispatched
  std::uint64_t batch_lanes = 0;   // real instances evaluated in those blocks

  void bind(const Circuit& circuit);  // size entries, invalidate
  void invalidate();
  bool enabled() const { return vtol >= 0.0 && !entries.empty(); }
  bool batch_mode() const { return batch != nullptr; }

  // Batch-mode first half of the assembly: walk the MOSFETs at solution x,
  // serve unchanged devices from the bypass (counted per kind via
  // `dynamic`), stage the rest into `batch`.  Returns the number staged
  // (== fresh evaluations once the caller runs batch->eval()).
  std::size_t batch_stage(const Circuit& circuit, const linalg::Vector& x,
                          bool dynamic);
};

// Assemble residual f and Jacobian J at solution x.  When `new_state` is
// non-null it receives the charges q(x) and companion currents for each
// slot (only meaningful with a transient integrator).
void assemble(const Circuit& circuit, const linalg::Vector& x,
              const AssemblyContext& ctx, linalg::DenseMatrix& jac,
              linalg::Vector& f, DynamicState* new_state);

// Jacobian stamp positions (row, col) in emission order for the DC
// (dynamic == false) or transient (dynamic == true) stamp program.  The
// sequence depends only on the circuit topology, never on x or on the
// element values — that invariant is what lets AssemblyPlan map each
// emission to a fixed CSR slot.
std::vector<std::pair<std::size_t, std::size_t>> assemble_pattern(
    const Circuit& circuit, bool dynamic);

// Sparse assembly against a precomputed plan: writes the Jacobian straight
// into the CSR value array `values` (sized/zeroed here to plan.nnz()) and
// the residual into f, with no entry lists, no sorting, and no dense
// zeroing.  `cache`, when non-null and enabled, provides the MOSFET
// bypass.  Returns the number of fresh BSIMSOI evaluations performed —
// zero means the Jacobian values are bit-identical to the previous
// assembly under the same AssemblyContext coefficients.
std::size_t assemble_sparse(const Circuit& circuit, const AssemblyPlan& plan,
                            const linalg::Vector& x,
                            const AssemblyContext& ctx,
                            std::vector<double>& values, linalg::Vector& f,
                            DynamicState* new_state, MosfetCache* cache);

// Evaluate all element charges at solution x into state.q (iq untouched).
void evaluate_charges(const Circuit& circuit, const linalg::Vector& x,
                      DynamicState& state);

// Small-signal capacitance matrix at solution x: dQ/dV stamps of every
// capacitor and MOSFET terminal charge (node rows/columns only; branch
// rows stay zero).  Shape matches the MNA system.
void assemble_capacitance(const Circuit& circuit, const linalg::Vector& x,
                          linalg::DenseMatrix& cmat);

}  // namespace mivtx::spice
