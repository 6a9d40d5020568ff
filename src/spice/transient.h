// Adaptive transient analysis.
//
// Method: DC operating point at t=0, one backward-Euler startup step, then
// variable-step BDF2 integration with a predictor-based
// local-truncation-error controller.  Source slope discontinuities
// (pulse/PWL corners) are breakpoints the stepper always lands on exactly.
#pragma once

#include <map>
#include <string>

#include "spice/circuit.h"
#include "spice/dcop.h"
#include "waveform/waveform.h"

namespace mivtx::spice {

struct TransientOptions {
  double t_stop = 1e-9;
  double h_max = 0.0;     // 0 => t_stop / 50
  double h_min = 1e-18;
  double reltol = 1e-4;   // LTE control, relative
  double abstol_v = 1e-6;  // LTE control, absolute (V)
  NewtonOptions newton;
  std::size_t max_steps = 2'000'000;
};

struct TransientResult {
  bool ok = false;
  std::string error;
  // Pre-solve findings when the run was rejected by the lint gate (the
  // t=0 operating point runs lint::check_solvable; see NewtonOptions).
  std::vector<lint::Diagnostic> lint;
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t newton_iterations = 0;

  // Node voltage waveforms keyed by node name; branch current waveforms
  // keyed by voltage-source element name.
  std::map<std::string, waveform::Waveform> node_voltage;
  std::map<std::string, waveform::Waveform> branch_current;

  const waveform::Waveform& v(const std::string& node) const;
  const waveform::Waveform& i(const std::string& vsource) const;
};

TransientResult transient(const Circuit& circuit,
                          const TransientOptions& opts);

// Source-slope breakpoints of every independent source up to t_stop
// (sorted, coalesced, t_stop appended).  The adaptive stepper lands on
// these exactly.
std::vector<double> transient_breakpoints(const Circuit& circuit,
                                          double t_stop);

// Tolerance under which two times count as the same stepping event: an
// absolute floor of 1e-18 s near t=0 widening to a few ULP of t beyond
// ~0.1 ms.  A purely absolute epsilon breaks at large t — one ULP of 4 ms
// is already ~9e-19 s, so breakpoints that differ only by accumulated
// round-off (e.g. `delay + period * k` sums of two sources) would survive
// dedup and force a sub-h_min landing step.  The stepper uses this for
// coalescing, skip-past, and landing checks.
double breakpoint_tol(double t);

// Sort and coalesce: clusters closer than breakpoint_tol collapse to
// their largest member, so a landing step covers every alias of the
// event.  Cluster growth is anchored at the first member, which bounds
// how far chained near-duplicates can drift.
void coalesce_breakpoints(std::vector<double>& bp);

}  // namespace mivtx::spice
