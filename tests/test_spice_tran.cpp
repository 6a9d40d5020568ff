// Transient analysis: integrator accuracy against analytic RC solutions,
// breakpoint handling and coalescing, stiff-parasitic robustness (BDF2
// regression), and cell-level delay sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bsimsoi/params.h"
#include "common/error.h"
#include "spice/parser.h"
#include "spice/transient.h"
#include "waveform/measure.h"

namespace mivtx::spice {
namespace {

// RC low-pass driven by a voltage step via PWL.
Circuit rc_step(double r, double c, double t_step) {
  Circuit ckt;
  const NodeId in = ckt.node("in"), out = ckt.node("out");
  ckt.add_vsource("VIN", in, kGround,
                  SourceSpec::Pwl({{t_step, 0.0}, {t_step * 1.0000001, 1.0}}));
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, kGround, c);
  return ckt;
}

TEST(Transient, RcStepMatchesAnalytic) {
  const double r = 1e3, c = 1e-12, tau = r * c;  // 1 ns
  const Circuit ckt = rc_step(r, c, 1e-10);
  TransientOptions opts;
  opts.t_stop = 5e-9;
  opts.reltol = 1e-5;
  const TransientResult tr = transient(ckt, opts);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto& out = tr.v("out");
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double exact = 1.0 - std::exp(-(t - 1e-10) / tau);
    EXPECT_NEAR(out.sample(t), exact, 2e-3) << t;
  }
  // Before the step: flat zero.
  EXPECT_NEAR(out.sample(0.5e-10), 0.0, 1e-9);
}

TEST(Transient, PostBreakpointStepIsErrorControlled) {
  // Regression: the step after a source-corner breakpoint restarts the
  // integrator (first_step), which used to skip the LTE check entirely and
  // then grow h by the full 2.0x with no error estimate.  With h_max large
  // relative to tau, the post-corner restart step (h_max/100) is already
  // ~tau here, so a blind accept parks a sample far off the exponential.
  // The fix estimates the startup step's error by BE step doubling.
  const double r = 1e3, c = 1e-14, tau = r * c;  // 10 ps
  const double t0 = 1e-10, t1 = 1.2e-10;         // 20 ps input ramp
  Circuit ckt;
  const NodeId in = ckt.node("in"), out = ckt.node("out");
  ckt.add_vsource("VIN", in, kGround,
                  SourceSpec::Pwl({{t0, 0.0}, {t1, 1.0}}));
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, kGround, c);
  TransientOptions opts;
  opts.t_stop = 5e-10;
  opts.h_max = 1e-9;  // post-corner restart h = h_max/100 = 10 ps = tau
  const TransientResult tr = transient(ckt, opts);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto& v = tr.v("out");
  // Exact response to the ramp: for t in [t0, t1],
  //   v = (t - t0)/(t1 - t0) - tau/(t1 - t0) * (1 - exp(-(t - t0)/tau)),
  // then relaxes to 1 with time constant tau.
  const double k = 1.0 / (t1 - t0);
  const auto exact = [&](double t) {
    if (t <= t0) return 0.0;
    const double tr_end = std::min(t, t1);
    double vr = k * (tr_end - t0) - k * tau * (1.0 - std::exp(-(tr_end - t0) / tau));
    if (t > t1) vr = 1.0 + (vr - 1.0) * std::exp(-(t - t1) / tau);
    return vr;
  };
  double max_err = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    max_err = std::max(max_err, std::fabs(v.value(i) - exact(v.time(i))));
  // Pre-fix the blind post-corner steps put max_err at ~0.077; with the
  // startup LTE check it lands around 2e-5.
  EXPECT_LT(max_err, 0.02);
}

TEST(Transient, RcSinSteadyStateAmplitude) {
  // 1 kOhm / 1 pF driven at f = 1/(2 pi tau): gain 1/sqrt(2).
  const double r = 1e3, c = 1e-12;
  const double f = 1.0 / (2.0 * M_PI * r * c);
  Circuit ckt;
  const NodeId in = ckt.node("in"), out = ckt.node("out");
  ckt.add_vsource("VIN", in, kGround, SourceSpec::Sin(0.0, 1.0, f));
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, kGround, c);
  TransientOptions opts;
  opts.t_stop = 12.0 / f;  // several periods
  opts.reltol = 1e-5;
  const TransientResult tr = transient(ckt, opts);
  ASSERT_TRUE(tr.ok) << tr.error;
  // Measure amplitude over the last two periods.
  const auto win = tr.v("out").window(10.0 / f, 12.0 / f);
  const double amp = 0.5 * (win.max_value() - win.min_value());
  EXPECT_NEAR(amp, 1.0 / std::sqrt(2.0), 0.02);
}

TEST(Transient, ChargeConservationCapacitiveDivider) {
  // Step into two series caps: final voltages split by 1/C ratio.
  Circuit ckt;
  const NodeId in = ckt.node("in"), mid = ckt.node("mid");
  ckt.add_vsource("VIN", in, kGround,
                  SourceSpec::Pwl({{1e-10, 0.0}, {2e-10, 1.0}}));
  ckt.add_capacitor("C1", in, mid, 1e-15);
  ckt.add_capacitor("C2", mid, kGround, 3e-15);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  // 'mid' is a capacitor-only node; the pre-solve lint gate rejects it by
  // default (its DC value is leak-dependent).  This test deliberately opts
  // out to exercise charge conservation through the integrator.
  opts.newton.presolve_lint = false;
  const TransientResult tr = transient(ckt, opts);
  ASSERT_TRUE(tr.ok) << tr.error;
  // V(mid) = C1/(C1+C2) * 1 V = 0.25 V.
  EXPECT_NEAR(tr.v("mid").sample(1e-9), 0.25, 5e-3);
}

TEST(Transient, BreakpointsAreHitExactly) {
  const Circuit ckt = rc_step(1e3, 1e-12, 3.33e-10);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  const TransientResult tr = transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  // A sample must exist exactly at the PWL corner.
  const auto& times = tr.v("out").times();
  const bool found = std::any_of(times.begin(), times.end(), [](double t) {
    return std::fabs(t - 3.33e-10) < 1e-18;
  });
  EXPECT_TRUE(found);
}

TEST(Transient, StiffParasiticNetworkDoesNotUnderflow) {
  // Regression for the trapezoidal-ringing failure: femtosecond RC time
  // constants (ohm-scale parasitics against fF caps) beside nanosecond
  // edges must integrate cleanly with BDF2.
  Circuit ckt;
  const NodeId in = ckt.node("in"), a = ckt.node("a"), b = ckt.node("b");
  PulseSpec p;
  p.v1 = 0;
  p.v2 = 1;
  p.delay = 2e-10;
  p.rise = 2e-11;
  p.fall = 2e-11;
  p.width = 4e-10;
  ckt.add_vsource("VIN", in, kGround, SourceSpec::Pulse(p));
  ckt.add_resistor("R1", in, a, 3.0);   // tau = 3 fs against 1 fF
  ckt.add_capacitor("Ca", a, kGround, 1e-15);
  ckt.add_resistor("R2", a, b, 7.0);
  ckt.add_capacitor("Cb", b, kGround, 1e-15);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.h_max = 1e-11;
  const TransientResult tr = transient(ckt, opts);
  ASSERT_TRUE(tr.ok) << tr.error;
  // b follows the pulse (fs delays are invisible at this scale).
  EXPECT_NEAR(tr.v("b").sample(0.5e-9), 1.0, 1e-2);
  EXPECT_NEAR(tr.v("b").sample(0.1e-9), 0.0, 1e-2);
}

TEST(Transient, InverterDelayAndSwing) {
  const std::string net = R"(inv
.model nch nmos LEVEL=70 VTH0=0.35 L=24n W=192n U0=0.03
.model pch pmos LEVEL=70 VTH0=-0.35 L=24n W=192n U0=0.012
VDD vdd 0 DC 1.0
VIN in 0 PULSE(0 1 200p 20p 20p 400p)
M1 out in 0 nch
M2 out in vdd pch
C1 out 0 1f
.end
)";
  const ParsedNetlist p = parse_netlist(net);
  TransientOptions opts;
  opts.t_stop = 1.2e-9;
  const TransientResult tr = transient(p.circuit, opts);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto d_hl = waveform::propagation_delay(
      tr.v("in"), tr.v("out"), 0.5, 0.5, 0.0, waveform::EdgeKind::kRise,
      waveform::EdgeKind::kFall);
  const auto d_lh = waveform::propagation_delay(
      tr.v("in"), tr.v("out"), 0.5, 0.5, 6e-10, waveform::EdgeKind::kFall,
      waveform::EdgeKind::kRise);
  ASSERT_TRUE(d_hl.has_value());
  ASSERT_TRUE(d_lh.has_value());
  EXPECT_GT(*d_hl, 1e-13);
  EXPECT_LT(*d_hl, 5e-11);
  // PMOS is weaker: rising output slower than falling output.
  EXPECT_GT(*d_lh, *d_hl);
  // Rails respected within overshoot margin.
  EXPECT_GT(tr.v("out").min_value(), -0.1);
  EXPECT_LT(tr.v("out").max_value(), 1.1);
  // Supply delivers net charge (current into circuit -> negative branch).
  EXPECT_LT(tr.i("VDD").average(0.0, 1.2e-9), 0.0);
}

TEST(Transient, ResultAccessorsThrowOnUnknownNames) {
  const Circuit ckt = rc_step(1e3, 1e-12, 1e-10);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  const TransientResult tr = transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  EXPECT_THROW(tr.v("nonexistent"), Error);
  EXPECT_THROW(tr.i("nonexistent"), Error);
  EXPECT_NO_THROW(tr.i("VIN"));
}

TEST(Transient, StepBudgetGuards) {
  const Circuit ckt = rc_step(1e3, 1e-12, 1e-10);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.max_steps = 3;  // absurdly small
  const TransientResult tr = transient(ckt, opts);
  EXPECT_FALSE(tr.ok);
  EXPECT_NE(tr.error.find("budget"), std::string::npos);
}

TEST(Transient, CoalesceBreakpointsMergesUlpClusters) {
  // Absolute floor near t=0: distinct sub-1e-18 times collapse...
  std::vector<double> bp{0.0, 5e-19, 1e-12, 4e-3};
  // ...and at 4 ms a 4-ULP alias collapses too, keeping the largest.
  double alias = 4e-3;
  for (int k = 0; k < 4; ++k) alias = std::nextafter(alias, 1.0);
  bp.push_back(alias);
  coalesce_breakpoints(bp);
  ASSERT_EQ(bp.size(), 3u);
  EXPECT_DOUBLE_EQ(bp[0], 5e-19);
  EXPECT_DOUBLE_EQ(bp[1], 1e-12);
  EXPECT_DOUBLE_EQ(bp[2], alias);
  // Far-apart points never merge: tol stays a vanishing fraction of t.
  EXPECT_LT(breakpoint_tol(4e-3), 1e-17);
  EXPECT_GE(breakpoint_tol(0.0), 1e-18);
}

}  // namespace
}  // namespace mivtx::spice
