#include "spice/mna.h"

#include <cmath>

#include "bsimsoi/batch.h"
#include "bsimsoi/model.h"
#include "common/error.h"
#include "spice/assembly_plan.h"

namespace mivtx::spice {

namespace {

// Voltage of a node given the unknown vector.
double node_v(const linalg::Vector& x, NodeId n) {
  return n == kGround ? 0.0 : x[n - 1];
}

// Companion-model coefficients: i = geq*q - ihist, where geq also scales
// the Jacobian contribution dq/dv.
struct CompanionCoeffs {
  double geq = 0.0;    // multiplies the new charge (and dq/dv)
  double ihist = 0.0;  // history term
};

// Slot-independent companion-model coefficients of the active integrator:
// a charge slot's companion current is i = geq * q - ihist with
// ihist = c_prev * prev.q[slot] + c_prev2 * prev2.q[slot] +
// c_iq * prev.iq[slot], and geq also scales the dq/dv Jacobian stamps.
struct IntegratorCoeffs {
  double geq = 0.0;
  double c_prev = 0.0;
  double c_prev2 = 0.0;
  double c_iq = 0.0;
};

// Slot-independent part of the companion model.  The divisions here used
// to run per charge slot per assembly; hoisting them to one evaluation per
// assemble() was a measurable win on the transient profile.
IntegratorCoeffs integrator_coeffs(const AssemblyContext& ctx) {
  IntegratorCoeffs c;
  switch (ctx.integrator) {
    case Integrator::kNone:
      return c;  // DC: charge currents are zero
    case Integrator::kBackwardEuler:
      c.geq = 1.0 / ctx.h;
      c.c_prev = c.geq;
      return c;
    case Integrator::kTrapezoidal:
      // i = (2/h)(q - q_prev) - i_prev
      c.geq = 2.0 / ctx.h;
      c.c_prev = c.geq;
      c.c_iq = 1.0;
      return c;
    case Integrator::kBdf2: {
      // Variable-step BDF2 with r = h_n / h_{n-1}:
      //   i = [ (1+2r)/(1+r) q_{n+1} - (1+r) q_n + r^2/(1+r) q_{n-1} ] / h
      const double r = ctx.step_ratio;
      c.geq = (1.0 + 2.0 * r) / (1.0 + r) / ctx.h;
      c.c_prev = (1.0 + r) / ctx.h;
      c.c_prev2 = -r * r / (1.0 + r) / ctx.h;
      return c;
    }
  }
  return c;
}

}  // namespace

std::size_t count_charge_slots(const Circuit& circuit) {
  std::size_t slots = 0;
  for (const Element& e : circuit.elements()) {
    if (e.kind == ElementKind::kCapacitor) slots += 1;
    if (e.kind == ElementKind::kInductor) slots += 1;
    if (e.kind == ElementKind::kMosfet) slots += 3;
  }
  return slots;
}

void MosfetCache::bind(const Circuit& circuit) {
  std::size_t mosfets = 0;
  for (const Element& e : circuit.elements())
    if (e.kind == ElementKind::kMosfet) ++mosfets;
  entries.assign(mosfets, Entry{});
}

void MosfetCache::invalidate() {
  for (Entry& e : entries) e.valid = false;
}

std::size_t MosfetCache::batch_stage(const Circuit& circuit,
                                     const linalg::Vector& x, bool dynamic) {
  MIVTX_EXPECT(batch != nullptr, "batch_stage: no DeviceBatch bound");
  std::size_t fresh = 0;
  std::size_t mi = 0;
  const bool bypass = enabled();
  for (const Element& e : circuit.elements()) {
    if (e.kind != ElementKind::kMosfet) continue;
    const double vg = node_v(x, e.nodes[1]);
    const double vd = node_v(x, e.nodes[0]);
    const double vs = node_v(x, e.nodes[2]);
    if (bypass) {
      Entry& ent = entries[mi];
      if (ent.valid && std::fabs(vg - ent.vg) <= vtol &&
          std::fabs(vd - ent.vd) <= vtol && std::fabs(vs - ent.vs) <= vtol) {
        bypasses += 1;
        (dynamic ? bypasses_tran : bypasses_dc) += 1;
        ++mi;
        continue;
      }
      ent.vg = vg;
      ent.vd = vd;
      ent.vs = vs;
      ent.valid = true;
    }
    batch->stage(mi, vg, vd, vs);
    evals += 1;
    (dynamic ? evals_tran : evals_dc) += 1;
    fresh += 1;
    ++mi;
  }
  return fresh;
}

namespace {

// The stamp loop is shared by three Jacobian sinks: dense accumulation,
// pattern recording (emission order -> CSR slots, see AssemblyPlan), and
// slot-directed CSR writes.  The emission sequence of sink.add() calls
// depends only on the circuit topology and the dynamic flag, never on x
// or on element values — keep it that way or every assembly plan breaks.
template <class Sink>
std::size_t assemble_impl(const Circuit& circuit, const linalg::Vector& x,
                          const AssemblyContext& ctx, Sink& sink,
                          linalg::Vector& f, DynamicState* new_state,
                          MosfetCache* cache) {
  const std::size_t n = circuit.system_size();
  MIVTX_EXPECT(x.size() == n, "assemble: solution size mismatch");
  f.assign(n, 0.0);
  if (new_state) {
    const std::size_t slots = count_charge_slots(circuit);
    new_state->q.assign(slots, 0.0);
    new_state->iq.assign(slots, 0.0);
  }
  const bool dynamic = ctx.integrator != Integrator::kNone;
  if (dynamic) {
    MIVTX_EXPECT(ctx.h > 0.0, "transient assembly needs a positive step");
    MIVTX_EXPECT(ctx.prev != nullptr, "transient assembly needs prev state");
    MIVTX_EXPECT(ctx.integrator != Integrator::kBdf2 || ctx.prev2 != nullptr,
                 "BDF2 assembly needs prev2 state");
  }
  std::size_t fresh_evals = 0;
  std::size_t mosfet_index = 0;

  // Per-assembly companion coefficients; the per-slot part is two mults
  // and two adds (prev2_q aliases prev_q with weight zero outside BDF2).
  const IntegratorCoeffs ic = integrator_coeffs(ctx);
  const double* prev_q = dynamic ? ctx.prev->q.data() : nullptr;
  const double* prev_iq = dynamic ? ctx.prev->iq.data() : nullptr;
  const double* prev2_q = (dynamic && ctx.prev2) ? ctx.prev2->q.data() : prev_q;
  auto companion_at = [&](std::size_t sl) {
    return CompanionCoeffs{ic.geq, ic.c_prev * prev_q[sl] +
                                       ic.c_prev2 * prev2_q[sl] +
                                       ic.c_iq * prev_iq[sl]};
  };

  // Convention: f[row of node] = sum of currents LEAVING the node = 0.
  auto stamp_f = [&](NodeId node, double current) {
    if (node != kGround) f[circuit.node_unknown(node)] += current;
  };
  auto stamp_j = [&](NodeId node, std::size_t unknown, double dfdx) {
    if (node != kGround) sink.add(circuit.node_unknown(node), unknown, dfdx);
  };
  auto stamp_conductance = [&](NodeId a, NodeId b, double g) {
    const double va = node_v(x, a), vb = node_v(x, b);
    stamp_f(a, g * (va - vb));
    stamp_f(b, g * (vb - va));
    if (a != kGround) {
      stamp_j(a, circuit.node_unknown(a), g);
      if (b != kGround) stamp_j(a, circuit.node_unknown(b), -g);
    }
    if (b != kGround) {
      stamp_j(b, circuit.node_unknown(b), g);
      if (a != kGround) stamp_j(b, circuit.node_unknown(a), -g);
    }
  };

  // Stamp a charge element between two nodes (capacitor) or at a MOSFET
  // terminal: q is the charge, dq[] its derivatives w.r.t. a list of node
  // voltages.
  std::size_t slot = 0;

  for (const Element& e : circuit.elements()) {
    switch (e.kind) {
      case ElementKind::kResistor: {
        stamp_conductance(e.nodes[0], e.nodes[1], 1.0 / e.value);
        break;
      }
      case ElementKind::kCapacitor: {
        const NodeId a = e.nodes[0], b = e.nodes[1];
        const double v = node_v(x, a) - node_v(x, b);
        const double q = e.value * v;
        if (dynamic) {
          const CompanionCoeffs cc = companion_at(slot);
          const double i = cc.geq * q - cc.ihist;
          const double g = cc.geq * e.value;
          stamp_f(a, i);
          stamp_f(b, -i);
          if (a != kGround) {
            stamp_j(a, circuit.node_unknown(a), g);
            if (b != kGround) stamp_j(a, circuit.node_unknown(b), -g);
          }
          if (b != kGround) {
            stamp_j(b, circuit.node_unknown(b), g);
            if (a != kGround) stamp_j(b, circuit.node_unknown(a), -g);
          }
          if (new_state) {
            new_state->q[slot] = q;
            new_state->iq[slot] = i;
          }
        } else if (new_state) {
          new_state->q[slot] = q;
        }
        // Tiny leak keeps cap-only nodes non-singular in DC.
        stamp_conductance(a, b, 1e-12);
        slot += 1;
        break;
      }
      case ElementKind::kInductor: {
        // Branch unknown i flows a -> b through the winding; branch
        // equation v(a) - v(b) = d(flux)/dt with flux = L * i.
        const NodeId a = e.nodes[0], b = e.nodes[1];
        const std::size_t k = circuit.branch_unknown(e);
        const double ibr = x[k];
        stamp_f(a, ibr);
        stamp_f(b, -ibr);
        stamp_j(a, k, 1.0);
        stamp_j(b, k, -1.0);
        const double flux = e.value * ibr;
        if (dynamic) {
          const CompanionCoeffs cc = companion_at(slot);
          f[k] = node_v(x, a) - node_v(x, b) - (cc.geq * flux - cc.ihist);
          sink.add(k, k, -cc.geq * e.value);
          if (new_state) {
            new_state->q[slot] = flux;
            new_state->iq[slot] = cc.geq * flux - cc.ihist;  // voltage, kept
          }
        } else {
          // DC: ideal short.
          f[k] = node_v(x, a) - node_v(x, b);
          if (new_state) new_state->q[slot] = flux;
        }
        if (a != kGround) sink.add(k, circuit.node_unknown(a), 1.0);
        if (b != kGround) sink.add(k, circuit.node_unknown(b), -1.0);
        slot += 1;
        break;
      }
      case ElementKind::kVcvs: {
        // v(out+) - v(out-) - gain * (v(c+) - v(c-)) = 0, with a branch
        // current through the output pair.
        const NodeId p = e.nodes[0], m = e.nodes[1];
        const NodeId cp = e.nodes[2], cm = e.nodes[3];
        const std::size_t k = circuit.branch_unknown(e);
        const double ibr = x[k];
        stamp_f(p, ibr);
        stamp_f(m, -ibr);
        stamp_j(p, k, 1.0);
        stamp_j(m, k, -1.0);
        f[k] = node_v(x, p) - node_v(x, m) -
               e.value * (node_v(x, cp) - node_v(x, cm));
        if (p != kGround) sink.add(k, circuit.node_unknown(p), 1.0);
        if (m != kGround) sink.add(k, circuit.node_unknown(m), -1.0);
        if (cp != kGround) sink.add(k, circuit.node_unknown(cp), -e.value);
        if (cm != kGround) sink.add(k, circuit.node_unknown(cm), e.value);
        break;
      }
      case ElementKind::kVccs: {
        // Current gm * (v(c+) - v(c-)) leaves out+ and enters out-.
        const NodeId p = e.nodes[0], m = e.nodes[1];
        const NodeId cp = e.nodes[2], cm = e.nodes[3];
        const double ictl =
            e.value * (node_v(x, cp) - node_v(x, cm));
        stamp_f(p, ictl);
        stamp_f(m, -ictl);
        if (cp != kGround) {
          stamp_j(p, circuit.node_unknown(cp), e.value);
          stamp_j(m, circuit.node_unknown(cp), -e.value);
        }
        if (cm != kGround) {
          stamp_j(p, circuit.node_unknown(cm), -e.value);
          stamp_j(m, circuit.node_unknown(cm), e.value);
        }
        break;
      }
      case ElementKind::kVoltageSource: {
        const NodeId p = e.nodes[0], m = e.nodes[1];
        const std::size_t k = circuit.branch_unknown(e);
        const double ibr = x[k];
        const double vset = ctx.source_scale * e.source.value(ctx.time);
        // Branch current leaves the + node, enters the - node.
        stamp_f(p, ibr);
        stamp_f(m, -ibr);
        stamp_j(p, k, 1.0);
        stamp_j(m, k, -1.0);
        // Branch equation: v+ - v- - vset = 0.
        f[k] = node_v(x, p) - node_v(x, m) - vset;
        if (p != kGround) sink.add(k, circuit.node_unknown(p), 1.0);
        if (m != kGround) sink.add(k, circuit.node_unknown(m), -1.0);
        break;
      }
      case ElementKind::kCurrentSource: {
        const double ival = ctx.source_scale * e.source.value(ctx.time);
        // Positive current flows from + through the source to -.
        stamp_f(e.nodes[0], ival);
        stamp_f(e.nodes[1], -ival);
        break;
      }
      case ElementKind::kMosfet: {
        const NodeId d = e.nodes[0], g = e.nodes[1], s = e.nodes[2];
        const double vg = node_v(x, g), vd = node_v(x, d), vs = node_v(x, s);
        bsimsoi::ModelOutput m_local;
        const bsimsoi::ModelOutput* mp = &m_local;
        if (cache && cache->batch_mode()) {
          // Batched evaluation: batch_stage() + DeviceBatch::eval() already
          // ran (and did the bypass/eval accounting); the kernel outputs —
          // staged fresh or retained from the last staging — are read back
          // here in stamp order.
          mp = &cache->batch->output(mosfet_index);
        } else if (cache && cache->enabled()) {
          MosfetCache::Entry& ent = cache->entries[mosfet_index];
          if (ent.valid && std::fabs(vg - ent.vg) <= cache->vtol &&
              std::fabs(vd - ent.vd) <= cache->vtol &&
              std::fabs(vs - ent.vs) <= cache->vtol) {
            cache->bypasses += 1;
            (dynamic ? cache->bypasses_tran : cache->bypasses_dc) += 1;
          } else {
            ent.out = bsimsoi::eval(e.model, vg, vd, vs);
            ent.vg = vg;
            ent.vd = vd;
            ent.vs = vs;
            ent.valid = true;
            cache->evals += 1;
            (dynamic ? cache->evals_tran : cache->evals_dc) += 1;
            fresh_evals += 1;
          }
          mp = &ent.out;
        } else {
          m_local = bsimsoi::eval(e.model, vg, vd, vs);
          fresh_evals += 1;
        }
        const bsimsoi::ModelOutput& m = *mp;
        mosfet_index += 1;
        const NodeId term[3] = {g, d, s};  // order matches dids/dq arrays

        // Channel current: into drain, out of source.
        stamp_f(d, m.ids);
        stamp_f(s, -m.ids);
        for (int t = 0; t < 3; ++t) {
          if (term[t] == kGround) continue;
          const std::size_t u = circuit.node_unknown(term[t]);
          stamp_j(d, u, m.dids[t]);
          stamp_j(s, u, -m.dids[t]);
        }
        // Gmin across the channel keeps isolated stacks invertible.
        stamp_conductance(d, s, ctx.gmin);
        stamp_conductance(g, s, 1e-15);

        // Terminal charge companions (slots: g, d, s).
        const double qt[3] = {m.qg, m.qd, m.qs};
        const std::array<double, 3>* dq[3] = {&m.dqg, &m.dqd, &m.dqs};
        for (int t = 0; t < 3; ++t) {
          const std::size_t sl = slot + static_cast<std::size_t>(t);
          if (dynamic) {
            const CompanionCoeffs cc = companion_at(sl);
            const double i = cc.geq * qt[t] - cc.ihist;
            stamp_f(term[t], i);
            for (int u = 0; u < 3; ++u) {
              if (term[u] == kGround) continue;
              stamp_j(term[t], circuit.node_unknown(term[u]),
                      cc.geq * (*dq[t])[u]);
            }
            if (new_state) {
              new_state->q[sl] = qt[t];
              new_state->iq[sl] = i;
            }
          } else if (new_state) {
            new_state->q[sl] = qt[t];
          }
        }
        slot += 3;
        break;
      }
    }
  }
  return fresh_evals;
}

// Dense accumulation (the historical assemble()).
struct DenseJacSink {
  linalg::DenseMatrix& jac;
  void add(std::size_t r, std::size_t c, double v) { jac(r, c) += v; }
};

// Records the (row, col) of every emission, in emission order.
struct PatternJacSink {
  std::vector<std::pair<std::size_t, std::size_t>>& out;
  void add(std::size_t r, std::size_t c, double) { out.emplace_back(r, c); }
};

// Routes emission k to the CSR value slot the plan computed for it.
struct SlotJacSink {
  const std::size_t* slots;
  std::size_t count;
  double* values;
  std::size_t cursor = 0;
  void add(std::size_t, std::size_t, double v) { values[slots[cursor++]] += v; }
};

}  // namespace

void assemble(const Circuit& circuit, const linalg::Vector& x,
              const AssemblyContext& ctx, linalg::DenseMatrix& jac,
              linalg::Vector& f, DynamicState* new_state) {
  const std::size_t n = circuit.system_size();
  if (jac.rows() != n || jac.cols() != n) jac = linalg::DenseMatrix(n, n);
  jac.set_zero();
  DenseJacSink sink{jac};
  assemble_impl(circuit, x, ctx, sink, f, new_state, nullptr);
}

std::vector<std::pair<std::size_t, std::size_t>> assemble_pattern(
    const Circuit& circuit, bool dynamic) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const linalg::Vector x(circuit.system_size(), 0.0);
  linalg::Vector f;
  DynamicState zero_state;
  zero_state.q.assign(count_charge_slots(circuit), 0.0);
  zero_state.iq.assign(zero_state.q.size(), 0.0);
  AssemblyContext ctx;
  if (dynamic) {
    ctx.integrator = Integrator::kBackwardEuler;  // same stamps as BDF2
    ctx.h = 1.0;
    ctx.prev = &zero_state;
    ctx.prev2 = &zero_state;
  }
  PatternJacSink sink{out};
  assemble_impl(circuit, x, ctx, sink, f, nullptr, nullptr);
  return out;
}

std::size_t assemble_sparse(const Circuit& circuit, const AssemblyPlan& plan,
                            const linalg::Vector& x,
                            const AssemblyContext& ctx,
                            std::vector<double>& values, linalg::Vector& f,
                            DynamicState* new_state, MosfetCache* cache) {
  const bool dynamic = ctx.integrator != Integrator::kNone;
  const std::vector<std::size_t>& slots = plan.slots(dynamic);
  values.assign(plan.nnz(), 0.0);
  SlotJacSink sink{slots.data(), slots.size(), values.data()};
  const std::size_t fresh =
      assemble_impl(circuit, x, ctx, sink, f, new_state, cache);
  MIVTX_EXPECT(sink.cursor == slots.size(),
               "assemble_sparse: stamp program drifted from the plan");
  return fresh;
}

void evaluate_charges(const Circuit& circuit, const linalg::Vector& x,
                      DynamicState& state) {
  const std::size_t slots = count_charge_slots(circuit);
  state.q.assign(slots, 0.0);
  if (state.iq.size() != slots) state.iq.assign(slots, 0.0);
  std::size_t slot = 0;
  for (const Element& e : circuit.elements()) {
    if (e.kind == ElementKind::kCapacitor) {
      state.q[slot++] =
          e.value * (node_v(x, e.nodes[0]) - node_v(x, e.nodes[1]));
    } else if (e.kind == ElementKind::kInductor) {
      state.q[slot++] = e.value * x[circuit.branch_unknown(e)];
    } else if (e.kind == ElementKind::kMosfet) {
      const bsimsoi::ModelOutput m = bsimsoi::eval(
          e.model, node_v(x, e.nodes[1]), node_v(x, e.nodes[0]),
          node_v(x, e.nodes[2]));
      state.q[slot++] = m.qg;
      state.q[slot++] = m.qd;
      state.q[slot++] = m.qs;
    }
  }
}

void assemble_capacitance(const Circuit& circuit, const linalg::Vector& x,
                          linalg::DenseMatrix& cmat) {
  const std::size_t n = circuit.system_size();
  MIVTX_EXPECT(x.size() == n, "assemble_capacitance: size mismatch");
  if (cmat.rows() != n || cmat.cols() != n)
    cmat = linalg::DenseMatrix(n, n);
  cmat.set_zero();

  auto stamp = [&](NodeId row, NodeId col, double c) {
    if (row == kGround || col == kGround) return;
    cmat(circuit.node_unknown(row), circuit.node_unknown(col)) += c;
  };

  for (const Element& e : circuit.elements()) {
    switch (e.kind) {
      case ElementKind::kCapacitor: {
        const NodeId a = e.nodes[0], b = e.nodes[1];
        stamp(a, a, e.value);
        stamp(b, b, e.value);
        stamp(a, b, -e.value);
        stamp(b, a, -e.value);
        break;
      }
      case ElementKind::kInductor: {
        // Branch equation imaginary part: -j*omega*L*i.
        const std::size_t k = circuit.branch_unknown(e);
        cmat(k, k) -= e.value;
        break;
      }
      case ElementKind::kMosfet: {
        const NodeId d = e.nodes[0], g = e.nodes[1], s = e.nodes[2];
        const bsimsoi::ModelOutput m = bsimsoi::eval(
            e.model, node_v(x, g), node_v(x, d), node_v(x, s));
        const NodeId term[3] = {g, d, s};
        const std::array<double, 3>* dq[3] = {&m.dqg, &m.dqd, &m.dqs};
        for (int t = 0; t < 3; ++t) {
          for (int u = 0; u < 3; ++u) {
            stamp(term[t], term[u], (*dq[t])[u]);
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace mivtx::spice
