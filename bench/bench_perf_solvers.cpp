// P1 - micro-benchmarks of the numerical kernels (google-benchmark):
// dense/banded LU, compact-model evaluation, MNA assembly + Newton,
// transient stepping, a TCAD Gummel bias step, and the mivtx::runtime
// primitives (thread-pool dispatch, stable hashing, artifact cache).
//
// `--json FILE` is shorthand for --benchmark_out=FILE
// --benchmark_out_format=json (the form CI consumes).
//
// `--backend=dense|sparse|auto` pins the SPICE linear-solver core for the
// dcop/transient benchmarks (default auto); the std-cell transient bench
// reports the solver-core counters (factorizations, LU reuses, device
// bypasses, ...) as per-run benchmark counters so they land in the JSON.
// `--device-eval=auto|scalar|portable|simd` pins the MOSFET evaluation
// path the same way (default auto), so CI can record a scalar baseline and
// a SIMD run from one binary.  `--linear-solver=auto|direct|cg|bicgstab`
// pins the sparse-tier linear-solve method (default auto) for the
// dcop/transient benchmarks; the large-circuit benches additionally carry
// the method as a benchmark argument so one run emits the direct and
// iterative rows CI compares.  `--metrics` prints the full runtime metrics
// report on exit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bsimsoi/model.h"
#include "cells/circuitgen.h"
#include "cells/netgen.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "core/variability.h"
#include "linalg/banded.h"
#include "linalg/dense.h"
#include "runtime/artifact_cache.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "linalg/krylov.h"
#include "linalg/sparse_lu.h"
#include "spice/assembly_plan.h"
#include "spice/dcop.h"
#include "spice/transient.h"
#include "tcad/characterize.h"

using namespace mivtx;

namespace {

spice::SolverBackend g_backend = spice::SolverBackend::kAuto;
spice::DeviceEval g_device_eval = spice::DeviceEval::kAuto;
spice::LinearSolver g_linear_solver = spice::LinearSolver::kAuto;

spice::NewtonOptions bench_newton() {
  spice::NewtonOptions opts;
  opts.backend = g_backend;
  opts.device_eval = g_device_eval;
  opts.linear_solver = g_linear_solver;
  return opts;
}

linalg::DenseMatrix random_dense(std::size_t n, Rng& rng) {
  linalg::DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
    a(r, r) += 4.0;
  }
  return a;
}

void BM_DenseLU(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const linalg::DenseMatrix a = random_dense(n, rng);
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::DenseLU(a).solve(b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DenseLU)->Arg(10)->Arg(30)->Arg(100)->Complexity();

void BM_BandedLU(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t bw = 15;
  Rng rng(2);
  linalg::BandedMatrix a(n, bw, bw);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t c0 = r > bw ? r - bw : 0;
    const std::size_t c1 = std::min(n - 1, r + bw);
    for (std::size_t c = c0; c <= c1; ++c)
      a.set(r, c, rng.uniform(-1, 1) + (r == c ? 4.0 : 0.0));
  }
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::BandedLU(a).solve(b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_BandedLU)->Arg(100)->Arg(500)->Arg(2000)->Complexity();

void BM_CompactModelEval(benchmark::State& state) {
  const auto& card = core::reference_model_library().card(
      core::Variant::kMiv2Channel, core::Polarity::kNmos);
  double vg = 0.0;
  for (auto _ : state) {
    vg += 1e-6;
    benchmark::DoNotOptimize(bsimsoi::eval(card, 0.5 + vg, 0.8, 0.0));
  }
}
BENCHMARK(BM_CompactModelEval);

spice::Circuit make_inverter_chain(int stages) {
  const auto& lib = core::reference_model_library();
  const auto nch = lib.card(core::Variant::kTraditional, core::Polarity::kNmos);
  const auto pch = lib.card(core::Variant::kTraditional, core::Polarity::kPmos);
  spice::Circuit ckt;
  const spice::NodeId vdd = ckt.node("vdd");
  ckt.add_vsource("VDD", vdd, spice::kGround, spice::SourceSpec::DC(1.0));
  spice::PulseSpec p;
  p.v1 = 0;
  p.v2 = 1;
  p.delay = 100e-12;
  p.rise = 20e-12;
  p.fall = 20e-12;
  p.width = 300e-12;
  spice::NodeId prev = ckt.node("in");
  ckt.add_vsource("VIN", prev, spice::kGround, spice::SourceSpec::Pulse(p));
  for (int i = 0; i < stages; ++i) {
    const spice::NodeId out = ckt.node("n" + std::to_string(i));
    ckt.add_mosfet("MN" + std::to_string(i), out, prev, spice::kGround, nch);
    ckt.add_mosfet("MP" + std::to_string(i), out, prev, vdd, pch);
    prev = out;
  }
  ckt.add_capacitor("CL", prev, spice::kGround, 1e-15);
  return ckt;
}

void BM_DcOperatingPoint(benchmark::State& state) {
  const spice::Circuit ckt =
      make_inverter_chain(static_cast<int>(state.range(0)));
  const spice::NewtonOptions newton = bench_newton();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::dc_operating_point(ckt, newton));
  }
}
BENCHMARK(BM_DcOperatingPoint)->Arg(1)->Arg(5)->Arg(15);

void BM_TransientInverterChain(benchmark::State& state) {
  const spice::Circuit ckt =
      make_inverter_chain(static_cast<int>(state.range(0)));
  spice::TransientOptions opts;
  opts.t_stop = 6e-10;
  opts.newton = bench_newton();
  for (auto _ : state) {
    const spice::TransientResult tr = spice::transient(ckt, opts);
    benchmark::DoNotOptimize(tr.accepted_steps);
  }
}
BENCHMARK(BM_TransientInverterChain)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

// A parasitic-annotated standard cell driven the way the PPA engine drives
// it: pin 0 pulses full swing, the side inputs sit at sensitizing levels.
spice::Circuit make_std_cell(cells::CellType type) {
  const auto& lib = core::reference_model_library();
  cells::ModelSet models;
  models.nmos = lib.card(core::Variant::kTraditional, core::Polarity::kNmos);
  models.pmos = lib.card(core::Variant::kTraditional, core::Polarity::kPmos);
  cells::CellNetlist cell = cells::build_cell(
      type, cells::Implementation::k2D, models, cells::ParasiticSpec{}, 1.0);
  const std::vector<std::string> inputs = cells::cell_input_names(type);
  const auto side = core::PpaEngine::sensitize(type, 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    spice::Element& src = cell.circuit.element("V" + inputs[i]);
    if (i == 0) {
      spice::PulseSpec p;
      p.v1 = 0.0;
      p.v2 = 1.0;
      p.delay = 100e-12;
      p.rise = 20e-12;
      p.fall = 20e-12;
      p.width = 300e-12;
      src.source = spice::SourceSpec::Pulse(p);
    } else {
      src.source =
          spice::SourceSpec::DC(side.has_value() && (*side)[i] ? 1.0 : 0.0);
    }
  }
  return cell.circuit;
}

void BM_TransientStdCell(benchmark::State& state) {
  const cells::CellType type = static_cast<cells::CellType>(state.range(0));
  const spice::Circuit ckt = make_std_cell(type);
  spice::TransientOptions opts;
  opts.t_stop = 6e-10;
  opts.newton = bench_newton();
  runtime::Metrics::global().reset();
  for (auto _ : state) {
    const spice::TransientResult tr = spice::transient(ckt, opts);
    benchmark::DoNotOptimize(tr.accepted_steps);
  }
  // Per-run solver-core counters (averaged over bench iterations); the
  // expected ordering is symbolic << full factorizations << refactorizations
  // <= newton iterations.
  const runtime::Metrics& m = runtime::Metrics::global();
  const double runs =
      std::max<double>(1.0, static_cast<double>(state.iterations()));
  state.counters["unknowns"] = static_cast<double>(ckt.system_size());
  state.counters["newton_iters"] =
      m.counter_total("spice.newton.iterations") / runs;
  state.counters["symbolic"] =
      m.counter_total("spice.sparse.symbolic_analyses") / runs;
  state.counters["full_factor"] =
      m.counter_total("spice.sparse.full_factorizations") / runs;
  state.counters["refactor"] =
      m.counter_total("spice.sparse.refactorizations") / runs;
  state.counters["lu_reuse"] = m.counter_total("spice.sparse.lu_reuses") / runs;
  state.counters["dev_bypass"] =
      m.counter_total("spice.device.bypasses") / runs;
  state.counters["dev_eval"] = m.counter_total("spice.device.evals") / runs;
  state.counters["batch_blocks"] =
      m.counter_total("spice.device.batch.blocks") / runs;
}
BENCHMARK(BM_TransientStdCell)
    ->Arg(static_cast<int>(cells::CellType::kNand2))
    ->Arg(static_cast<int>(cells::CellType::kXor2))
    ->Unit(benchmark::kMillisecond);

// Monte-Carlo variability of one cell (8 samples of XOR2X1, MIV 2-channel):
// arg 0 is the number of workers the samples fan out over (1 = serial), so
// the ratio of the two rows is the fan-out speedup.  Statistics are
// bit-identical for any worker count.
void BM_VariabilityBatch(benchmark::State& state) {
  const auto& lib = core::reference_model_library();
  core::VariationSpec spec;
  spec.samples = 8;
  core::PpaOptions ppa_opts;
  ppa_opts.newton = bench_newton();
  runtime::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  runtime::ExecPolicy exec;
  exec.pool = pool.size() > 1 ? &pool : nullptr;
  runtime::Metrics::global().reset();
  for (auto _ : state) {
    const core::VariabilityStats stats = core::run_variability(
        lib, cells::CellType::kXor2, cells::Implementation::kMiv2Channel,
        spec, ppa_opts, exec);
    benchmark::DoNotOptimize(stats.mean_delay);
  }
  const runtime::Metrics& m = runtime::Metrics::global();
  const double runs =
      std::max<double>(1.0, static_cast<double>(state.iterations()));
  state.counters["samples"] = static_cast<double>(spec.samples);
  state.counters["workers"] = static_cast<double>(pool.size());
  state.counters["dev_eval"] = m.counter_total("spice.device.evals") / runs;
}
BENCHMARK(BM_VariabilityBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Large generated circuits: the direct-vs-iterative crossover benches CI
// gates on.  Argument 1 selects the linear-solve method (0 = pinned direct
// sparse LU, 1 = kAuto, which routes through the crossover heuristic), so
// the same binary emits both rows and the JSON diff is a pure
// method-vs-method comparison on an identical circuit.  Each bench
// iteration runs a from-scratch operating point (fresh workspace), so the
// direct rows pay the symbolic analysis exactly the way a cold solve does
// and the >= iterative_min_unknowns rows show the analysis being skipped.
spice::NewtonOptions large_circuit_newton(int64_t method) {
  spice::NewtonOptions newton = bench_newton();
  newton.linear_solver = method == 0 ? spice::LinearSolver::kDirect
                                     : spice::LinearSolver::kAuto;
  newton.presolve_lint = false;  // structural gate once at build, not per run
  return newton;
}

void report_solver_counters(benchmark::State& state, std::size_t unknowns) {
  const runtime::Metrics& m = runtime::Metrics::global();
  const double runs =
      std::max<double>(1.0, static_cast<double>(state.iterations()));
  state.counters["unknowns"] = static_cast<double>(unknowns);
  state.counters["iter_solves"] =
      m.counter_total("spice.iterative.solves") / runs;
  state.counters["iter_iters"] =
      m.counter_total("spice.iterative.iterations") / runs;
  state.counters["iter_fallbacks"] =
      m.counter_total("spice.iterative.fallbacks") / runs;
  state.counters["symbolic"] =
      m.counter_total("spice.sparse.symbolic_analyses") / runs;
  state.counters["full_factor"] =
      m.counter_total("spice.sparse.full_factorizations") / runs;
}

// IR-drop mesh: branch-free and value-symmetric, so kAuto runs CG+ILU(0)
// above the crossover.  104x104 is 10816 unknowns (>= the 8192 crossover:
// iterative, no symbolic analysis); 40x40 is 1600 (< the 2048 fill-band
// floor: direct on both rows, the method argument only changes the pin).
void BM_DcopPowerGrid(benchmark::State& state) {
  cells::PowerGridSpec spec;
  spec.rows = static_cast<std::size_t>(state.range(0));
  spec.cols = spec.rows;
  const cells::GeneratedCircuit gen = cells::build_power_grid(spec);
  const spice::NewtonOptions newton = large_circuit_newton(state.range(1));
  runtime::Metrics::global().reset();
  for (auto _ : state) {
    const spice::DcResult r = spice::dc_operating_point(gen.circuit, newton);
    benchmark::DoNotOptimize(r.converged);
  }
  report_solver_counters(state, gen.circuit.system_size());
}
BENCHMARK(BM_DcopPowerGrid)
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({104, 0})
    ->Args({104, 1})
    ->Args({150, 0})
    ->Args({150, 1})
    ->Unit(benchmark::kMillisecond);

// Kernel-level direct-vs-iterative on the assembled power-grid matrix:
// one cold linear solve, excluding the (method-independent) MNA assembly
// that dominates the end-to-end rows above.  Direct runs the full
// analyze + factorize + solve a cold crossover decision pays; iterative
// runs ILU(0) factorize + preconditioned CG to the production rtol.  This
// is the pair the CI perf gate holds to >= 1.5x at >= 10k unknowns.
void BM_SparseSolveKernel(benchmark::State& state) {
  cells::PowerGridSpec spec;
  spec.rows = static_cast<std::size_t>(state.range(0));
  spec.cols = spec.rows;
  const cells::GeneratedCircuit gen = cells::build_power_grid(spec);
  const spice::Circuit& ckt = gen.circuit;
  const std::size_t n = ckt.system_size();
  const spice::AssemblyPlan plan(ckt);
  std::vector<double> values;
  linalg::Vector x(n, 0.0), f(n, 0.0);
  spice::AssemblyContext ctx;
  ctx.integrator = spice::Integrator::kNone;
  spice::assemble_sparse(ckt, plan, x, ctx, values, f, nullptr, nullptr);
  linalg::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = -f[i];

  if (state.range(1) == 0) {
    for (auto _ : state) {
      linalg::SparseLU lu;
      lu.analyze(n, plan.row_ptr(), plan.col_idx());
      lu.factorize(values);
      linalg::Vector sol = b;
      lu.solve(sol);
      benchmark::DoNotOptimize(sol.data());
    }
  } else {
    int iters = 0;
    for (auto _ : state) {
      linalg::Ilu0Preconditioner ilu;
      ilu.analyze(n, plan.row_ptr(), plan.col_idx());
      ilu.factorize(values);
      const linalg::CsrView a{n, &plan.row_ptr(), &plan.col_idx(), &values};
      linalg::Vector sol(n, 0.0);
      linalg::IterativeOptions io;
      linalg::KrylovSolver krylov;
      const linalg::IterativeResult r = krylov.cg(a, &ilu, b, sol, io);
      iters = r.iterations;
      benchmark::DoNotOptimize(sol.data());
    }
    state.counters["iter_iters"] = iters;
  }
  state.counters["unknowns"] = static_cast<double>(n);
  state.counters["nnz"] = static_cast<double>(plan.nnz());
}
BENCHMARK(BM_SparseSolveKernel)
    ->Args({104, 0})
    ->Args({104, 1})
    ->Args({150, 0})
    ->Args({150, 1})
    ->Unit(benchmark::kMillisecond);

// MIV-transistor ring oscillator: a general (nonsymmetric, V-source
// driven) MNA system, so the iterative rows exercise BiCGStab and the
// sticky per-regime fallback ladder rather than CG.
void BM_DcopRingOscillator(benchmark::State& state) {
  const auto& lib = core::reference_model_library();
  const core::PpaEngine engine(lib);
  const cells::GeneratedCircuit gen = cells::build_ring_oscillator(
      static_cast<std::size_t>(state.range(0)),
      cells::Implementation::kMiv2Channel,
      engine.model_set(cells::Implementation::kMiv2Channel),
      cells::ParasiticSpec{}, 1.0);
  const spice::NewtonOptions newton = large_circuit_newton(state.range(1));
  runtime::Metrics::global().reset();
  for (auto _ : state) {
    const spice::DcResult r = spice::dc_operating_point(gen.circuit, newton);
    benchmark::DoNotOptimize(r.converged);
  }
  report_solver_counters(state, gen.circuit.system_size());
}
BENCHMARK(BM_DcopRingOscillator)
    ->Args({301, 0})
    ->Args({301, 1})
    ->Unit(benchmark::kMillisecond);

void BM_TcadGummelBiasStep(benchmark::State& state) {
  tcad::DeviceSpec spec = tcad::DeviceSpec::for_variant(
      tcad::Variant::kTraditional, tcad::Polarity::kNmos);
  tcad::DeviceSimulator sim(spec);
  sim.solve(tcad::BiasPoint{0.5, 0.5});  // warm start
  double vg = 0.5;
  bool up = true;
  for (auto _ : state) {
    vg += up ? 0.05 : -0.05;
    if (vg > 0.95 || vg < 0.15) up = !up;
    benchmark::DoNotOptimize(sim.solve(tcad::BiasPoint{vg, 0.5}));
  }
  state.counters["nodes"] =
      static_cast<double>(sim.structure().mesh.num_nodes());
}
BENCHMARK(BM_TcadGummelBiasStep)->Unit(benchmark::kMillisecond);

void BM_ParallelForDispatch(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  runtime::ThreadPool* p = pool.size() > 1 ? &pool : nullptr;
  std::vector<double> out(1024);
  for (auto _ : state) {
    runtime::parallel_for(p, out.size(), [&](std::size_t i) {
      out[i] = std::sqrt(static_cast<double>(i) + 1.0);
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4);

void BM_StableHashCard(benchmark::State& state) {
  const std::string text = core::reference_model_library().to_text();
  for (auto _ : state) {
    StableHash h;
    h.mix(text);
    benchmark::DoNotOptimize(h.digest());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StableHashCard);

void BM_ArtifactCacheGet(benchmark::State& state) {
  runtime::ArtifactCache cache;
  const runtime::CacheKey key{"ppa", 0x1234abcd5678ef00ULL};
  cache.put(key, std::string(4096, 'x'));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(key));
  }
}
BENCHMARK(BM_ArtifactCacheGet);

}  // namespace

int main(int argc, char** argv) {
  // Translate the repo-conventional "--json FILE" and strip the local
  // "--backend=..." / "--metrics" flags before google-benchmark parses the
  // command line.
  bool print_metrics = false;
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.push_back("--benchmark_out=" + std::string(argv[i + 1]));
      args.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      const std::string which = argv[i] + 10;
      if (which == "dense") {
        g_backend = spice::SolverBackend::kDense;
      } else if (which == "sparse") {
        g_backend = spice::SolverBackend::kSparse;
      } else if (which == "auto") {
        g_backend = spice::SolverBackend::kAuto;
      } else {
        std::fprintf(stderr, "unknown --backend value: %s\n", which.c_str());
        return 1;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--device-eval=", 14) == 0) {
      const std::string which = argv[i] + 14;
      if (which == "auto") {
        g_device_eval = spice::DeviceEval::kAuto;
      } else if (which == "scalar") {
        g_device_eval = spice::DeviceEval::kScalar;
      } else if (which == "portable") {
        g_device_eval = spice::DeviceEval::kPortable;
      } else if (which == "simd") {
        g_device_eval = spice::DeviceEval::kSimd;
      } else {
        std::fprintf(stderr, "unknown --device-eval value: %s\n",
                     which.c_str());
        return 1;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--linear-solver=", 16) == 0) {
      const std::string which = argv[i] + 16;
      if (which == "auto") {
        g_linear_solver = spice::LinearSolver::kAuto;
      } else if (which == "direct") {
        g_linear_solver = spice::LinearSolver::kDirect;
      } else if (which == "cg") {
        g_linear_solver = spice::LinearSolver::kCg;
      } else if (which == "bicgstab") {
        g_linear_solver = spice::LinearSolver::kBicgstab;
      } else {
        std::fprintf(stderr, "unknown --linear-solver value: %s\n",
                     which.c_str());
        return 1;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  std::vector<char*> cargs;
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (print_metrics)
    std::printf("\n%s", runtime::Metrics::global().render_text().c_str());
  benchmark::Shutdown();
  return 0;
}
