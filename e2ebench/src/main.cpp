// mivtx_e2ebench - the repository benchmark (see BENCHMARK.json).
//
// Usage: mivtx_e2ebench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> [--work-dir <dir>]
//
// Workloads run on min(4, nproc) threads.
//
// A run: print the host fingerprint, set the workload up several times
// (setup_s is the median), print the generated inputs' properties, run
// untraced passes for about --seconds (at least one), check the
// outputs of the last pass, and print the end-to-end metrics and the
// failure table.  With --trace 1 one more pass runs with the tracer on,
// followed by one untraced pass that brackets it for trace.overhead_share;
// it writes <work-dir>/trace_<workload>.json (Chrome trace-event JSON),
// prints the self time per layer, and the result line then carries the
// per-layer metrics.  The last stdout line is the JSON result.
//
// Exit status: 0 when every output check passed, 1 when one failed or the
// run could not complete, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "common/log.h"
#include "common/strings.h"
#include "host.h"
#include "runtime/metrics.h"
#include "specs.h"
#include "summary.h"
#include "trace/trace.h"
#include "workload.h"

using namespace e2ebench;

namespace {

// setup_s is the median over repeated setups: at least kMinSetups, and
// more until kMinSetupSeconds have gone (capped), so a setup of a few
// microseconds is still a stable median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 1000;
constexpr double kMinSetupSeconds = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "mivtx_e2ebench: %s\n"
               "usage: mivtx_e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "  workloads:",
               why.c_str());
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + a;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
        have_seconds = args.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") throw std::invalid_argument(v);
        args.trace = v == "1";
        have_trace = true;
      } else if (a == "--work-dir") {
        args.work_dir = v;
      } else {
        error = "unknown option " + a;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value '" + v + "' for " + a;
      return false;
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    error = "--workload, --seed, --seconds (> 0) and --trace are required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) return usage(error);
  const HostInfo host = host_info();

  WorkloadConfig config;
  config.seed = args.seed;
  config.threads = std::clamp<std::size_t>(host.nproc, 1, 4);
  config.work_dir = args.work_dir;
  std::unique_ptr<Workload> workload = make_workload(args.workload, config);
  if (!workload) return usage("unknown workload '" + args.workload + "'");

  mivtx::set_log_level(mivtx::LogLevel::kError);
  std::ostream& out = std::cout;
  try {
    std::filesystem::create_directories(args.work_dir);
    out << render_host(host);
    out << "workload " << workload->name() << " seed " << args.seed
        << " seconds " << args.seconds << " threads " << config.threads
        << " trace " << (args.trace ? 1 : 0) << "\n";

    RunTotals totals;
    std::vector<double> setups;
    const double setup_start = now_seconds();
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups &&
            now_seconds() - setup_start < kMinSetupSeconds)) {
      const double t0 = now_seconds();
      workload->setup();
      setups.push_back(now_seconds() - t0);
    }
    totals.setup_s = median(setups);
    totals.planned_latency_ops = workload->planned_latency_ops();
    workload->describe_inputs(out);

    // Untraced passes: every end-to-end number comes from these.  The
    // first pass fixes the count, floor(seconds / first pass), at least
    // one, so a pass that takes about --seconds does not flip between one
    // and two passes from run to run.
    OpLedger ledger;
    std::size_t passes = 1;
    for (std::size_t p = 0; p < passes; ++p) {
      mivtx::runtime::Metrics::global().reset();
      PassResult pass;
      workload->run_pass(false, pass);
      totals.pass_wall_s.push_back(pass.wall_s);
      totals.pass_cpu_s.push_back(pass.cpu_s);
      ledger.merge(pass.ops);
      if (p == 0 && pass.wall_s > 0.0)
        passes = std::max<std::size_t>(
            1, static_cast<std::size_t>(args.seconds / pass.wall_s));
    }
    totals.latencies_s = ledger.latencies();
    totals.ok_ops = ledger.attempted() - ledger.failed();
    totals.peak_rss_mb = peak_rss_mb();

    const std::vector<std::string> check_failures = workload->check();

    std::optional<LatencySummary> tail;
    const MetricSet e2e = end_to_end_metrics(totals, &tail);
    out << mivtx::format("setups %zu (min %.6f s, max %.6f s), passes %zu:",
                         setups.size(),
                         *std::min_element(setups.begin(), setups.end()),
                         *std::max_element(setups.begin(), setups.end()),
                         totals.pass_wall_s.size());
    for (std::size_t p = 0; p < totals.pass_wall_s.size(); ++p)
      out << mivtx::format(" %.3f/%.3f", totals.pass_wall_s[p],
                           totals.pass_cpu_s[p]);
    out << " (wall/cpu s)\n";
    out << "end-to-end metrics (untraced):\n";
    for (const Metric& m : e2e.items())
      out << mivtx::format("  %-14s %16.6f %s\n", m.name.c_str(), m.value,
                           m.unit.c_str());
    if (tail)
      out << mivtx::format(
          "  op_tail_ms is p%g over %zu samples (%zu beyond it)\n",
          tail->tail_pct, tail->count, tail->tail_beyond);
    const double failed_frac =
        ledger.attempted() == 0
            ? 0.0
            : static_cast<double>(ledger.failed()) /
                  static_cast<double>(ledger.attempted());
    MetricSet extras;
    extras.add("failed_frac", "ratio", failed_frac);
    workload->report_extras(extras);
    for (const Metric& m : extras.items())
      out << mivtx::format("  %-14s %16.6f %s\n", m.name.c_str(), m.value,
                           m.unit.c_str());
    out << "ops attempted " << ledger.attempted() << ", failed "
        << ledger.failed() << "\n";
    out << render_failure_table(ledger.failures());
    out << "output checks: "
        << (check_failures.empty() ? "all passed" : "FAILED") << "\n";
    for (const std::string& f : check_failures) out << "  " << f << "\n";

    MetricSet result = e2e;
    if (args.trace) {
      auto& tracer = mivtx::trace::Tracer::global();
      mivtx::runtime::Metrics::global().reset();
      tracer.reset();
      tracer.start();
      PassResult pass;
      workload->run_pass(true, pass);
      tracer.stop();
      // Bracket the traced pass between two untraced ones, so warm-up
      // drift does not read as tracing overhead (or as a saving).
      PassResult after;
      mivtx::runtime::Metrics::global().reset();
      workload->run_pass(false, after);
      const double overhead =
          pass.wall_s / (0.5 * (totals.pass_wall_s.back() + after.wall_s)) -
          1.0;
      result = per_layer_metrics(pass.layer_metrics, overhead);
      const std::string trace_path = (std::filesystem::path(args.work_dir) /
                                      ("trace_" + args.workload + ".json"))
                                         .string();
      out << "traced pass: wall " << pass.wall_s << " s, trace "
          << (tracer.write_chrome_json(trace_path) ? trace_path
                                                   : "(not written)")
          << "\n";
      out << render_self_time_table();
      out << "per-layer metrics (traced pass):\n";
      for (const Metric& m : result.items())
        out << mivtx::format("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                             m.unit.c_str());
      tracer.reset();
    }

    out << result_json(check_failures.empty(), ledger.attempted(),
                       ledger.failed(), result)
        << std::endl;
    return check_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    out.flush();
    std::fprintf(stderr, "mivtx_e2ebench: %s\n", e.what());
    return 1;
  }
}
