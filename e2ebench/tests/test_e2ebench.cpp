// Unit tests for the benchmark's own code: statistics and tail selection,
// the failure ledger (including a real forced charlib failure), metric
// name and unit rules, the result-line schema, and the metric catalogue
// against BENCHMARK.json.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "charlib/characterize.h"
#include "common/error.h"
#include "common/json.h"
#include "core/reference_cards.h"
#include "layers.h"
#include "report.h"
#include "specs.h"
#include "stats.h"
#include "summary.h"
#include "workload.h"

namespace e2ebench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, RejectsEmptySampleAndBadRank) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 100.5), std::invalid_argument);
}

TEST(TailSelection, HighestRungWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.9), 1u);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(1200), 99.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 98.0);
  EXPECT_EQ(tail_percentile(112), 90.0);
  EXPECT_EQ(tail_percentile(78), 80.0);
  EXPECT_EQ(tail_percentile(43), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_FALSE(tail_percentile(19).has_value());
  // Every returned rung really leaves min_beyond samples beyond it.
  for (std::size_t n = 20; n < 3000; n += 7)
    EXPECT_GE(samples_beyond(n, *tail_percentile(n)), 10u) << n;
}

TEST(TailSelection, RungComesFromThePlannedOpCount) {
  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) samples.push_back(i * 1e-3);
  // Two passes of a 100-op workload: the rung stays p90 (not p95).
  const auto s = summarize_latencies(samples, 100);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->tail_pct, 90.0);
  EXPECT_EQ(s->count, 200u);
  EXPECT_EQ(s->tail_beyond, 20u);
  EXPECT_NEAR(s->p50_s, 0.1005, 1e-12);
  EXPECT_NEAR(s->tail_s, percentile(samples, 90), 1e-15);
  EXPECT_FALSE(summarize_latencies({}, 100).has_value());
  EXPECT_FALSE(summarize_latencies(samples, 5).has_value());
}

TEST(OpLedger, CountsSuccessesAndTypedFailures) {
  OpLedger ledger;
  ledger.ok(0.5);
  ledger.ok_untimed();
  ledger.fail(FailureKind::kServeQueueFull, "ppa INV1X1/2D@1.00",
              "queue full\nsecond line");
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 1u);
  EXPECT_EQ(ledger.latencies(), std::vector<double>{0.5});
  ASSERT_EQ(ledger.failures().size(), 1u);
  EXPECT_EQ(ledger.failures()[0].detail, "queue full");

  OpLedger total;
  total.merge(ledger);
  total.merge(ledger);
  EXPECT_EQ(total.attempted(), 6u);
  EXPECT_EQ(total.failed(), 2u);
  EXPECT_THROW(total.merge(total), std::invalid_argument);

  const std::string table = render_failure_table(total.failures());
  EXPECT_NE(table.find("failures: 2"), std::string::npos);
  EXPECT_NE(table.find("serve-queue-full"), std::string::npos);
  EXPECT_EQ(render_failure_table({}), "failures: none\n");
}

TEST(OpLedger, ForcedCharlibFailureIsCountedWithItsReason) {
  // XOR2X1 on the default grid is a known unmeasurable entry; the
  // workloads record it the way this test does.
  mivtx::charlib::CharOptions opts;
  opts.grid = mivtx::charlib::default_char_grid();
  const mivtx::charlib::Characterizer characterizer(
      mivtx::core::reference_model_library(), opts);
  OpLedger ledger;
  const CellJob job{mivtx::cells::CellType::kXor2,
                    mivtx::cells::Implementation::k2D};
  try {
    characterizer.characterize_cell(job.first, job.second);
    ledger.ok(0.0);
  } catch (const mivtx::Error& e) {
    ledger.fail(FailureKind::kCharlibMeasurement, job_name(job),
                first_line(e.what()));
  }
  ASSERT_EQ(ledger.failed(), 1u) << "XOR2X1 default grid now measures; "
                                    "update the expected failure counts";
  const Failure f = ledger.failures()[0];
  EXPECT_EQ(f.kind, FailureKind::kCharlibMeasurement);
  EXPECT_EQ(f.op, "XOR2X1/2d");
  EXPECT_EQ(f.detail.rfind("charlib: measurement failed for XOR2X1", 0), 0u)
      << f.detail;
}

TEST(RunTasks, RunsEveryIndexOnceAndRethrowsEscapes) {
  std::vector<int> hits(100, 0);
  run_tasks(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_THROW(run_tasks(3, 10,
                         [](std::size_t i) {
                           if (i == 4) throw std::runtime_error("boom");
                         }),
               std::runtime_error);
}

TEST(RunTasks, LedgerAndProbesRecordFromEveryThread) {
  mivtx::trace::Tracer::global().reset();
  mivtx::trace::Tracer::global().start();
  OpLedger ledger;
  LayerTimes layers;
  run_tasks(4, 400, [&](std::size_t i) {
    Probe op(layers, "bench.op.test");
    if (i % 10 == 0)
      ledger.fail(FailureKind::kException, "op", "forced");
    else
      ledger.ok(op.elapsed());
  });
  mivtx::trace::Tracer::global().stop();
  EXPECT_EQ(ledger.attempted(), 400u);
  EXPECT_EQ(ledger.failed(), 40u);
  EXPECT_EQ(ledger.latencies().size(), 360u);
  EXPECT_GT(layers.busy("bench.op.test"), 0.0);
  EXPECT_EQ(layers.busy_prefix("bench.op."), layers.busy("bench.op.test"));
#if defined(MIVTX_TRACE_ENABLED)
  EXPECT_EQ(mivtx::trace::Tracer::global().event_count(), 400u);
  EXPECT_NE(render_self_time_table().find("op"), std::string::npos);
#endif
  mivtx::trace::Tracer::global().reset();
}

TEST(FirstLine, StripsTheExpectPrefix) {
  EXPECT_EQ(first_line("src/x.cpp:12: check `m.ok` failed: charlib: bad\nmore"),
            "charlib: bad");
  EXPECT_EQ(first_line("plain reason\ntrace"), "plain reason");
}

TEST(MetricNames, FollowTheCharacterRules) {
  EXPECT_TRUE(valid_metric_name("spice.sparse.full_factorizations"));
  EXPECT_TRUE(valid_metric_name("op_p50_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_hidden"));
  EXPECT_FALSE(valid_metric_name(".dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("ms"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricSet, RejectsBadNamesDuplicatesAndNonFinite) {
  MetricSet m;
  m.add("wall_s", "s", 1.0);
  EXPECT_THROW(m.add("wall_s", "s", 2.0), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", "s", 2.0), std::invalid_argument);
  EXPECT_THROW(m.add("x", "bad unit", 2.0), std::invalid_argument);
  EXPECT_THROW(m.add("y", "s", std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(m.add("z", "s", std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(m.items().size(), 1u);
}

TEST(ResultLine, HasExactlyTheSchemaKeys) {
  MetricSet m;
  m.add("latency_ms", "ms", 0.1 + 0.2);
  m.add("setup_s", "s", 1e-7);
  const std::string line = result_json(true, 1000, 3, m);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const mivtx::Json doc = mivtx::Json::parse(line);
  ASSERT_TRUE(doc.is_object());
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"correct", "attempted", "failed",
                                            "metrics"}));
  EXPECT_TRUE(doc.find("correct")->as_bool());
  EXPECT_EQ(doc.find("attempted")->as_number(), 1000.0);
  EXPECT_EQ(doc.find("failed")->as_number(), 3.0);
  const mivtx::Json* metrics = doc.find("metrics");
  ASSERT_EQ(metrics->members().size(), 2u);
  const mivtx::Json& latency = metrics->members()[0].second;
  EXPECT_EQ(latency.members().size(), 2u);
  // All digits: the value reads back bit-exact.
  EXPECT_EQ(latency.find("value")->as_number(), 0.1 + 0.2);
  EXPECT_EQ(latency.find("unit")->as_string(), "ms");
}

TEST(Catalogue, NamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()})
    for (const MetricSpec& s : *specs) {
      EXPECT_TRUE(valid_metric_name(s.name)) << s.name;
      EXPECT_TRUE(valid_unit(s.unit)) << s.unit;
      EXPECT_TRUE(seen.insert(s.name).second) << s.name;
    }
}

TEST(Catalogue, EndToEndMetricsFollowItInOrder) {
  RunTotals totals;
  totals.setup_s = 0.25;
  totals.pass_wall_s = {2.0, 4.0, 3.0};
  totals.pass_cpu_s = {8.0, 9.0, 10.0};
  totals.ok_ops = 90;
  for (int i = 0; i < 30; ++i) totals.latencies_s.push_back(0.01 * (i + 1));
  totals.planned_latency_ops = 30;
  totals.peak_rss_mb = 64.0;
  std::optional<LatencySummary> tail;
  const MetricSet m = end_to_end_metrics(totals, &tail);
  ASSERT_EQ(m.items().size(), end_to_end_specs().size());
  for (std::size_t i = 0; i < m.items().size(); ++i) {
    EXPECT_EQ(m.items()[i].name, end_to_end_specs()[i].name);
    EXPECT_EQ(m.items()[i].unit, end_to_end_specs()[i].unit);
  }
  EXPECT_DOUBLE_EQ(m.find("wall_s")->value, 3.0);
  EXPECT_DOUBLE_EQ(m.find("cpu_s")->value, 9.0);
  EXPECT_DOUBLE_EQ(m.find("ops_per_s")->value, 10.0);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->tail_pct, 50.0);  // 30 ops: only p50 leaves 10 beyond
  EXPECT_THROW(end_to_end_metrics(RunTotals{}), std::invalid_argument);
}

TEST(Catalogue, PerLayerMetricsZeroFillAndRejectStrangers) {
  MetricSet measured;
  measured.add("ppa.busy_s", "s", 1.5);
  const MetricSet m = per_layer_metrics(measured, 0.02);
  ASSERT_EQ(m.items().size(), per_layer_specs().size());
  EXPECT_DOUBLE_EQ(m.find("ppa.busy_s")->value, 1.5);
  EXPECT_DOUBLE_EQ(m.find("tcad.busy_s")->value, 0.0);
  EXPECT_DOUBLE_EQ(m.find("trace.overhead_share")->value, 0.02);

  MetricSet stranger;
  stranger.add("ppa.nonsense", "s", 1.0);
  EXPECT_THROW(per_layer_metrics(stranger, 0.0), std::invalid_argument);
  MetricSet wrong_unit;
  wrong_unit.add("ppa.busy_s", "ms", 1.0);
  EXPECT_THROW(per_layer_metrics(wrong_unit, 0.0), std::invalid_argument);
}

// BENCHMARK.json declares the same workloads and metrics mivtx_e2ebench
// prints, with units that agree.
TEST(Catalogue, MatchesBenchmarkJson) {
  const mivtx::Json doc = mivtx::Json::parse(
      read_repo_file(std::string(E2EBENCH_REPO_ROOT) + "/BENCHMARK.json"));
  const auto check = [](const mivtx::Json& list,
                        const std::vector<MetricSpec>& specs) {
    ASSERT_EQ(list.items().size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(list.items()[i].find("name")->as_string(), specs[i].name);
      EXPECT_EQ(list.items()[i].find("unit")->as_string(), specs[i].unit);
    }
  };
  check(*doc.find("end_to_end"), end_to_end_specs());
  check(*doc.find("per_layer"), per_layer_specs());
  std::vector<std::string> names;
  for (const mivtx::Json& w : doc.find("workloads")->items())
    names.push_back(w.find("name")->as_string());
  EXPECT_EQ(names, workload_names());
  EXPECT_EQ(end_to_end_specs()[0].name, std::string("setup_s"));
}

}  // namespace
}  // namespace e2ebench
