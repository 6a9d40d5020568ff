// Benchmark bookkeeping: named metrics with units, the typed failure
// ledger every op reports into, and the one-line JSON result the
// benchmark prints last.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);
// Units: 1-16 of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Ordered, duplicate-free metric list.  add() throws std::invalid_argument
// on a malformed name or unit, a repeated name, or a non-finite value —
// the result line must always be valid JSON.
class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& items() const { return items_; }
  const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> items_;
};

// Why an op failed.  Every failed op carries one of these.
enum class FailureKind {
  kCharlibMeasurement,  // characterize_cell threw (unmeasurable grid point)
  kMissingTiming,       // block report has library holes (missing arcs)
  kPpaNotOk,            // CellPpa::ok == false
  kServeError,          // serve status "error"
  kServeQueueFull,      // serve status "queue_full"
  kServeDraining,       // serve status "draining"
  kInvalidInput,        // a generated input failed to parse or convert
  kException,           // any other exception escaping an op
};
const char* failure_kind_name(FailureKind kind);

struct Failure {
  FailureKind kind = FailureKind::kException;
  std::string op;      // "XOR2X1/2d", "rca16", "ppa NAND2X1/1ch vdd=0.95"
  std::string detail;  // first line of the cause
};

// Thread-safe per-pass op ledger: successful ops with their latency (when
// the op is individually timed), failed ops with their typed reason.
class OpLedger {
 public:
  void ok(double latency_s);   // individually timed success
  void ok_untimed();           // success without its own latency
  void fail(FailureKind kind, std::string op, std::string detail);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::vector<double> latencies() const;
  std::vector<Failure> failures() const;
  // Append another ledger's records (pass -> run totals).
  void merge(const OpLedger& other);

 private:
  mutable std::mutex m_;
  std::uint64_t ok_ = 0;
  std::vector<double> latencies_;
  std::vector<Failure> failures_;
};

// Failure table grouped by (kind, op): "count kind op detail".
std::string render_failure_table(const std::vector<Failure>& failures);

// The benchmark's last stdout line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

}  // namespace e2ebench
