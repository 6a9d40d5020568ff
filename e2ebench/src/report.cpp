#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace e2ebench {
namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

// Shortest decimal text that reads back as the same double.
std::string exact_number(double v) {
  char buf[32];
  for (int digits = 15; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name[0])) return false;
  for (const char c : name)
    if (!is_alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit)
    if (!is_alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-')
      return false;
  return true;
}

void MetricSet::add(const std::string& name, const std::string& unit,
                    double value) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name '" + name + "'");
  if (!valid_unit(unit))
    throw std::invalid_argument("bad unit '" + unit + "' for " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value for " + name);
  if (find(name) != nullptr)
    throw std::invalid_argument("duplicate metric " + name);
  items_.push_back({name, unit, value});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kCharlibMeasurement: return "charlib-measurement";
    case FailureKind::kMissingTiming: return "missing-timing";
    case FailureKind::kPpaNotOk: return "ppa-not-ok";
    case FailureKind::kServeError: return "serve-error";
    case FailureKind::kServeQueueFull: return "serve-queue-full";
    case FailureKind::kServeDraining: return "serve-draining";
    case FailureKind::kInvalidInput: return "invalid-input";
    case FailureKind::kException: return "exception";
  }
  return "?";
}

void OpLedger::ok(double latency_s) {
  const std::lock_guard<std::mutex> lock(m_);
  ++ok_;
  latencies_.push_back(latency_s);
}

void OpLedger::ok_untimed() {
  const std::lock_guard<std::mutex> lock(m_);
  ++ok_;
}

void OpLedger::fail(FailureKind kind, std::string op, std::string detail) {
  const std::size_t eol = detail.find('\n');
  if (eol != std::string::npos) detail.resize(eol);
  const std::lock_guard<std::mutex> lock(m_);
  failures_.push_back({kind, std::move(op), std::move(detail)});
}

std::uint64_t OpLedger::attempted() const {
  const std::lock_guard<std::mutex> lock(m_);
  return ok_ + failures_.size();
}

std::uint64_t OpLedger::failed() const {
  const std::lock_guard<std::mutex> lock(m_);
  return failures_.size();
}

std::vector<double> OpLedger::latencies() const {
  const std::lock_guard<std::mutex> lock(m_);
  return latencies_;
}

std::vector<Failure> OpLedger::failures() const {
  const std::lock_guard<std::mutex> lock(m_);
  return failures_;
}

void OpLedger::merge(const OpLedger& other) {
  if (&other == this) throw std::invalid_argument("ledger merged into itself");
  const std::scoped_lock lock(m_, other.m_);
  ok_ += other.ok_;
  latencies_.insert(latencies_.end(), other.latencies_.begin(),
                    other.latencies_.end());
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

std::string render_failure_table(const std::vector<Failure>& failures) {
  if (failures.empty()) return "failures: none\n";
  // (kind, op) -> count and the first detail seen.
  std::map<std::tuple<std::string, std::string>,
           std::pair<std::size_t, std::string>>
      groups;
  for (const Failure& f : failures) {
    auto& g = groups[{failure_kind_name(f.kind), f.op}];
    if (g.first++ == 0) g.second = f.detail;
  }
  std::ostringstream os;
  os << "failures: " << failures.size() << "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %5s  %-20s %-24s %s\n", "count",
                "kind", "op", "reason");
  os << line;
  for (const auto& [key, value] : groups) {
    std::snprintf(line, sizeof(line), "  %5zu  %-20s %-24s ", value.first,
                  std::get<0>(key).c_str(), std::get<1>(key).c_str());
    os << line << value.second.substr(0, 120) << "\n";
  }
  return os.str();
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    os << (first ? "" : ", ") << json_string(m.name)
       << ": {\"value\": " << exact_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace e2ebench
