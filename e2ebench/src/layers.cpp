#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "host.h"

namespace e2ebench {

void LayerTimes::add(const char* name, double seconds) {
  const std::lock_guard<std::mutex> lock(m_);
  busy_[name] += seconds;
}

double LayerTimes::busy(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(m_);
  const auto it = busy_.find(name);
  return it == busy_.end() ? 0.0 : it->second;
}

double LayerTimes::busy_prefix(const std::string& prefix) const {
  const std::lock_guard<std::mutex> lock(m_);
  double total = 0.0;
  for (const auto& [name, seconds] : busy_)
    if (name.rfind(prefix, 0) == 0) total += seconds;
  return total;
}

Probe::Probe(LayerTimes& times, const char* name, const char* detail)
    : times_(times), name_(name), start_(now_seconds()),
      span_(name, "bench", detail) {}

Probe::~Probe() { times_.add(name_, elapsed()); }

double Probe::elapsed() const { return now_seconds() - start_; }

namespace {

std::string layer_of(const char* name) {
  std::string s = name != nullptr ? name : "?";
  if (s.rfind("bench.", 0) == 0) s = s.substr(6);
  return s.substr(0, s.find('.'));
}

}  // namespace

std::string render_self_time_table() {
  const auto events = mivtx::trace::Tracer::global().snapshot();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& e : events)
    if (e.parent != 0) child_ns[e.parent] += e.dur_ns;
  struct Row {
    std::size_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const auto& e : events) {
    Row& r = rows[layer_of(e.name)];
    ++r.spans;
    r.total_s += static_cast<double>(e.dur_ns) * 1e-9;
    const auto it = child_ns.find(e.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    // Children on other threads can outlast their parent's own interval.
    r.self_s += static_cast<double>(std::max<std::int64_t>(
                    0, e.dur_ns - covered)) * 1e-9;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::ostringstream os;
  char line[128];
  std::snprintf(line, sizeof(line), "%-12s %8s %12s %12s\n", "layer",
                "spans", "total_s", "self_s");
  os << "self time by layer (traced pass, summed over threads):\n" << line;
  for (const auto& [layer, r] : sorted) {
    std::snprintf(line, sizeof(line), "%-12s %8zu %12.4f %12.4f\n",
                  layer.c_str(), r.spans, r.total_s, r.self_s);
    os << line;
  }
  std::snprintf(line, sizeof(line), "trace events %zu, dropped %zu\n",
                events.size(), mivtx::trace::Tracer::global().dropped_events());
  os << line;
  return os.str();
}

}  // namespace e2ebench
