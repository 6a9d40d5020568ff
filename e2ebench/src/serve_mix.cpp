// serve_mix: the characterization daemon under a closed loop.  Each pass
// starts an in-process serve::Server on a loopback ephemeral port (4
// workers, a fresh on-disk cache directory) and drives it with 4
// serve::Client connections, each sending its seeded stream of `ppa`
// requests on the reference cards one at a time.
//
// Keys: 14 cells x 4 impls x 5 vdd corners.  Each pass requests every key
// once plus 920 draws from Zipf(1) over a seeded ranking, in seeded order.
// First-seen keys compute and store, repeated keys read the cache,
// concurrent duplicates coalesce.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>

#include "common/strings.h"
#include "core/artifacts.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "workload.h"

namespace e2ebench {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kRequestsPerClient = 300;
constexpr double kZipfExponent = 1.0;
constexpr double kVddCorners[] = {0.9, 0.95, 1.0, 1.05, 1.1};
constexpr std::size_t kNumVdd = std::size(kVddCorners);

struct Key {
  mivtx::cells::CellType cell;
  mivtx::cells::Implementation impl;
  double vdd;
};

std::size_t num_keys() {
  return mivtx::cells::all_cells().size() *
         mivtx::cells::all_implementations().size() * kNumVdd;
}

Key key_at(std::size_t k) {
  const auto& impls = mivtx::cells::all_implementations();
  return {mivtx::cells::all_cells()[k / (impls.size() * kNumVdd)],
          impls[(k / kNumVdd) % impls.size()], kVddCorners[k % kNumVdd]};
}

std::string key_name(std::size_t k) {
  const Key key = key_at(k);
  return mivtx::format("%s/%s@%.2f", mivtx::cells::cell_name(key.cell),
                       mivtx::cells::impl_name(key.impl), key.vdd);
}

// What one request saw, client side.
struct Sample {
  bool ok = false;
  bool first = false;      // first request for its key in this pass
  bool coalesced = false;
  double latency_s = 0.0;  // client round trip
  double queue_s = 0.0;
  double service_s = 0.0;
};

class ServeMix : public Workload {
 public:
  explicit ServeMix(const WorkloadConfig& config) : cfg_(config) {}

  const char* name() const override { return "serve_mix"; }

  void setup() override {
    mivtx::Rng rng(cfg_.seed);
    std::vector<std::size_t> ranking(num_keys());
    for (std::size_t k = 0; k < ranking.size(); ++k) ranking[k] = k;
    shuffle(ranking, rng);
    std::vector<double> cumulative;
    double total = 0.0;
    for (std::size_t r = 0; r < ranking.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cumulative.push_back(total);
    }
    // Every key once (so each seed computes the same 280 keys), the rest
    // Zipf draws; shuffled together and dealt round-robin to the clients.
    std::vector<std::size_t> requests = ranking;
    while (requests.size() < kClients * kRequestsPerClient) {
      const double u = rng.uniform() * total;
      const auto it =
          std::upper_bound(cumulative.begin(), cumulative.end(), u);
      requests.push_back(ranking[std::min<std::size_t>(
          static_cast<std::size_t>(it - cumulative.begin()),
          ranking.size() - 1)]);
    }
    shuffle(requests, rng);
    streams_.assign(kClients, {});
    for (std::size_t i = 0; i < requests.size(); ++i)
      streams_[i % kClients].push_back(requests[i]);
    warm_up_ppa(mivtx::core::reference_model_library());
  }

  void describe_inputs(std::ostream& out) const override {
    std::map<std::size_t, std::size_t> counts;
    std::size_t total = 0;
    for (const auto& stream : streams_)
      for (const std::size_t k : stream) {
        ++counts[k];
        ++total;
      }
    std::size_t top = 0;
    for (const auto& [k, c] : counts) top = std::max(top, c);
    out << mivtx::format(
        "inputs: %zu clients x %zu ppa requests = %zu, %zu unique keys of "
        "%zu, repeat_share %.4f, hottest key %.4f of requests\n",
        kClients, kRequestsPerClient, total, counts.size(), num_keys(),
        1.0 - static_cast<double>(counts.size()) / static_cast<double>(total),
        static_cast<double>(top) / static_cast<double>(total));
  }

  std::size_t planned_latency_ops() const override {
    return kClients * kRequestsPerClient;
  }

  void run_pass(bool traced, PassResult& out) override {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(cfg_.work_dir) / mivtx::format("serve_cache_%zu", ++passes_);
    fs::remove_all(dir);
    mivtx::serve::ServerOptions sopts;
    sopts.workers = kWorkers;
    sopts.service.jobs = 1;
    sopts.service.cache.disk_dir = dir.string();
    std::vector<std::vector<Sample>> samples(kClients);
    std::vector<bool> seen(num_keys(), false);
    std::mutex seen_m;
    payloads_.clear();
    divergent_.clear();
    {
      mivtx::serve::Server server(sopts);
      server.start();
      const Stopwatch watch;
      run_tasks(kClients, kClients, [&](std::size_t c) {
        run_client(c, server.port(), seen, seen_m, samples[c], out);
      });
      watch.stop(out);
      cache_stats_ = server.service().cache().stats();
      server.begin_shutdown();
      server.wait();
    }
    fs::remove_all(dir);
    if (traced) add_layer_metrics(samples, out);
  }

  std::vector<std::string> check() override {
    // Every distinct served payload against a local measure of its key.
    std::vector<std::size_t> keys;
    for (const auto& [k, payload] : payloads_) keys.push_back(k);
    std::vector<std::string> mismatch(keys.size());
    run_tasks(cfg_.threads, keys.size(), [&](std::size_t i) {
      const Key key = key_at(keys[i]);
      mivtx::core::PpaOptions popts;
      popts.vdd = key.vdd;
      const mivtx::core::PpaEngine engine(
          mivtx::core::reference_model_library(), popts);
      try {
        const std::string local = mivtx::core::serialize_cell_ppa(
            engine.measure(key.cell, key.impl));
        if (local != payloads_.at(keys[i]))
          mismatch[i] = key_name(keys[i]) +
                        ": served payload differs from a local "
                        "PpaEngine::measure";
      } catch (const std::exception& e) {
        mismatch[i] = key_name(keys[i]) + ": local PpaEngine::measure threw: " +
                      first_line(e.what());
      }
    });
    std::vector<std::string> failures = divergent_;
    for (std::string& m : mismatch)
      if (!m.empty()) failures.push_back(std::move(m));
    if (payloads_.empty()) failures.push_back("no payload was served");
    return failures;
  }

 private:
  void run_client(std::size_t c, int port, std::vector<bool>& seen,
                  std::mutex& seen_m, std::vector<Sample>& samples,
                  PassResult& out) {
    const std::vector<std::size_t>& stream = streams_[c];
    std::size_t sent = 0;
    try {
      mivtx::serve::Client client("127.0.0.1", port);
      for (; sent < stream.size(); ++sent) {
        const std::size_t k = stream[sent];
        const Key key = key_at(k);
        mivtx::serve::Request req;
        req.id = mivtx::format("c%zu-%zu", c, sent);
        req.kind = mivtx::serve::RequestKind::kPpa;
        req.cell = key.cell;
        req.impl = key.impl;
        req.reference_library = true;
        req.process.vdd = key.vdd;
        Sample s;
        {
          const std::lock_guard<std::mutex> lock(seen_m);
          s.first = !seen[k];
          seen[k] = true;
        }
        Probe op(out.layers, "bench.op.request", req.id.c_str());
        mivtx::serve::Response resp;
        {
          Probe probe(out.layers, "bench.serve.call", req.id.c_str());
          resp = client.call(req);
        }
        s.latency_s = op.elapsed();
        s.queue_s = resp.queue_s;
        s.service_s = resp.elapsed_s;
        s.coalesced = resp.source == "coalesced";
        record(k, resp, s, out);
        samples.push_back(s);
      }
    } catch (const std::exception& e) {
      for (; sent < stream.size(); ++sent)
        out.ops.fail(FailureKind::kException, key_name(stream[sent]),
                     first_line(e.what()));
    }
  }

  void record(std::size_t k, const mivtx::serve::Response& resp, Sample& s,
              PassResult& out) {
    using mivtx::serve::ResponseStatus;
    const std::string op = "ppa " + key_name(k);
    switch (resp.status) {
      case ResponseStatus::kOk: break;
      case ResponseStatus::kError:
        out.ops.fail(FailureKind::kServeError, op, resp.error);
        return;
      case ResponseStatus::kQueueFull:
        out.ops.fail(FailureKind::kServeQueueFull, op, resp.error);
        return;
      case ResponseStatus::kDraining:
        out.ops.fail(FailureKind::kServeDraining, op, resp.error);
        return;
    }
    if (!mivtx::core::parse_cell_ppa(resp.payload).ok) {
      out.ops.fail(FailureKind::kPpaNotOk, op, "served CellPpa::ok false");
      return;
    }
    s.ok = true;
    out.ops.ok(s.latency_s);
    const std::lock_guard<std::mutex> lock(m_);
    const auto [it, inserted] = payloads_.emplace(k, resp.payload);
    if (!inserted && it->second != resp.payload)
      divergent_.push_back(key_name(k) + ": two different payloads served");
  }

  void add_layer_metrics(const std::vector<std::vector<Sample>>& samples,
                         PassResult& out) {
    std::vector<double> queue, first, repeat, transport;
    std::size_t total = 0, repeats = 0, coalesced = 0, computed = 0;
    double service_sum = 0.0;
    for (const auto& client : samples)
      for (const Sample& s : client) {
        ++total;
        repeats += s.first ? 0 : 1;
        if (!s.ok) continue;
        (s.coalesced ? coalesced : computed) += 1;
        queue.push_back(s.queue_s);
        (s.first ? first : repeat).push_back(s.service_s);
        transport.push_back(
            std::max(0.0, s.latency_s - s.queue_s - s.service_s));
        service_sum += s.service_s;
      }
    const auto ms = [](const std::vector<double>& v, double p) {
      return v.empty() ? 0.0 : 1e3 * percentile(v, p);
    };
    MetricSet& m = out.layer_metrics;
    m.add("serve.queue_wait_p50_ms", "ms", ms(queue, 50));
    m.add("serve.queue_wait_p99_ms", "ms", ms(queue, 99));
    m.add("serve.service_first_p50_ms", "ms", ms(first, 50));
    m.add("serve.service_repeat_p50_ms", "ms", ms(repeat, 50));
    m.add("serve.transport_p50_ms", "ms", ms(transport, 50));
    m.add("serve.computed", "count", static_cast<double>(computed));
    m.add("serve.coalesced", "count", static_cast<double>(coalesced));
    m.add("serve.repeat_share", "ratio",
          total == 0 ? 0.0
                     : static_cast<double>(repeats) /
                           static_cast<double>(total));
    add_spice_counters(m);
    add_cache_stats(m, cache_stats_);
    const double capacity = out.wall_s * static_cast<double>(kWorkers);
    m.add("pool.busy_share", "ratio",
          capacity > 0.0 ? service_sum / capacity : 0.0);
  }

  WorkloadConfig cfg_;
  std::vector<std::vector<std::size_t>> streams_;     // key index per request
  std::size_t passes_ = 0;

  // Outputs of the last pass.
  mivtx::runtime::CacheStats cache_stats_;
  std::mutex m_;  // guards payloads_ and divergent_
  std::map<std::size_t, std::string> payloads_;
  std::vector<std::string> divergent_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const WorkloadConfig& config) {
  return std::make_unique<ServeMix>(config);
}

}  // namespace e2ebench
