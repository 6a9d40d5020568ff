// mivtx::serve: wire protocol, single-flight coalescing, admission
// control, drain semantics and end-to-end parity with the local flow.
//
// The end-to-end tests boot a real Server on an ephemeral loopback port
// and talk to it through real sockets.  Corners are deliberately tiny
// (grid_n 5, nm budget 10, polish stages off) so a cold device
// characterization takes seconds, not minutes — large enough that a herd
// of identical requests reliably assembles while the leader computes,
// small enough for the tier-1 gate.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "charlib/characterize.h"
#include "charlib/library.h"
#include "common/json.h"
#include "core/artifacts.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "runtime/metrics.h"
#include "serve/client.h"
#include "serve/coalesce.h"
#include "serve/server.h"
#include "temp_dir.h"

namespace mivtx {
namespace {

using namespace std::chrono_literals;

// The cheap cold corner every end-to-end test uses.
serve::Request tiny_request(serve::RequestKind kind) {
  serve::Request req;
  req.kind = kind;
  req.id = "t";
  req.grid.n_vg = req.grid.n_vd = req.grid.n_cv = 5;
  req.extraction.nm.max_evaluations = 10;
  req.extraction.run_lm_polish = false;
  req.extraction.run_ieff_retarget = false;
  return req;
}

// Poll the server's health endpoint until `pred(meta)` holds.
template <typename Pred>
bool wait_for_health(int port, Pred pred, std::chrono::seconds budget = 30s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  serve::Request health;
  health.kind = serve::RequestKind::kHealth;
  health.id = "h";
  while (std::chrono::steady_clock::now() < deadline) {
    serve::Client probe("127.0.0.1", port);
    const serve::Response resp = probe.call(health);
    if (resp.ok() && pred(Json::parse(resp.meta_json))) return true;
    std::this_thread::sleep_for(20ms);
  }
  return false;
}

double health_number(const Json& meta, const std::string& key) {
  const Json* v = meta.find(key);
  return v == nullptr ? -1.0 : v->as_number();
}

TEST(ServeProtocol, RequestRoundTripIsExact) {
  serve::Request req = tiny_request(serve::RequestKind::kExtract);
  req.id = "abc-1";
  req.variant = tcad::Variant::kMiv2Channel;
  req.polarity = tcad::Polarity::kPmos;
  req.process.vdd = 0.9;
  req.grid.vdd = 0.9;

  const std::string line = req.to_json_line();
  const serve::Request back = serve::Request::from_json_line(line);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.variant, req.variant);
  EXPECT_EQ(back.polarity, req.polarity);
  EXPECT_EQ(back.process.vdd, req.process.vdd);
  EXPECT_EQ(back.grid.vdd, req.grid.vdd);
  EXPECT_EQ(back.grid.n_vg, req.grid.n_vg);
  EXPECT_EQ(back.extraction.nm.max_evaluations,
            req.extraction.nm.max_evaluations);
  EXPECT_EQ(back.extraction.run_lm_polish, req.extraction.run_lm_polish);
  // Canonical line is stable under a round trip.
  EXPECT_EQ(back.to_json_line(), line);
}

TEST(ServeProtocol, CharlibRequestRoundTrip) {
  serve::Request req;
  req.kind = serve::RequestKind::kCharlib;
  req.id = "c1";
  req.cell = cells::CellType::kNand2;
  req.impl = cells::Implementation::kMiv4Channel;
  req.char_grid = "mini";
  req.process.vdd = 0.9;
  req.grid.vdd = 0.9;

  const std::string line = req.to_json_line();
  const serve::Request back = serve::Request::from_json_line(line);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.cell, req.cell);
  EXPECT_EQ(back.impl, req.impl);
  EXPECT_EQ(back.char_grid, req.char_grid);
  EXPECT_EQ(back.process.vdd, req.process.vdd);
  EXPECT_EQ(back.to_json_line(), line);

  // The default preset is elided from the wire line, like every other
  // nominal-corner field.
  req.char_grid = "default";
  EXPECT_EQ(req.to_json_line().find("char_grid"), std::string::npos);
  EXPECT_THROW(serve::Request::from_json_line(
                   R"({"kind":"charlib","char_grid":"huge"})"),
               Error);
}

TEST(ServeProtocol, UnknownFieldsAndTokensAreErrors) {
  EXPECT_THROW(serve::Request::from_json_line(
                   R"({"kind":"flow","gird_n":5})"),
               Error);  // typo'd field must not silently serve a corner
  EXPECT_THROW(serve::Request::from_json_line(R"({"kind":"warp"})"), Error);
  EXPECT_THROW(serve::Request::from_json_line(R"({"id":"x"})"), Error);
  EXPECT_THROW(serve::Request::from_json_line("not json"), Error);
  EXPECT_THROW(serve::Request::from_json_line(
                   R"({"kind":"ppa","cell":"FLUXCAP"})"),
               Error);
  EXPECT_THROW(serve::Request::from_json_line(
                   R"({"kind":"flow","grid_n":3})"),
               Error);
}

TEST(ServeProtocol, ResponseRoundTripIsExact) {
  serve::Response resp;
  resp.id = "r7";
  resp.status = serve::ResponseStatus::kQueueFull;
  resp.kind = "flow";
  resp.error = "admission queue full (64); back off and retry";
  resp.source = "computed";
  resp.payload = ".model nmos_trad ...\n";
  resp.elapsed_s = 1.25;
  resp.queue_s = 0.5;
  resp.span_id = 42;
  resp.meta_json = R"({"cards":8})";

  const serve::Response back =
      serve::Response::from_json_line(resp.to_json_line());
  EXPECT_EQ(back.id, resp.id);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.kind, resp.kind);
  EXPECT_EQ(back.error, resp.error);
  EXPECT_EQ(back.source, resp.source);
  EXPECT_EQ(back.payload, resp.payload);
  EXPECT_EQ(back.elapsed_s, resp.elapsed_s);
  EXPECT_EQ(back.queue_s, resp.queue_s);
  EXPECT_EQ(back.span_id, resp.span_id);
  EXPECT_EQ(back.meta_json, resp.meta_json);
  EXPECT_FALSE(back.ok());
}

TEST(ServeProtocol, DigestIgnoresIdAndTracksCorner) {
  serve::Request a = tiny_request(serve::RequestKind::kFlow);
  serve::Request b = a;
  b.id = "completely-different";
  EXPECT_EQ(serve::Service::request_digest(a),
            serve::Service::request_digest(b));

  serve::Request c = a;
  c.process.vdd = 0.95;
  EXPECT_NE(serve::Service::request_digest(a),
            serve::Service::request_digest(c));
  serve::Request d = a;
  d.kind = serve::RequestKind::kCurves;
  EXPECT_NE(serve::Service::request_digest(a),
            serve::Service::request_digest(d));
}

TEST(ServeCoalescer, HerdOfEightComputesOnce) {
  serve::Coalescer co;
  std::atomic<int> computes{0};
  std::atomic<int> leaders{0};

  const auto compute = [&]() -> serve::Coalescer::Result {
    ++computes;
    // Hold the flight open until the whole herd has joined, so the
    // 1-computation assertion is deterministic, not a race we usually win.
    for (int i = 0; i < 5000 && co.waiters("k") < 7; ++i)
      std::this_thread::sleep_for(1ms);
    EXPECT_EQ(co.waiters("k"), 7u);
    serve::Coalescer::Result r;
    r.ok = true;
    r.payload = "artifact-bytes";
    return r;
  };

  std::vector<std::thread> herd;
  for (int i = 0; i < 8; ++i) {
    herd.emplace_back([&] {
      const auto [result, led] = co.run("k", compute);
      if (led) ++leaders;
      EXPECT_TRUE(result->ok);
      EXPECT_EQ(result->payload, "artifact-bytes");
    });
  }
  for (std::thread& t : herd) t.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(co.inflight(), 0u);
  EXPECT_EQ(co.waiters("k"), 0u);
}

TEST(ServeCoalescer, FailuresCoalesceAndFlightsClose) {
  serve::Coalescer co;
  const auto [failed, led] = co.run("k", []() -> serve::Coalescer::Result {
    throw Error("corner exploded");
  });
  EXPECT_TRUE(led);
  EXPECT_FALSE(failed->ok);
  EXPECT_NE(failed->error.find("corner exploded"), std::string::npos);

  // The failed flight is closed: the next identical request recomputes.
  const auto [second, led2] = co.run("k", []() {
    serve::Coalescer::Result r;
    r.ok = true;
    r.payload = "fine now";
    return r;
  });
  EXPECT_TRUE(led2);
  EXPECT_TRUE(second->ok);
}

TEST(ServeServer, HealthMetricsAndHttpProbes) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  serve::Server server(opts);
  server.start();

  serve::Client client("127.0.0.1", server.port());
  serve::Request health;
  health.kind = serve::RequestKind::kHealth;
  health.id = "h1";
  const serve::Response hr = client.call(health);
  ASSERT_TRUE(hr.ok());
  const Json meta = Json::parse(hr.meta_json);
  EXPECT_EQ(meta.find("status")->as_string(), "ok");
  EXPECT_EQ(health_number(meta, "queue_depth"), 0.0);
  ASSERT_NE(meta.find("cache"), nullptr);

  serve::Request metrics;
  metrics.kind = serve::RequestKind::kMetrics;
  metrics.id = "m1";
  const serve::Response mr = client.call(metrics);
  ASSERT_TRUE(mr.ok());
  EXPECT_TRUE(Json::parse(mr.meta_json).is_object());

  // HTTP compatibility: GET /healthz answers JSON and closes.
  serve::Socket http = serve::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(http.write_all("GET /healthz HTTP/1.1\r\n\r\n"));
  serve::LineReader reader(http.fd());
  const auto status_line = reader.read_line();
  ASSERT_TRUE(status_line.has_value());
  EXPECT_EQ(*status_line, "HTTP/1.1 200 OK");
  bool saw_body = false;
  while (const auto line = reader.read_line()) {
    if (!line->empty() && (*line)[0] == '{') {
      EXPECT_TRUE(Json::parse(*line).is_object());
      saw_body = true;
    }
  }
  EXPECT_TRUE(saw_body);

  serve::Socket missing = serve::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(missing.write_all("GET /nope HTTP/1.1\r\n\r\n"));
  serve::LineReader reader404(missing.fd());
  const auto status404 = reader404.read_line();
  ASSERT_TRUE(status404.has_value());
  EXPECT_EQ(*status404, "HTTP/1.1 404 Not Found");

  // Malformed JSON is a typed error response, not a dropped connection.
  serve::Socket bad = serve::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(bad.write_all("{\"kind\":\"flow\",\"gird_n\":5}\n"));
  serve::LineReader bad_reader(bad.fd());
  const auto bad_line = bad_reader.read_line();
  ASSERT_TRUE(bad_line.has_value());
  const serve::Response bad_resp = serve::Response::from_json_line(*bad_line);
  EXPECT_EQ(bad_resp.status, serve::ResponseStatus::kError);
  EXPECT_NE(bad_resp.error.find("gird_n"), std::string::npos);

  server.begin_shutdown();
  server.wait();
}

// The acceptance scenario: a herd of identical concurrent cold requests
// triggers exactly one computation, every response carries identical
// bytes, and those bytes match what the local flow units produce.
TEST(ServeServer, ColdHerdCoalescesAndMatchesLocalFlow) {
  const testutil::ScopedTempDir cache_dir("mivtx_serve_herd");
  runtime::Metrics::global().reset();

  serve::ServerOptions opts;
  opts.port = 0;
  opts.workers = 8;
  opts.service.jobs = 1;
  opts.service.cache.disk_dir = cache_dir.str();
  serve::Server server(opts);
  server.start();

  const serve::Request req = tiny_request(serve::RequestKind::kFlow);
  constexpr int kHerd = 8;
  std::vector<serve::Response> responses(kHerd);
  std::vector<std::thread> clients;
  for (int i = 0; i < kHerd; ++i) {
    clients.emplace_back([&, i] {
      serve::Client client("127.0.0.1", server.port());
      serve::Request mine = req;
      mine.id = "herd-" + std::to_string(i);
      responses[i] = client.call(mine);
    });
  }
  for (std::thread& t : clients) t.join();

  int computed = 0, coalesced = 0;
  for (int i = 0; i < kHerd; ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].error;
    EXPECT_EQ(responses[i].id, "herd-" + std::to_string(i));
    EXPECT_EQ(responses[i].payload, responses[0].payload);
    if (responses[i].source == "computed") ++computed;
    if (responses[i].source == "coalesced") ++coalesced;
  }
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(coalesced, kHerd - 1);
  EXPECT_EQ(runtime::Metrics::global().counter_total("serve.computed"), 1.0);
  EXPECT_EQ(runtime::Metrics::global().counter_total("serve.coalesced"),
            static_cast<double>(kHerd - 1));
  // The request latency histogram saw the whole herd.
  EXPECT_EQ(runtime::Metrics::global().histogram("serve.latency").count,
            static_cast<std::uint64_t>(kHerd));

  // A warm repeat is served from the cache, dramatically faster than the
  // cold computation (the CI smoke asserts the >= 10x version of this).
  serve::Client warm_client("127.0.0.1", server.port());
  serve::Request warm = req;
  warm.id = "warm";
  const serve::Response warm_resp = warm_client.call(warm);
  ASSERT_TRUE(warm_resp.ok());
  EXPECT_EQ(warm_resp.payload, responses[0].payload);
  EXPECT_LT(warm_resp.elapsed_s, responses[0].elapsed_s);

  server.begin_shutdown();
  server.wait();

  // Local ground truth over the same (now warm) artifact store: artifact
  // round-trips are exact (test_runtime.cpp), so this equals a cold local
  // run — byte for byte.
  runtime::ArtifactCache::Options copts;
  copts.disk_dir = cache_dir.str();
  runtime::ArtifactCache cache(copts);
  core::FlowOptions fo;
  fo.jobs = 1;
  fo.cache = &cache;
  const core::FlowResult local =
      core::run_full_flow(req.process, req.grid, req.extraction, fo);
  EXPECT_EQ(local.library.to_text(), responses[0].payload);
}

TEST(ServeServer, PpaMatchesLocalEngineExactly) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  serve::Server server(opts);
  server.start();

  serve::Request req;
  req.kind = serve::RequestKind::kPpa;
  req.id = "ppa";
  req.cell = cells::CellType::kNand2;
  req.impl = cells::Implementation::kMiv2Channel;
  req.reference_library = true;

  serve::Client client("127.0.0.1", server.port());
  const serve::Response resp = client.call(req);
  ASSERT_TRUE(resp.ok()) << resp.error;

  core::PpaEngine engine(core::reference_model_library());
  const core::CellPpa local =
      engine.measure(cells::CellType::kNand2,
                     cells::Implementation::kMiv2Channel);
  EXPECT_EQ(core::serialize_cell_ppa(local), resp.payload);

  server.begin_shutdown();
  server.wait();
}

// The charlib kind serves one cell's NLDM entry as .mlib text: the payload
// parses back into a one-cell library on the requested grid, and a warm
// repeat returns identical bytes from the artifact cache.
TEST(ServeServer, CharlibServesOneLibraryEntry) {
  const testutil::ScopedTempDir cache_dir("mivtx_serve_charlib");
  serve::ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.service.cache.disk_dir = cache_dir.str();
  serve::Server server(opts);
  server.start();

  serve::Request req = tiny_request(serve::RequestKind::kCharlib);
  req.id = "cl";
  req.cell = cells::CellType::kInv1;
  req.impl = cells::Implementation::kMiv1Channel;
  req.char_grid = "mini";

  serve::Client client("127.0.0.1", server.port());
  const serve::Response resp = client.call(req);
  ASSERT_TRUE(resp.ok()) << resp.error;

  const charlib::CharLibrary lib =
      charlib::CharLibrary::from_text(resp.payload);
  EXPECT_EQ(lib.slew_axis, charlib::mini_char_grid().slews);
  EXPECT_EQ(lib.load_axis, charlib::mini_char_grid().loads);
  const charlib::CellChar* entry =
      lib.find(cells::Implementation::kMiv1Channel, cells::CellType::kInv1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->arcs.size(), 2u);  // one pin, rise + fall input arcs
  EXPECT_GT(entry->area, 0.0);
  const Json meta = Json::parse(resp.meta_json);
  ASSERT_NE(meta.find("arcs"), nullptr);
  EXPECT_EQ(meta.find("arcs")->as_number(), 2.0);

  serve::Request again = req;
  again.id = "cl2";
  const serve::Response warm = client.call(again);
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.payload, resp.payload);

  server.begin_shutdown();
  server.wait();
}

TEST(ServeServer, QueueFullIsATypedResponse) {
  runtime::Metrics::global().reset();
  serve::ServerOptions opts;
  opts.port = 0;
  opts.workers = 1;
  opts.queue_capacity = 1;
  serve::Server server(opts);
  server.start();

  const serve::Request cold = tiny_request(serve::RequestKind::kCurves);

  // A: occupies the only worker (cold characterization, seconds).
  serve::Client a("127.0.0.1", server.port());
  serve::Request ra = cold;
  ra.id = "A";
  a.send(ra);
  ASSERT_TRUE(wait_for_health(server.port(), [](const Json& meta) {
    return health_number(meta, "active") == 1.0;
  }));

  // B: fills the queue (capacity 1).
  serve::Client b("127.0.0.1", server.port());
  serve::Request rb = cold;
  rb.id = "B";
  b.send(rb);
  ASSERT_TRUE(wait_for_health(server.port(), [](const Json& meta) {
    return health_number(meta, "queue_depth") == 1.0;
  }));

  // C: must bounce immediately with the typed backpressure status.
  serve::Client c("127.0.0.1", server.port());
  serve::Request rc = cold;
  rc.id = "C";
  const serve::Response bounced = c.call(rc);
  EXPECT_EQ(bounced.status, serve::ResponseStatus::kQueueFull);
  EXPECT_EQ(bounced.id, "C");
  EXPECT_NE(bounced.error.find("back off"), std::string::npos);
  EXPECT_EQ(
      runtime::Metrics::global().counter_total("serve.rejected.queue_full"),
      1.0);

  // The admitted requests still complete normally.
  const auto resp_a = a.read();
  ASSERT_TRUE(resp_a.has_value());
  EXPECT_TRUE(resp_a->ok()) << resp_a->error;
  const auto resp_b = b.read();
  ASSERT_TRUE(resp_b.has_value());
  EXPECT_TRUE(resp_b->ok()) << resp_b->error;
  EXPECT_EQ(resp_a->payload, resp_b->payload);

  server.begin_shutdown();
  server.wait();
}

TEST(ServeServer, DrainCompletesAdmittedWorkAndRejectsNew) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.workers = 1;
  serve::Server server(opts);
  server.start();

  const serve::Request cold = tiny_request(serve::RequestKind::kCurves);

  // A occupies the worker; B is admitted behind it.
  serve::Client a("127.0.0.1", server.port());
  serve::Request ra = cold;
  ra.id = "A";
  a.send(ra);
  ASSERT_TRUE(wait_for_health(server.port(), [](const Json& meta) {
    return health_number(meta, "active") == 1.0;
  }));
  serve::Client b("127.0.0.1", server.port());
  serve::Request rb = cold;
  rb.id = "B";
  b.send(rb);
  ASSERT_TRUE(wait_for_health(server.port(), [](const Json& meta) {
    return health_number(meta, "queue_depth") == 1.0;
  }));

  // Connect the late client now — once the drain starts the listener is
  // shut down, so only an already-open connection can observe "draining".
  serve::Client late("127.0.0.1", server.port());

  // Drain starts while A is mid-computation...
  serve::Client stopper("127.0.0.1", server.port());
  serve::Request stop;
  stop.kind = serve::RequestKind::kShutdown;
  stop.id = "stop";
  EXPECT_TRUE(stopper.call(stop).ok());
  EXPECT_TRUE(server.draining());

  // ...so a new compute request gets the typed draining status (the drain
  // cannot finish while A holds the worker).
  serve::Request rl = cold;
  rl.id = "late";
  const serve::Response rejected = late.call(rl);
  EXPECT_EQ(rejected.status, serve::ResponseStatus::kDraining);

  // No admitted work is lost: both A and B complete and flush.
  const auto resp_a = a.read();
  ASSERT_TRUE(resp_a.has_value());
  EXPECT_TRUE(resp_a->ok()) << resp_a->error;
  const auto resp_b = b.read();
  ASSERT_TRUE(resp_b.has_value());
  EXPECT_TRUE(resp_b->ok()) << resp_b->error;

  server.wait();
}

}  // namespace
}  // namespace mivtx
