// Fleet-scaling benchmark: the scatter-gather gateway path end to end
// (client TCP -> gateway parse -> scatter over N shard aalignd backends
// -> per-shard search -> merge -> response) against the single-process
// baseline, all in-process over loopback.
//
// For shard counts 1 / 2 / 4 at a fixed 8-client fan-out it reports
// request latency p50/p99 and throughput, plus the 0-shard row (one
// plain AlignService, no gateway) as the no-fleet baseline - the quantity
// of interest is how the p99 moves as the same database is split across
// more backend processes while the merge stays on one gateway.
//
// Dumps a schema "aalign.run" v2 document to BENCH_fleet.json
// (override the path with AALIGN_BENCH_JSON).
// Headline: fleet_p99_us_4shards (microseconds, lower is better).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/client.h"
#include "service/gateway.h"
#include "service/service.h"
#include "service/tcp.h"
#include "simd/isa.h"
#include "util/stopwatch.h"

using namespace aalign;
using namespace aalign::bench;

namespace {

struct Leg {
  std::size_t shards;  // 0 = plain single service, no gateway
  std::size_t requests;
  std::size_t ok;
  std::size_t incomplete;
  double p50_us;
  double p99_us;
  double wall_s;
  double rps;
};

// One fleet: N shard services over contiguous slices behind TcpServers,
// a Gateway over them, and the gateway itself behind a TcpServer - the
// same wire path aalign_fleet wires up from processes.
struct Fleet {
  std::vector<std::unique_ptr<service::AlignService>> services;
  std::vector<std::unique_ptr<service::TcpServer>> servers;
  std::unique_ptr<service::Gateway> gateway;
  std::unique_ptr<service::TcpServer> front;

  std::uint16_t port() const { return front->port(); }

  Fleet() = default;
  Fleet(Fleet&&) = default;

  ~Fleet() {
    if (front) {
      front->request_stop();
      front->join();
    }
    if (gateway) gateway->shutdown();
    for (auto& s : servers) {
      s->request_stop();
      s->join();
    }
  }
};

Fleet make_fleet(const score::ScoreMatrix& m, AlignConfig cfg,
                 const std::vector<seq::Sequence>& seqs, std::size_t shards) {
  Fleet fleet;
  service::GatewayOptions gopt;
  const std::size_t per = (seqs.size() + shards - 1) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t first = s * per;
    const std::size_t end = std::min(seqs.size(), first + per);
    seq::Database slice(
        m.alphabet(),
        std::vector<seq::Sequence>(seqs.begin() + static_cast<long>(first),
                                   seqs.begin() + static_cast<long>(end)));
    service::ServiceOptions sopt;
    sopt.search.threads = 2;
    sopt.executors = 2;
    sopt.global_index_map.resize(end - first);
    std::iota(sopt.global_index_map.begin(), sopt.global_index_map.end(),
              first);
    fleet.services.push_back(std::make_unique<service::AlignService>(
        m, cfg, std::move(slice), sopt));
    fleet.servers.push_back(
        std::make_unique<service::TcpServer>(*fleet.services.back()));
    fleet.servers.back()->start();
    gopt.backends.push_back("127.0.0.1:" +
                            std::to_string(fleet.servers.back()->port()));
  }
  fleet.gateway = std::make_unique<service::Gateway>(gopt);
  fleet.front = std::make_unique<service::TcpServer>(*fleet.gateway);
  fleet.front->start();
  return fleet;
}

Leg run_leg(std::uint16_t port, std::size_t shards,
            const std::vector<std::string>& query_pool,
            std::size_t per_client) {
  constexpr int kClients = 8;
  std::vector<std::vector<double>> lat_us(kClients);
  std::vector<std::size_t> ok(kClients, 0);
  std::vector<std::size_t> incomplete(kClients, 0);

  util::Stopwatch wall;
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      service::ServiceClient client("127.0.0.1", port);
      for (std::size_t r = 0; r < per_client; ++r) {
        service::WireRequest req;
        req.id = static_cast<std::int64_t>(c) * 1000 +
                 static_cast<std::int64_t>(r) + 1;
        req.queries = {query_pool[(static_cast<std::size_t>(c) + r) %
                                  query_pool.size()]};
        req.top_k = 10;
        req.deadline_ms = 30000;
        const auto t0 = std::chrono::steady_clock::now();
        const service::WireResponse resp = client.call(req);
        const auto dt = std::chrono::steady_clock::now() - t0;
        lat_us[static_cast<std::size_t>(c)].push_back(
            std::chrono::duration<double, std::micro>(dt).count());
        if (resp.ok) {
          ++ok[static_cast<std::size_t>(c)];
          if (resp.incomplete) ++incomplete[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_s = wall.seconds();

  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  Leg leg;
  leg.shards = shards;
  leg.requests = all.size();
  leg.ok = std::accumulate(ok.begin(), ok.end(), std::size_t{0});
  leg.incomplete =
      std::accumulate(incomplete.begin(), incomplete.end(), std::size_t{0});
  leg.p50_us = percentile(all, 0.50);
  leg.p99_us = percentile(all, 0.99);
  leg.wall_s = wall_s;
  leg.rps = wall_s > 0 ? static_cast<double>(leg.requests) / wall_s : 0.0;
  return leg;
}

}  // namespace

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  // Serving-regime database (bench_service's shape): many short
  // peptides, a few ms of kernel work per request, so the scatter +
  // merge overhead is visible rather than drowned by DP time.
  seq::SequenceGenerator gen(5151);
  const std::vector<seq::Sequence> seqs =
      gen.protein_database(scaled(1200), 60.0, 0.4, 10, 200);
  std::size_t residues = 0;
  for (const auto& s : seqs) residues += s.residues.size();

  std::vector<std::string> query_pool;
  for (std::size_t len : {50, 80, 110, 140, 80, 60}) {
    query_pool.push_back(gen.protein(len).residues);
  }
  const std::size_t per_client = quick_mode() ? 6 : 24;

  std::printf("fleet bench: db %zu subjects (%zu residues), 8 clients x "
              "%zu requests, shard counts 0(single)/1/2/4\n\n",
              seqs.size(), residues, per_client);
  std::printf("%-8s %9s %6s %11s %10s %9s %9s\n", "shards", "requests",
              "ok", "incomplete", "p50(us)", "p99(us)", "req/s");

  std::vector<Leg> legs;

  // Baseline: one plain AlignService, no gateway in the path.
  {
    service::ServiceOptions sopt;
    sopt.search.threads = 2;
    sopt.executors = 2;
    service::AlignService single(matrix, cfg,
                                 seq::Database(matrix.alphabet(), seqs), sopt);
    service::TcpServer server(single);
    server.start();
    legs.push_back(run_leg(server.port(), 0, query_pool, per_client));
    server.request_stop();
    server.join();
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    Fleet fleet = make_fleet(matrix, cfg, seqs, shards);
    legs.push_back(run_leg(fleet.port(), shards, query_pool, per_client));
  }

  for (const Leg& l : legs) {
    std::printf("%-8zu %9zu %6zu %11zu %10.0f %9.0f %9.1f\n", l.shards,
                l.requests, l.ok, l.incomplete, l.p50_us, l.p99_us, l.rps);
  }

  const Leg& four = legs.back();
  std::printf("\np99 at 4 shards: %.0f us (single-process baseline %.0f "
              "us)\n",
              four.p99_us, legs.front().p99_us);

  BenchReport report("bench_fleet");
  report.set_isa(simd::best_available_isa());
  report.set_threads(2);
  report.set_workload("db_sequences", seqs.size());
  report.set_workload("db_residues", residues);
  report.set_workload("clients", 8);
  report.set_workload("requests_per_client", per_client);
  report.set_headline("fleet_p99_us_4shards", four.p99_us);
  for (const Leg& l : legs) {
    obs::Json row = obs::Json::object();
    row.set("shards", l.shards);
    row.set("requests", l.requests);
    row.set("ok", l.ok);
    row.set("incomplete", l.incomplete);
    row.set("p50_us", l.p50_us);
    row.set("p99_us", l.p99_us);
    row.set("wall_seconds", l.wall_s);
    row.set("requests_per_second", l.rps);
    report.add_row("shards", std::move(row));
  }
  return report.write("BENCH_fleet.json") ? 0 : 1;
}
