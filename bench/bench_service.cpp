// Service-path benchmark: aalignd's full request path (TCP loopback ->
// newline-JSON parse -> bounded queue -> BatchScheduler executor -> JSON
// response) under concurrent client fan-out.
//
// For 1 / 8 / 64 concurrent clients it reports request latency p50/p99,
// throughput, and the shed rate the admission-control layer produces
// when the offered load exceeds the bounded queue (docs/service.md). The
// queue is kept deliberately small so the 64-client leg actually
// exercises oldest-deadline-first shedding rather than just queueing
// everything.
//
// Dumps a schema "aalign.run" v2 document to BENCH_service.json
// (override the path with AALIGN_BENCH_JSON).
// Headline: service_p99_us_8_clients (microseconds, lower is better).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/client.h"
#include "service/service.h"
#include "service/tcp.h"
#include "simd/isa.h"
#include "util/stopwatch.h"

using namespace aalign;
using namespace aalign::bench;

namespace {

struct Leg {
  int clients;
  std::size_t requests;
  std::size_t ok;
  std::size_t shed;
  std::size_t deadline;
  double p50_us;
  double p99_us;
  double wall_s;
  double rps;
};

}  // namespace

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  // Serving-regime database: many short peptides, so each request is a
  // few milliseconds of kernel work and queueing behaviour dominates at
  // high fan-out (the regime admission control exists for).
  seq::SequenceGenerator gen(4242);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(scaled(1500), 60.0, 0.4, 10, 200));
  const std::size_t db_size = db.size();
  const std::size_t db_residues = db.total_residues();

  service::ServiceOptions sopt;
  sopt.search.threads = 4;
  sopt.queue_capacity = 8;  // small on purpose: the 64-client leg must shed
  sopt.executors = 2;
  service::AlignService svc(matrix, cfg, std::move(db), sopt);

  service::TcpServer server(svc);  // 127.0.0.1, ephemeral port
  server.start();
  const std::uint16_t port = server.port();

  // A fixed pool of query strings (repeats included, like a real stream);
  // clients round-robin through it so every leg sees the same work mix.
  std::vector<std::string> query_pool;
  for (std::size_t len : {50, 80, 110, 140, 80, 60}) {
    query_pool.push_back(gen.protein(len).residues);
  }

  const std::size_t per_client = quick_mode() ? 6 : 24;
  std::printf("service bench: db %zu subjects (%zu residues), "
              "queue capacity %zu, %d executors x %d threads, port %u\n\n",
              db_size, db_residues, sopt.queue_capacity, sopt.executors,
              sopt.search.threads, static_cast<unsigned>(port));
  std::printf("%-8s %9s %6s %6s %9s %10s %9s %9s\n", "clients",
              "requests", "ok", "shed", "deadline", "p50(us)", "p99(us)",
              "req/s");

  std::vector<Leg> legs;
  for (int clients : {1, 8, 64}) {
    std::vector<std::vector<double>> lat_us(
        static_cast<std::size_t>(clients));
    std::vector<std::size_t> ok(static_cast<std::size_t>(clients), 0);
    std::vector<std::size_t> shed(static_cast<std::size_t>(clients), 0);
    std::vector<std::size_t> deadline(static_cast<std::size_t>(clients), 0);

    util::Stopwatch wall;
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        service::ServiceClient client("127.0.0.1", port);
        for (std::size_t r = 0; r < per_client; ++r) {
          service::WireRequest req;
          req.id = static_cast<std::int64_t>(c) * 1000 +
                   static_cast<std::int64_t>(r) + 1;
          req.queries = {query_pool[(static_cast<std::size_t>(c) + r) %
                                    query_pool.size()]};
          req.top_k = 5;
          req.deadline_ms = 10000;  // generous: sheds come from the queue
          const auto t0 = std::chrono::steady_clock::now();
          const service::WireResponse resp = client.call(req);
          const auto dt = std::chrono::steady_clock::now() - t0;
          lat_us[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double, std::micro>(dt).count());
          if (resp.ok) {
            ++ok[static_cast<std::size_t>(c)];
          } else if (resp.error == service::ErrorCode::Overloaded) {
            ++shed[static_cast<std::size_t>(c)];
          } else if (resp.error == service::ErrorCode::DeadlineExceeded) {
            ++deadline[static_cast<std::size_t>(c)];
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
    leg.clients = clients;
    leg.requests = all.size();
    leg.ok = 0;
    leg.shed = 0;
    leg.deadline = 0;
    for (int c = 0; c < clients; ++c) {
      leg.ok += ok[static_cast<std::size_t>(c)];
      leg.shed += shed[static_cast<std::size_t>(c)];
      leg.deadline += deadline[static_cast<std::size_t>(c)];
    }
    leg.p50_us = percentile(all, 0.50);
    leg.p99_us = percentile(all, 0.99);
    leg.wall_s = wall_s;
    leg.rps = wall_s > 0 ? static_cast<double>(leg.requests) / wall_s : 0.0;
    legs.push_back(leg);

    std::printf("%-8d %9zu %6zu %6zu %9zu %10.0f %9.0f %9.1f\n",
                leg.clients, leg.requests, leg.ok, leg.shed, leg.deadline,
                leg.p50_us, leg.p99_us, leg.rps);
  }

  server.request_stop();
  server.join();
  svc.shutdown();

  const Leg& mid = legs[1];  // 8 clients: loaded but not shedding-dominated
  std::printf("\np99 at %d clients: %.0f us (shed rate %.1f%% at %d "
              "clients)\n",
              mid.clients, mid.p99_us,
              legs.back().requests > 0
                  ? 100.0 * static_cast<double>(legs.back().shed) /
                        static_cast<double>(legs.back().requests)
                  : 0.0,
              legs.back().clients);

  BenchReport report("bench_service");
  report.set_isa(simd::best_available_isa());
  report.set_threads(sopt.search.threads);
  report.set_workload("db_sequences", db_size);
  report.set_workload("db_residues", db_residues);
  report.set_workload("queue_capacity", sopt.queue_capacity);
  report.set_workload("executors", sopt.executors);
  report.set_workload("requests_per_client", per_client);
  report.set_headline("service_p99_us_8_clients", mid.p99_us);
  for (const Leg& l : legs) {
    obs::Json row = obs::Json::object();
    row.set("clients", l.clients);
    row.set("requests", l.requests);
    row.set("ok", l.ok);
    row.set("shed", l.shed);
    row.set("deadline_exceeded", l.deadline);
    row.set("shed_rate",
            l.requests > 0
                ? static_cast<double>(l.shed) / static_cast<double>(l.requests)
                : 0.0);
    row.set("p50_us", l.p50_us);
    row.set("p99_us", l.p99_us);
    row.set("wall_seconds", l.wall_s);
    row.set("requests_per_second", l.rps);
    report.add_row("clients", std::move(row));
  }
  return report.write("BENCH_service.json") ? 0 : 1;
}
