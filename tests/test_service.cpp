// aalignd service stack: wire protocol round trips, admission queue
// shedding policy, differential bit-identity against direct library
// calls, structured edge-case errors, deadline/disconnect cancellation,
// exact answers under load, drain-then-exit shutdown, and a mapped index
// whose signature sections are corrupt.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "search/database_search.h"
#include "search/top_k.h"
#include "seq/generator.h"
#include "service/client.h"
#include "service/request_queue.h"
#include "service/service.h"
#include "service/tcp.h"
#include "simd/isa.h"
#include "store/builder.h"
#include "store/loader.h"

using namespace aalign;
using namespace std::chrono_literals;
using service::ErrorCode;
using service::WireRequest;
using service::WireResponse;

namespace {

std::vector<seq::Sequence> make_seqs(std::uint64_t seed, std::size_t count,
                                     double median_len = 120.0) {
  seq::SequenceGenerator gen(seed);
  return gen.protein_database(count, median_len, 0.5, 30, 400);
}

seq::Database make_db(std::uint64_t seed, std::size_t count,
                      double median_len = 120.0) {
  return seq::Database(score::Alphabet::protein(),
                       make_seqs(seed, count, median_len));
}

std::vector<std::string> make_queries(std::uint64_t seed, std::size_t n,
                                      std::size_t len) {
  seq::SequenceGenerator gen(seed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(gen.protein(len).residues);
  }
  return out;
}

AlignConfig local_cfg() {
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  return cfg;
}

service::ServiceOptions service_opt(int threads = 2) {
  service::ServiceOptions opt;
  opt.search.threads = threads;
  return opt;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

// The direct library answer the service must reproduce: every subject's
// exact score for each query, original-indexed.
std::vector<search::SearchResult> library_scores(
    const score::ScoreMatrix& m, const AlignConfig& cfg,
    const search::SearchOptions& sopt, const std::vector<std::string>& queries,
    seq::Database db) {
  search::SearchOptions lopt = sopt;
  lopt.top_k = 0;
  lopt.keep_all_scores = true;
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const std::string& q : queries) {
    encoded.push_back(m.alphabet().encode(q));
  }
  return search::DatabaseSearch(m, cfg, lopt).search_many(encoded, db);
}

void expect_exact_hits(const WireResponse& resp,
                       const std::vector<search::SearchResult>& want,
                       std::size_t top_k) {
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_FALSE(resp.degraded);
  ASSERT_EQ(resp.results.size(), want.size());
  for (std::size_t qi = 0; qi < want.size(); ++qi) {
    const auto hits = search::select_top_k(want[qi].scores, top_k);
    ASSERT_EQ(resp.results[qi].hits.size(), hits.size()) << "query " << qi;
    for (std::size_t h = 0; h < hits.size(); ++h) {
      EXPECT_EQ(resp.results[qi].hits[h].index, hits[h].index)
          << "request " << resp.id << " query " << qi << " hit " << h;
      EXPECT_EQ(resp.results[qi].hits[h].score, hits[h].score)
          << "request " << resp.id << " query " << qi << " hit " << h;
    }
  }
}

}  // namespace

TEST(ServiceProtocol, RequestRoundTrip) {
  WireRequest req;
  req.id = 42;
  req.queries = {"MKVA", "WWDD"};
  req.top_k = 7;
  req.deadline_ms = 250;

  WireRequest back;
  ASSERT_EQ(service::parse_request(service::request_json(req), back), "");
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.queries, req.queries);
  EXPECT_EQ(back.top_k, req.top_k);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
}

TEST(ServiceProtocol, ResponseRoundTrip) {
  WireResponse resp;
  resp.id = 9;
  resp.ok = true;
  resp.queue_ms = 1.5;
  resp.exec_ms = 20.25;
  resp.results.push_back(
      {{service::WireHit{3, "sp3", 88}, service::WireHit{1, "sp1", 70}}});

  // Deployed clients parse "degraded"; it stays on the wire, always false.
  const obs::Json doc = service::response_json(resp);
  ASSERT_NE(doc.find("degraded"), nullptr);
  EXPECT_FALSE(doc["degraded"].as_bool());

  const WireResponse back = service::parse_response(doc);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.id, 9);
  EXPECT_FALSE(back.degraded);
  ASSERT_EQ(back.results.size(), 1u);
  ASSERT_EQ(back.results[0].hits.size(), 2u);
  EXPECT_EQ(back.results[0].hits[0].subject, "sp3");
  EXPECT_EQ(back.results[0].hits[1].score, 70);

  const WireResponse err = service::parse_response(service::response_json(
      service::error_response(5, ErrorCode::Overloaded, "queue full")));
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.error, ErrorCode::Overloaded);
  EXPECT_EQ(err.message, "queue full");
}

TEST(ServiceProtocol, ParseRejectsBadShapes) {
  WireRequest out;
  std::string e;
  EXPECT_NE(service::parse_request(obs::Json::parse("[1,2]", &e), out), "");
  EXPECT_NE(service::parse_request(obs::Json::parse("{}", &e), out), "");
  EXPECT_NE(
      service::parse_request(obs::Json::parse(R"({"queries": "MKV"})", &e),
                             out),
      "");
  EXPECT_NE(service::parse_request(
                obs::Json::parse(R"({"queries": ["M"], "top_k": -3})", &e),
                out),
            "");
  EXPECT_NE(
      service::parse_request(
          obs::Json::parse(R"({"queries": ["M"], "deadline_ms": "soon"})", &e),
          out),
      "");
  // Error codes survive a name round trip.
  for (ErrorCode c : {ErrorCode::InvalidRequest, ErrorCode::EmptyDatabase,
                      ErrorCode::QueryTooLong, ErrorCode::Overloaded,
                      ErrorCode::DeadlineExceeded, ErrorCode::Cancelled,
                      ErrorCode::ServerShutdown, ErrorCode::Internal}) {
    EXPECT_EQ(service::error_code_from_name(service::error_code_name(c)), c);
  }
}

// Containers nest at most Json::kMaxDepth deep: a deeper line is a parse
// error, never unbounded recursion (a 1 MiB line of '[' once overflowed
// the stack).
TEST(ServiceProtocol, DeepNestingIsAParseError) {
  const int cap = obs::Json::kMaxDepth;
  std::string e;
  EXPECT_TRUE(obs::Json::parse(std::string(cap, '[') + std::string(cap, ']'),
                               &e)
                  .is_array())
      << e;
  EXPECT_TRUE(
      obs::Json::parse(std::string(cap + 1, '[') + std::string(cap + 1, ']'),
                       &e)
          .is_null());
  EXPECT_NE(e.find("nesting"), std::string::npos) << e;

  std::string objects;
  for (int i = 0; i <= cap; ++i) objects += R"({"a":)";
  objects.append("1").append(cap + 1, '}');
  EXPECT_TRUE(obs::Json::parse(objects, &e).is_null());
  EXPECT_NE(e.find("nesting"), std::string::npos) << e;

  const std::string deep(std::size_t{1} << 20, '[');
  EXPECT_TRUE(obs::Json::parse(deep, &e).is_null());
  EXPECT_NE(e.find("nesting"), std::string::npos) << e;
  WireRequest out;
  EXPECT_NE(service::parse_request(obs::Json::parse(deep), out), "");
  EXPECT_FALSE(service::parse_response(obs::Json::parse(deep)).ok);
}

// Numbers past the int64 range read saturated, not through an undefined
// double-to-integer cast.
TEST(ServiceProtocol, OutOfRangeNumbersReadSaturated) {
  WireRequest out;
  ASSERT_EQ(service::parse_request(
                obs::Json::parse(
                    R"({"id": 1e300, "queries": ["M"], "top_k": 1e999})"),
                out),
            "");
  EXPECT_EQ(out.id, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(out.top_k,
            static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max()));
  ASSERT_EQ(service::parse_request(
                obs::Json::parse(R"({"id": -1e300, "queries": ["M"]})"), out),
            "");
  EXPECT_EQ(out.id, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(obs::Json::parse("-2.9").as_int(), -2);
}

// Older clients still send the retired degraded-mode flag, with any value.
// The parser ignores it like any unknown field, and the request is served
// exactly.
TEST(ServiceProtocol, RetiredDegradedFlagIsIgnoredAndServedExactly) {
  const auto& m = score::ScoreMatrix::blosum62();
  const auto queries = make_queries(151, 1, 90);
  const std::size_t top_k = 4;
  const auto want = library_scores(m, local_cfg(), service_opt().search,
                                   queries, make_db(150, 60));
  service::AlignService svc(m, local_cfg(), make_db(150, 60), service_opt());

  for (const char* value : {"true", "false", "\"yes\""}) {
    const std::string line = R"({"id": 5, "queries": [")" + queries[0] +
                             R"("], "top_k": 4, "allow_degraded": )" + value +
                             "}";
    std::string err;
    const obs::Json doc = obs::Json::parse(line, &err);
    ASSERT_EQ(err, "") << line;
    WireRequest req;
    ASSERT_EQ(service::parse_request(doc, req), "") << line;
    EXPECT_EQ(req.top_k, top_k);
    expect_exact_hits(svc.execute(std::move(req)), want, top_k);
  }
}

TEST(RequestQueue, ShedsEarliestDeadlineWhenFull) {
  service::RequestQueue q(2);
  auto mk = [](std::int64_t id, std::int64_t deadline_ms) {
    WireRequest r;
    r.id = id;
    r.queries = {"M"};
    r.deadline_ms = deadline_ms;
    return service::make_pending(std::move(r));
  };

  std::shared_ptr<service::PendingRequest> victim;
  auto a = mk(1, 10000);  // latest deadline
  auto b = mk(2, 1000);
  EXPECT_EQ(q.push(a, &victim), service::RequestQueue::PushOutcome::Accepted);
  EXPECT_EQ(q.push(b, &victim), service::RequestQueue::PushOutcome::Accepted);

  // Full. An incoming request with a mid deadline displaces the queued
  // earliest-deadline one (b).
  auto c = mk(3, 5000);
  EXPECT_EQ(q.push(c, &victim),
            service::RequestQueue::PushOutcome::AcceptedShed);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->req.id, 2);

  // An incoming request whose own deadline is the earliest is itself shed.
  auto d = mk(4, 100);
  EXPECT_EQ(q.push(d, &victim),
            service::RequestQueue::PushOutcome::RejectedShed);
  EXPECT_EQ(victim, nullptr);

  // No-deadline requests sort last (treated as the latest deadline), so
  // an incoming best-effort request displaces the earliest-deadline
  // queued one - time-constrained work that was doomed anyway.
  auto e = mk(5, 0);
  EXPECT_EQ(q.push(e, &victim),
            service::RequestQueue::PushOutcome::AcceptedShed);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->req.id, 3);

  EXPECT_EQ(q.depth(), 2u);
  q.close();
  // Drain: queued items still pop after close; then nullptr.
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_EQ(q.push(mk(6, 0), &victim),
            service::RequestQueue::PushOutcome::Closed);
}

// The central serving contract: an un-degraded service response is
// bit-identical to a direct library search_many over the same inputs.
TEST(Service, DifferentialBitIdenticalToLibrary) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const auto queries = make_queries(71, 3, 100);
  const std::size_t top_k = 5;

  // Direct library path.
  seq::Database lib_db = make_db(70, 120);
  search::SearchOptions lopt = service_opt().search;
  lopt.top_k = 0;
  lopt.keep_all_scores = true;
  const search::DatabaseSearch direct(m, cfg, lopt);
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const std::string& q : queries) {
    encoded.push_back(m.alphabet().encode(q));
  }
  const auto want = direct.search_many(encoded, lib_db);

  // Service path over real TCP.
  service::AlignService svc(m, cfg, make_db(70, 120), service_opt());
  service::TcpServer server(svc);
  server.start();
  service::ServiceClient client("127.0.0.1", server.port());
  WireRequest req;
  req.id = 1;
  req.queries = queries;
  req.top_k = top_k;
  const WireResponse resp = client.call(req);

  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_FALSE(resp.degraded);
  ASSERT_EQ(resp.results.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto hits = search::select_top_k(want[qi].scores, top_k);
    ASSERT_EQ(resp.results[qi].hits.size(), hits.size());
    for (std::size_t h = 0; h < hits.size(); ++h) {
      EXPECT_EQ(resp.results[qi].hits[h].index, hits[h].index);
      EXPECT_EQ(resp.results[qi].hits[h].score, hits[h].score);
    }
  }
}

TEST(Service, EdgeCasesProduceStructuredErrors) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::ServiceOptions opt = service_opt();
  opt.max_query_len = 500;
  opt.max_queries = 4;
  service::AlignService svc(m, local_cfg(), make_db(81, 40), opt);

  auto expect_code = [&](WireRequest req, ErrorCode code) {
    const WireResponse resp = svc.execute(std::move(req));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error, code) << resp.message;
  };

  WireRequest none;  // no queries
  expect_code(none, ErrorCode::InvalidRequest);

  WireRequest zero_k;
  zero_k.queries = {"MKVA"};
  zero_k.top_k = 0;
  expect_code(zero_k, ErrorCode::InvalidRequest);

  WireRequest empty_q;
  empty_q.queries = {""};
  expect_code(empty_q, ErrorCode::InvalidRequest);

  WireRequest huge;
  huge.queries = {std::string(501, 'M')};
  expect_code(huge, ErrorCode::QueryTooLong);

  WireRequest many;
  many.queries.assign(5, "MKVA");
  expect_code(many, ErrorCode::InvalidRequest);

  WireRequest big_k;
  big_k.queries = {"MKVA"};
  big_k.top_k = opt.max_top_k + 1;
  expect_code(big_k, ErrorCode::InvalidRequest);

  // Empty database: valid shape, structured empty_database error.
  service::AlignService empty_svc(m, local_cfg(), seq::Database(),
                                  service_opt());
  WireRequest ok_shape;
  ok_shape.queries = {"MKVA"};
  const WireResponse resp = empty_svc.execute(std::move(ok_shape));
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, ErrorCode::EmptyDatabase);
}

// Malformed wire input is answered with a structured error on the same
// connection; the server survives and serves the next (valid) request.
TEST(Service, MalformedLinesAnswerInvalidRequest) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::AlignService svc(m, local_cfg(), make_db(91, 30), service_opt());
  service::TcpServer server(svc);
  server.start();
  service::ServiceClient client("127.0.0.1", server.port());

  ASSERT_TRUE(client.send_raw("this is not json"));
  WireResponse resp = client.read_response();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, ErrorCode::InvalidRequest);

  ASSERT_TRUE(client.send_raw(R"({"id": 3, "queries": 17})"));
  resp = client.read_response();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, ErrorCode::InvalidRequest);
  EXPECT_EQ(resp.id, 3);

  WireRequest good;
  good.id = 4;
  good.queries = make_queries(92, 1, 80);
  resp = client.call(good);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.id, 4);
}

// A 1 MiB line of '[' is answered with invalid_request on the same
// connection, and the server keeps serving.
TEST(Service, DeeplyNestedLineAnswersInvalidRequest) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::AlignService svc(m, local_cfg(), make_db(93, 30), service_opt());
  service::TcpServer server(svc);
  server.start();
  service::ServiceClient client("127.0.0.1", server.port());

  ASSERT_TRUE(client.send_raw(std::string(std::size_t{1} << 20, '[')));
  WireResponse resp = client.read_response();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, ErrorCode::InvalidRequest);
  EXPECT_NE(resp.message.find("nesting"), std::string::npos) << resp.message;

  WireRequest good;
  good.id = 5;
  good.queries = make_queries(94, 1, 80);
  resp = client.call(good);
  EXPECT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(resp.id, 5);
}

// Filter-dropped subjects carry the int32 sentinel in the score vector;
// with top_k past the survivor count the service stops at the first
// sentinel, so its hits are exactly the library's ranked survivors.
TEST(Service, FilterSentinelNeverSurfacesAsHit) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const auto queries = make_queries(95, 2, 120);
  const std::size_t n = 150;
  search::SearchOptions lopt = service_opt().search;
  lopt.filter.mode = filter::FilterMode::On;
  const auto want = library_scores(m, cfg, lopt, queries, make_db(96, n));

  service::AlignService svc(m, cfg, make_db(96, n), service_opt());
  WireRequest req;
  req.id = 6;
  req.queries = queries;
  req.top_k = n;
  req.filter = filter::FilterMode::On;
  req.filter_explicit = true;
  const WireResponse resp = svc.execute(req);
  ASSERT_TRUE(resp.ok) << resp.message;
  ASSERT_EQ(resp.results.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_TRUE(want[qi].filtered);
    std::vector<std::int32_t> survivors;
    for (const std::int32_t s : want[qi].scores) {
      if (s != filter::kDroppedScore) survivors.push_back(s);
    }
    ASSERT_LT(survivors.size(), n) << "the filter dropped nothing";
    const auto hits = search::select_top_k(survivors, n);
    ASSERT_EQ(resp.results[qi].hits.size(), hits.size()) << "query " << qi;
    for (std::size_t h = 0; h < hits.size(); ++h) {
      EXPECT_EQ(resp.results[qi].hits[h].score, hits[h].score)
          << "query " << qi << " hit " << h;
      EXPECT_EQ(want[qi].scores[resp.results[qi].hits[h].index],
                resp.results[qi].hits[h].score);
    }
  }
}

// An index of `db` with one SigBlob bit flipped, written to a temp file
// that is removed with this object.
class FlippedSignatureIndex {
 public:
  explicit FlippedSignatureIndex(const seq::Database& db) {
    std::vector<std::uint8_t> bytes =
        store::build_index_bytes(db, score::ScoreMatrix::blosum62());
    store::SectionEntry blob;
    std::memcpy(&blob,
                bytes.data() + sizeof(store::Header) +
                    (static_cast<std::size_t>(store::SectionKind::SigBlob) -
                     1) * sizeof(store::SectionEntry),
                sizeof blob);
    bytes[blob.offset + blob.bytes / 3] ^= 0x04;
    path_ = ::testing::TempDir() + "service_flipped_" +
            std::to_string(::getpid()) + ".aidx";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ~FlippedSignatureIndex() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A service that filters by default verifies a mapped index's signatures
// when it is built: a corrupt one fails the constructor, not a request.
TEST(Service, FilteringServiceRejectsCorruptSignaturesAtConstruction) {
  const auto& m = score::ScoreMatrix::blosum62();
  const FlippedSignatureIndex file(make_db(97, 120));
  const store::MappedIndex idx = store::MappedIndex::open(file.path());
  service::ServiceOptions opt = service_opt();
  opt.search.filter.mode = filter::FilterMode::Auto;
  opt.search.filter.params = idx.filter_params();
  opt.search.filter.index = idx.signatures();
  try {
    service::AlignService svc(m, local_cfg(), idx.database(), opt);
    ADD_FAILURE() << "a filtering service accepted corrupt signatures";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.errc(), store::StoreErrc::SectionChecksum) << e.what();
  }
}

// A filter-off service over the same file never reads the signatures: it
// answers filter-off requests exactly as the library does, answers a
// "filter": "on" request with a structured error naming
// store.section_checksum, and keeps serving after it.
TEST(Service, FilterOffServiceOverCorruptSignaturesServesExactly) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const FlippedSignatureIndex file(make_db(97, 120));
  const store::MappedIndex idx = store::MappedIndex::open(file.path());
  const auto queries = make_queries(98, 2, 100);
  const std::size_t top_k = 5;
  const auto want =
      library_scores(m, cfg, service_opt().search, queries, make_db(97, 120));

  service::ServiceOptions opt = service_opt();
  opt.search.filter.params = idx.filter_params();
  opt.search.filter.index = idx.signatures();
  service::AlignService svc(m, cfg, idx.database(), opt);
  WireRequest req;
  req.queries = queries;
  req.top_k = top_k;
  for (int round = 0; round < 2; ++round) {
    req.id = 10 + round;
    expect_exact_hits(svc.execute(req), want, top_k);

    WireRequest on = req;
    on.id = 20 + round;
    on.filter = filter::FilterMode::On;
    on.filter_explicit = true;
    const WireResponse resp = svc.execute(on);
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.message.find("store.section_checksum"), std::string::npos)
        << resp.message;
  }
}

// A request whose deadline expires never returns partial scores: the
// response is the structured deadline_exceeded error, and the service
// keeps serving afterwards.
TEST(Service, DeadlineExpiredNeverReturnsPartialScores) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::AlignService svc(m, local_cfg(), make_db(101, 800, 250.0),
                            service_opt());

  const std::uint64_t before = counter("service.deadline_exceeded");
  WireRequest req;
  req.id = 1;
  req.queries = make_queries(102, 4, 600);
  req.deadline_ms = 1;  // expires while queued or mid-execution
  const WireResponse resp = svc.execute(std::move(req));
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, ErrorCode::DeadlineExceeded) << resp.message;
  EXPECT_TRUE(resp.results.empty());
  EXPECT_GT(counter("service.deadline_exceeded"), before);

  WireRequest calm;
  calm.id = 2;
  calm.queries = make_queries(103, 1, 60);
  const WireResponse ok = svc.execute(std::move(calm));
  EXPECT_TRUE(ok.ok) << ok.message;
}

// Client disconnect mid-request fires the token: the executor stops the
// alignment (service.cancelled) instead of computing a response nobody
// will read.
TEST(Service, DisconnectCancelsInFlightRequest) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::AlignService svc(m, local_cfg(), make_db(111, 1500, 300.0),
                            service_opt());
  service::TcpServer server(svc);
  server.start();

  const std::uint64_t before = counter("service.cancelled");
  auto client = std::make_unique<service::ServiceClient>("127.0.0.1",
                                                         server.port());
  WireRequest req;
  req.id = 1;
  req.queries = make_queries(112, 6, 800);  // seconds of work
  ASSERT_TRUE(client->send_only(req));
  std::this_thread::sleep_for(30ms);  // let it reach the executor
  client->close();                    // vanish mid-request

  // The connection thread polls its socket every 10ms and fires the
  // token; the executor then finishes within one stride-chunk.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (counter("service.cancelled") == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GT(counter("service.cancelled"), before)
      << "disconnect did not cancel the in-flight request";
}

// Overload: with a single busy executor and a tiny queue, excess requests
// are shed with the structured overloaded error, preferring the earliest
// deadline as victim.
TEST(Service, ShedsUnderOverload) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::ServiceOptions opt = service_opt();
  opt.queue_capacity = 1;
  service::AlignService svc(m, local_cfg(), make_db(121, 600, 250.0), opt);

  const std::uint64_t shed_before = counter("service.shed");

  // R1 occupies the executor; R2 fills the queue; R3 (earliest deadline)
  // must be shed immediately.
  WireRequest r1;
  r1.id = 1;
  r1.queries = make_queries(122, 3, 500);
  auto p1 = svc.submit(std::move(r1));

  // Wait until the executor has picked R1 up, so R2 is queued (not
  // displaced: R1 carries no deadline and would otherwise be the victim).
  for (int i = 0; i < 2000 && svc.queue_depth() > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  WireRequest r2;
  r2.id = 2;
  r2.queries = make_queries(123, 1, 50);
  r2.deadline_ms = 60000;
  auto p2 = svc.submit(std::move(r2));
  EXPECT_EQ(svc.queue_depth(), 1u);  // R1 executing, R2 waiting: full

  WireRequest r3;
  r3.id = 3;
  r3.queries = make_queries(124, 1, 50);
  r3.deadline_ms = 5;  // earliest deadline in a full queue -> shed
  auto p3 = svc.submit(std::move(r3));
  const WireResponse resp3 = p3->wait();
  EXPECT_FALSE(resp3.ok);
  EXPECT_TRUE(resp3.error == ErrorCode::Overloaded ||
              resp3.error == ErrorCode::DeadlineExceeded)
      << service::error_code_name(resp3.error);
  if (resp3.error == ErrorCode::Overloaded) {
    EXPECT_GT(counter("service.shed"), shed_before);
  }

  // The occupying requests complete normally (drain happens in shutdown).
  EXPECT_TRUE(p1->wait().ok);
  (void)p2->wait();
}

// A backlog never changes an answer: with the one executor busy and a
// dozen requests queued behind it (deeper than the default queue depth
// of 8 that once switched serving to clipped int8 scores), every queued
// request whose query has a homolog scoring above the int8 rail still
// gets the exact library hits.
TEST(Service, ExactUnderLoad) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const service::ServiceOptions opt = service_opt();
  ASSERT_EQ(opt.executors, 1);

  // Plant the query itself in the database: its self-score is far above
  // the int8 rail, so a clipped answer cannot pass for the exact one.
  const auto queries = make_queries(162, 1, 120);
  auto make_loaded_db = [&] {
    std::vector<seq::Sequence> seqs = make_seqs(161, 600, 250.0);
    seqs.push_back({"planted", queries[0]});
    return seq::Database(m.alphabet(), seqs);
  };
  const std::size_t top_k = 5;
  const auto want =
      library_scores(m, cfg, opt.search, queries, make_loaded_db());
  ASSERT_GT(search::select_top_k(want[0].scores, 1)[0].score,
            std::numeric_limits<std::int8_t>::max());

  service::AlignService svc(m, cfg, make_loaded_db(), opt);

  // R0 occupies the executor; wait until it has been dequeued so the
  // requests below all wait behind it.
  WireRequest busy;
  busy.id = 100;
  busy.queries = make_queries(163, 4, 500);
  auto p_busy = svc.submit(std::move(busy));
  for (int i = 0; i < 2000 && svc.queue_depth() > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }

  constexpr int kQueued = 12;
  std::vector<std::shared_ptr<service::PendingRequest>> pending;
  for (int i = 0; i < kQueued; ++i) {
    WireRequest req;
    req.id = i + 1;
    req.queries = queries;
    req.top_k = top_k;
    pending.push_back(svc.submit(std::move(req)));
  }
  EXPECT_GE(svc.queue_depth(), 9u) << "the busy request finished too soon";

  EXPECT_TRUE(p_busy->wait().ok);
  for (const auto& p : pending) expect_exact_hits(p->wait(), want, top_k);
}

// Drain-then-exit: requests accepted before shutdown all complete with
// real answers; requests after shutdown get server_shutdown.
TEST(Service, ShutdownDrainsAcceptedRequests) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::ServiceOptions opt = service_opt();
  service::AlignService svc(m, local_cfg(), make_db(141, 200), opt);

  std::vector<std::shared_ptr<service::PendingRequest>> pending;
  for (int i = 0; i < 4; ++i) {
    WireRequest req;
    req.id = i + 1;
    req.queries = make_queries(142 + static_cast<std::uint64_t>(i), 2, 150);
    pending.push_back(svc.submit(std::move(req)));
  }
  svc.shutdown();  // returns only after the queue fully drains

  for (const auto& p : pending) {
    const WireResponse& resp = p->wait();
    EXPECT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.results.size(), 2u);
  }

  WireRequest late;
  late.queries = make_queries(150, 1, 50);
  const WireResponse resp = svc.execute(std::move(late));
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, ErrorCode::ServerShutdown);
}

// TCP-level drain: a server stopped while a request is executing still
// delivers that response before the connection closes.
TEST(Service, TcpStopDeliversInFlightResponse) {
  const auto& m = score::ScoreMatrix::blosum62();
  service::AlignService svc(m, local_cfg(), make_db(151, 300, 200.0),
                            service_opt());
  auto server = std::make_unique<service::TcpServer>(svc);
  server->start();
  service::ServiceClient client("127.0.0.1", server->port());

  WireRequest req;
  req.id = 77;
  req.queries = make_queries(152, 2, 300);
  ASSERT_TRUE(client.send_only(req));
  std::this_thread::sleep_for(10ms);
  server->request_stop();  // drain begins while the request is in flight

  const WireResponse resp = client.read_response();
  EXPECT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(resp.id, 77);
  server->join();
}
