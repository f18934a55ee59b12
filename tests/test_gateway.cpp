// Scatter-gather gateway (service/gateway.h, docs/deployment.md): the
// fleet-level serving contract. Differential bit-identity of a gateway
// over 1/2/4 shard backends against the single-process service and the
// direct library ranking (scores + ORIGINAL indices, with forced ties
// straddling shard boundaries), partition-invariance of the signature
// pre-filter over mapped shard slices, the partial-result contract when a
// shard dies mid-query (structured incomplete, never silent partials),
// profile-LUT attach bit-identity, the bounded client connect the
// gateway's failure detection relies on, and the scatter on the caller's
// thread: no thread at construction, several legs in flight per backend,
// a client disconnect reaching the backend, and a shard killed with legs
// in flight, then restarted.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "score/matrices.h"
#include "search/database_search.h"
#include "search/top_k.h"
#include "seq/generator.h"
#include "service/client.h"
#include "service/gateway.h"
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

AlignConfig local_cfg() {
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  return cfg;
}

// Workload in ORIGINAL order, with exact duplicates planted so that
// equal-score ties straddle every shard boundary of a 4-way split - the
// merge must order them by fleet-global original index, not per-shard.
std::vector<seq::Sequence> make_workload(std::uint64_t seed,
                                         std::size_t count) {
  seq::SequenceGenerator gen(seed);
  std::vector<seq::Sequence> seqs =
      gen.protein_database(count, 90.0, 0.4, 30, 250);
  const std::string dup = gen.protein(80).residues;
  for (std::size_t i = count / 8; i < count; i += count / 4) {
    seqs[i].residues = dup;  // one duplicate per quarter
  }
  return seqs;
}

std::vector<std::string> make_queries(std::uint64_t seed, std::size_t n,
                                      std::size_t len) {
  seq::SequenceGenerator gen(seed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.protein(len).residues);
  return out;
}

service::ServiceOptions service_opt() {
  service::ServiceOptions opt;
  opt.search.threads = 2;
  return opt;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

// An in-process fleet: N shard AlignServices over contiguous slices of
// one workload, each behind a real TcpServer, fronted by a Gateway.
struct InProcessFleet {
  std::vector<std::unique_ptr<service::AlignService>> services;
  std::vector<std::unique_ptr<service::TcpServer>> servers;
  std::unique_ptr<service::Gateway> gateway;

  InProcessFleet() = default;
  InProcessFleet(InProcessFleet&&) = default;

  ~InProcessFleet() {
    if (gateway) gateway->shutdown();
    for (auto& s : servers) {
      s->request_stop();
      s->join();
    }
  }
};

InProcessFleet make_fleet(const score::ScoreMatrix& m, AlignConfig cfg,
                          const std::vector<seq::Sequence>& seqs,
                          std::size_t shards) {
  InProcessFleet fleet;
  service::GatewayOptions gopt;
  const std::size_t per = (seqs.size() + shards - 1) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t first = s * per;
    const std::size_t end = std::min(seqs.size(), first + per);
    seq::Database slice(
        m.alphabet(),
        std::vector<seq::Sequence>(seqs.begin() + static_cast<long>(first),
                                   seqs.begin() + static_cast<long>(end)));
    service::ServiceOptions sopt = service_opt();
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
  return fleet;
}

// A raw loopback listener standing in for a shard backend.
struct StubListener {
  int fd = -1;
  std::uint16_t port = 0;

  explicit StubListener(std::uint16_t want = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(want);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(fd, 16) != 0) {
      close();
      return;
    }
    socklen_t slen = sizeof(sa);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &slen);
    port = ntohs(sa.sin_port);
  }
  ~StubListener() { close(); }

  // shutdown() wakes a thread blocked in accept(); close() alone does not.
  void close() {
    if (fd < 0) return;
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    fd = -1;
  }
};

// One request line from a backend connection ("" on EOF).
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return "";
}

// Answers a request line as a shard with no hits would.
void answer(int fd, const std::string& line) {
  WireRequest req;
  service::parse_request(obs::Json::parse(line), req);
  WireResponse resp;
  resp.id = req.id;
  resp.ok = true;
  resp.results.resize(req.queries.size());
  const std::string out = service::response_json(resp).dump() + "\n";
  ASSERT_EQ(::write(fd, out.data(), out.size()),
            static_cast<ssize_t>(out.size()));
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

}  // namespace

TEST(GatewayProtocol, IncompleteRoundTrip) {
  WireResponse resp;
  resp.id = 4;
  resp.ok = true;
  resp.incomplete = true;
  resp.results.push_back({{service::WireHit{12, "sp12", 80}}});
  const WireResponse back =
      service::parse_response(service::response_json(resp));
  EXPECT_TRUE(back.ok);
  EXPECT_TRUE(back.incomplete);

  // Absent on the wire (a pre-gateway server) parses as complete.
  WireResponse plain;
  plain.id = 5;
  plain.ok = true;
  const WireResponse back2 =
      service::parse_response(service::response_json(plain));
  EXPECT_FALSE(back2.incomplete);
}

// The tentpole contract: a gateway over 1, 2, or 4 shard processes
// returns byte-identical rankings - scores, fleet-global ORIGINAL
// indices, subject ids, tie order - to the single-process service and to
// the library's select_top_k over the same workload.
TEST(Gateway, DifferentialBitIdenticalAcrossShardCounts) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const auto seqs = make_workload(211, 160);
  const auto queries = make_queries(212, 3, 100);
  const std::size_t top_k = 10;

  // Library reference ranking over full score vectors.
  seq::Database lib_db(m.alphabet(), seqs);
  search::SearchOptions lopt = service_opt().search;
  lopt.top_k = 0;
  lopt.keep_all_scores = true;
  const search::DatabaseSearch direct(m, cfg, lopt);
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const std::string& q : queries) encoded.push_back(m.alphabet().encode(q));
  const auto want = direct.search_many(encoded, lib_db);

  // Single-process service reference.
  service::AlignService single(m, cfg, seq::Database(m.alphabet(), seqs),
                               service_opt());
  WireRequest req;
  req.id = 1;
  req.queries = queries;
  req.top_k = top_k;
  const WireResponse single_resp = single.execute(req);
  ASSERT_TRUE(single_resp.ok) << single_resp.message;

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    InProcessFleet fleet = make_fleet(m, cfg, seqs, shards);
    const WireResponse resp = fleet.gateway->submit(req)->wait();
    ASSERT_TRUE(resp.ok) << shards << " shards: " << resp.message;
    EXPECT_FALSE(resp.incomplete);
    ASSERT_EQ(resp.results.size(), queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto hits = search::select_top_k(want[qi].scores, top_k);
      const auto& got = resp.results[qi].hits;
      const auto& ref = single_resp.results[qi].hits;
      ASSERT_EQ(got.size(), hits.size()) << shards << " shards, q" << qi;
      for (std::size_t h = 0; h < hits.size(); ++h) {
        EXPECT_EQ(got[h].index, hits[h].index) << shards << " shards";
        EXPECT_EQ(got[h].score, hits[h].score) << shards << " shards";
        EXPECT_EQ(got[h].index, ref[h].index);
        EXPECT_EQ(got[h].score, ref[h].score);
        EXPECT_EQ(got[h].subject, ref[h].subject);
      }
    }
  }
}

// Partition invariance of the two-stage filter over REAL mapped shard
// slices: per-subject scores (including kDroppedScore sentinels - i.e.
// the filter's drop verdicts) assembled from per-slice searches are
// bit-identical to the whole-database filtered search. This is the
// property the windowed SignatureIndex background exists for.
TEST(Gateway, MappedShardSlicesFilterBitIdentical) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  auto seqs = make_workload(221, 150);
  // Plant homologs of the query so the filter has true survivors.
  seq::SequenceGenerator gen(222);
  const std::string query = gen.protein(120).residues;
  for (std::size_t i = 5; i < seqs.size(); i += 37) {
    seqs[i].residues = query.substr(0, 90) + seqs[i].residues.substr(0, 20);
  }
  seq::Database build_db(m.alphabet(), seqs);

  const std::string path = ::testing::TempDir() + "gateway_filter.aidx";
  store::write_index(path, build_db, m);
  const store::MappedIndex idx = store::MappedIndex::open(path);

  search::SearchOptions opt = service_opt().search;
  opt.top_k = 0;
  opt.keep_all_scores = true;
  opt.filter.mode = filter::FilterMode::On;
  const std::vector<std::uint8_t> q = m.alphabet().encode(query);

  // Whole-database filtered search from the mapped index.
  opt.filter.index = idx.signatures();
  seq::Database whole = idx.database();
  const search::DatabaseSearch whole_search(m, cfg, opt);
  const auto want = whole_search.search(q, whole);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    std::vector<std::int32_t> assembled(want.scores.size(), 0);
    for (std::size_t s = 0; s < shards; ++s) {
      const store::ShardSlice slice = idx.shard_slice(s, shards);
      seq::Database slice_db = idx.database(slice);
      const std::vector<std::size_t> orig = idx.original_indices(slice);
      search::SearchOptions sopt = opt;
      sopt.filter.index = idx.signatures(slice);
      const search::DatabaseSearch shard_search(m, cfg, sopt);
      const auto got = shard_search.search(q, slice_db);
      ASSERT_EQ(got.scores.size(), orig.size());
      for (std::size_t i = 0; i < orig.size(); ++i) {
        assembled[orig[i]] = got.scores[i];
      }
    }
    EXPECT_EQ(assembled, want.scores) << shards << " shards";
  }
  std::remove(path.c_str());
}

// A shard that dies mid-query (accepts, reads the request, then closes)
// yields ok + incomplete=true with the live shards' exact hits - never a
// silently partial response, and never an all-up complete flag.
TEST(Gateway, ShardDeathYieldsIncompleteNeverSilentPartial) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const auto seqs = make_workload(231, 120);
  const auto queries = make_queries(232, 2, 90);

  // Live shard: first half of the workload.
  const std::size_t half = seqs.size() / 2;
  seq::Database live_db(
      m.alphabet(),
      std::vector<seq::Sequence>(seqs.begin(),
                                 seqs.begin() + static_cast<long>(half)));
  service::ServiceOptions sopt = service_opt();
  sopt.global_index_map.resize(half);
  std::iota(sopt.global_index_map.begin(), sopt.global_index_map.end(), 0u);
  service::AlignService live(m, cfg, std::move(live_db), sopt);
  service::TcpServer live_srv(live);
  live_srv.start();

  // Dead shard: accepts one connection, reads a line, closes - a crash
  // between admission and response.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t slen = sizeof(sa);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&sa), &slen), 0);
  const std::uint16_t dead_port = ntohs(sa.sin_port);
  std::thread dead([lfd] {
    for (;;) {
      const int c = ::accept(lfd, nullptr, nullptr);
      if (c < 0) return;  // listener closed: test over
      char buf[512];
      while (::read(c, buf, sizeof(buf)) == sizeof(buf)) {
      }
      ::close(c);  // die mid-request
    }
  });

  service::GatewayOptions gopt;
  gopt.backends = {"127.0.0.1:" + std::to_string(live_srv.port()),
                   "127.0.0.1:" + std::to_string(dead_port)};
  gopt.connect_timeout_ms = 500;
  service::Gateway gw(gopt);

  const std::uint64_t partial_before = counter("gateway.partial_responses");
  WireRequest req;
  req.id = 7;
  req.queries = queries;
  req.top_k = 5;
  req.deadline_ms = 30000;  // generous: failure comes from the EOF, fast
  const WireResponse resp = gw.submit(req)->wait();

  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_TRUE(resp.incomplete)
      << "a dead shard must mark the response incomplete";
  ASSERT_EQ(resp.results.size(), queries.size());

  // The hits that ARE present are the live shard's exact answers.
  WireRequest direct = req;
  const WireResponse live_resp = live.execute(direct);
  ASSERT_TRUE(live_resp.ok);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_EQ(resp.results[qi].hits.size(), live_resp.results[qi].hits.size());
    for (std::size_t h = 0; h < resp.results[qi].hits.size(); ++h) {
      EXPECT_EQ(resp.results[qi].hits[h].index,
                live_resp.results[qi].hits[h].index);
      EXPECT_EQ(resp.results[qi].hits[h].score,
                live_resp.results[qi].hits[h].score);
    }
  }
  EXPECT_GT(counter("gateway.partial_responses"), partial_before);

  gw.shutdown();
  // close() alone does not wake a thread blocked in accept() on Linux;
  // shutdown() does (accept returns EINVAL).
  ::shutdown(lfd, SHUT_RDWR);
  ::close(lfd);
  dead.join();
  live_srv.request_stop();
  live_srv.join();
}

// Every shard down: a structured error, not an empty-but-ok response.
TEST(Gateway, AllShardsDownIsStructuredError) {
  // A port that refuses connections: bind+close frees it, nothing listens.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t slen = sizeof(sa);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &slen), 0);
  const std::uint16_t port = ntohs(sa.sin_port);
  ::close(fd);

  service::GatewayOptions gopt;
  gopt.backends = {"127.0.0.1:" + std::to_string(port)};
  gopt.connect_timeout_ms = 200;
  service::Gateway gw(gopt);

  WireRequest req;
  req.id = 9;
  req.queries = {"MKVAWWDDAEAG"};
  req.deadline_ms = 1000;
  const WireResponse resp = gw.submit(req)->wait();
  EXPECT_FALSE(resp.ok);
  EXPECT_TRUE(resp.error == ErrorCode::DeadlineExceeded ||
              resp.error == ErrorCode::Internal)
      << service::error_code_name(resp.error);
  EXPECT_TRUE(resp.results.empty());
}

// Shape violations are answered locally; the fleet is never touched (the
// backend here is a dead port, so any scatter would fail differently).
TEST(Gateway, ValidatesLocally) {
  service::GatewayOptions gopt;
  gopt.backends = {"127.0.0.1:9"};  // discard port: nothing listens
  gopt.max_queries = 2;
  service::Gateway gw(gopt);

  WireRequest none;  // no queries
  EXPECT_EQ(gw.submit(none)->wait().error, ErrorCode::InvalidRequest);

  WireRequest many;
  many.queries.assign(3, "MKVA");
  EXPECT_EQ(gw.submit(many)->wait().error, ErrorCode::InvalidRequest);

  WireRequest zero_k;
  zero_k.queries = {"MKVA"};
  zero_k.top_k = 0;
  EXPECT_EQ(gw.submit(zero_k)->wait().error, ErrorCode::InvalidRequest);

  EXPECT_THROW(service::Gateway(service::GatewayOptions{}),
               std::invalid_argument);
}

// Attaching the index's precomputed profile LUT sections must not change
// a single score - the LUT holds exactly the matrix entries the striped
// profile would have gathered - and is observable via its counter.
TEST(Gateway, ProfileLutAttachBitIdentical) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const auto seqs = make_workload(241, 100);
  seq::Database build_db(m.alphabet(), seqs);
  const std::string path = ::testing::TempDir() + "gateway_lut.aidx";
  store::write_index(path, build_db, m);
  const store::MappedIndex idx = store::MappedIndex::open(path);
  const auto queries = make_queries(242, 2, 110);

  search::SearchOptions plain = service_opt().search;
  plain.top_k = 0;
  plain.keep_all_scores = true;
  search::SearchOptions with_lut = plain;
  with_lut.query.lut.i8 = idx.profile_lut_i8();
  with_lut.query.lut.i16 = idx.profile_lut_i16();
  with_lut.query.lut.i32 = idx.profile_lut_i32();
  with_lut.query.lut.stride = idx.header().lut_stride;
  with_lut.query.lut.backing = idx.file();

  std::vector<std::vector<std::uint8_t>> encoded;
  for (const std::string& q : queries) encoded.push_back(m.alphabet().encode(q));

  seq::Database db_a = idx.database();
  seq::Database db_b = idx.database();
  const std::uint64_t attach_before = counter("cache.profile.lut_attach");
  const auto want = search::DatabaseSearch(m, cfg, plain)
                        .search_many(encoded, db_a);
  const auto got = search::DatabaseSearch(m, cfg, with_lut)
                       .search_many(encoded, db_b);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t qi = 0; qi < want.size(); ++qi) {
    EXPECT_EQ(got[qi].scores, want[qi].scores) << "q" << qi;
  }
  EXPECT_GT(counter("cache.profile.lut_attach"), attach_before);
  std::remove(path.c_str());
}

// Regression: the client's connect is bounded. Against a listener whose
// accept queue is saturated (loopback SYNs get dropped, the kernel would
// retry for minutes), the constructor must give up within its budget
// instead of hanging the gateway's failure detection.
TEST(Gateway, ClientConnectIsBounded) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(lfd, 0), 0);  // minimal accept queue, never accepted
  socklen_t slen = sizeof(sa);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&sa), &slen), 0);
  const std::uint16_t port = ntohs(sa.sin_port);

  // Saturate the queue with non-blocking connects nobody will accept
  // (blocking ones would themselves hang in the kernel's SYN retries).
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) break;
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    fillers.push_back(fd);
    std::this_thread::sleep_for(10ms);
  }

  const auto t0 = std::chrono::steady_clock::now();
  try {
    service::ServiceClient c("127.0.0.1", port, /*connect_timeout_ms=*/300);
    // Platform accepted the connection from its queue: nothing to time.
  } catch (const std::runtime_error&) {
    // Expected on Linux: SYN dropped, bounded connect gives up at ~300ms.
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 5000) << "connect must be bounded by its timeout";

  for (int fd : fillers) ::close(fd);
  ::close(lfd);
}

// The scatter runs on the caller's thread, so a gateway owns no thread.
TEST(Gateway, ConstructionStartsNoThread) {
  service::GatewayOptions gopt;
  gopt.backends = {"127.0.0.1:9", "127.0.0.1:10"};
  const std::size_t before = thread_count();
  service::Gateway gw(gopt);
  EXPECT_EQ(thread_count(), before);
  EXPECT_EQ(gw.backend_count(), 2u);
}

// The disconnect contract end to end: a client that vanishes mid-request
// closes the gateway's leg to the backend long before the request's own
// deadline, so the backend can cancel its work.
TEST(Gateway, ClientDisconnectClosesTheShardLeg) {
  StubListener stub;
  ASSERT_GE(stub.fd, 0);
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> got_request{false};
  std::atomic<Clock::rep> eof_at{0};
  std::thread backend([&] {
    const int c = ::accept(stub.fd, nullptr, nullptr);
    if (c < 0) return;
    if (!read_line(c).empty()) got_request = true;
    char b = 0;
    while (::read(c, &b, 1) > 0) {
    }
    eof_at = Clock::now().time_since_epoch().count();
    ::close(c);
  });

  service::GatewayOptions gopt;
  gopt.backends = {"127.0.0.1:" + std::to_string(stub.port)};
  service::Gateway gw(gopt);
  service::TcpServer front(gw);
  front.start();

  service::ServiceClient client("127.0.0.1", front.port());
  WireRequest req;
  req.id = 3;
  req.queries = {"MKVAWWDDAEAG"};
  req.deadline_ms = 30000;
  ASSERT_TRUE(client.send_only(req));
  for (int i = 0; i < 5000 && !got_request; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(got_request) << "the request never reached the backend";
  const Clock::time_point closed = Clock::now();
  client.close();
  backend.join();
  const Clock::time_point eof{Clock::duration(eof_at.load())};
  EXPECT_LT(eof - closed, 1s)
      << "the backend saw EOF only after "
      << std::chrono::duration_cast<std::chrono::milliseconds>(eof - closed)
             .count()
      << " ms";
  front.request_stop();
  front.join();
}

// A backend carries as many legs as the gateway has concurrent requests:
// the stub answers neither request until it holds both, so both must be
// in flight on it at once.
TEST(Gateway, SeveralLegsInFlightPerBackend) {
  StubListener stub;
  ASSERT_GE(stub.fd, 0);
  std::vector<int> conns;
  std::thread backend([&] {
    std::vector<std::string> lines;
    while (lines.size() < 2) {
      const int c = ::accept(stub.fd, nullptr, nullptr);
      if (c < 0) return;  // listener closed: test over
      conns.push_back(c);
      lines.push_back(read_line(c));
    }
    for (std::size_t i = 0; i < lines.size(); ++i) answer(conns[i], lines[i]);
  });

  service::GatewayOptions gopt;
  gopt.backends = {"127.0.0.1:" + std::to_string(stub.port)};
  service::Gateway gw(gopt);
  constexpr std::int64_t kDeadlineMs = 4000;
  std::vector<WireResponse> got(2);
  std::vector<std::chrono::milliseconds> took(2);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < 2; ++i) {
    callers.emplace_back([&, i] {
      WireRequest req;
      req.id = static_cast<std::int64_t>(i) + 1;
      req.queries = {"MKVAWWDDAEAG"};
      req.deadline_ms = kDeadlineMs;
      const auto t0 = std::chrono::steady_clock::now();
      got[i] = gw.submit(req)->wait();
      took[i] = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0);
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(got[i].ok) << "request " << i << ": " << got[i].message;
    EXPECT_FALSE(got[i].incomplete) << "request " << i;
    EXPECT_LT(took[i].count(), kDeadlineMs / 4) << "request " << i;
  }
  gw.shutdown();
  stub.close();
  backend.join();
  for (int c : conns) ::close(c);
}

// A shard killed with several legs in flight: every request comes back
// incomplete with the live shard's exact hits, none outlives its
// deadline, and once the shard is back on its port the next request is
// complete over a new connection.
TEST(Gateway, ShardKilledWithLegsInFlightThenRestarted) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  const auto seqs = make_workload(251, 120);
  const auto queries = make_queries(252, 2, 90);
  const std::size_t half = seqs.size() / 2;
  auto shard = [&](std::size_t first, std::size_t end) {
    seq::Database db(
        m.alphabet(),
        std::vector<seq::Sequence>(seqs.begin() + static_cast<long>(first),
                                   seqs.begin() + static_cast<long>(end)));
    service::ServiceOptions sopt = service_opt();
    sopt.global_index_map.resize(end - first);
    std::iota(sopt.global_index_map.begin(), sopt.global_index_map.end(),
              first);
    return std::make_unique<service::AlignService>(m, cfg, std::move(db),
                                                   sopt);
  };
  const auto live = shard(0, half);
  service::TcpServer live_srv(*live);
  live_srv.start();

  // The shard to kill holds every request it reads, unanswered.
  auto doomed = std::make_unique<StubListener>();
  ASSERT_GE(doomed->fd, 0);
  const std::uint16_t doomed_port = doomed->port;
  std::mutex held_mu;
  std::vector<int> held;
  std::thread holder([&, lfd = doomed->fd] {
    for (;;) {
      const int c = ::accept(lfd, nullptr, nullptr);
      if (c < 0) return;  // listener closed: killed
      read_line(c);
      const std::lock_guard<std::mutex> lock(held_mu);
      held.push_back(c);
    }
  });
  auto held_count = [&] {
    const std::lock_guard<std::mutex> lock(held_mu);
    return held.size();
  };

  service::GatewayOptions gopt;
  gopt.backends = {"127.0.0.1:" + std::to_string(live_srv.port()),
                   "127.0.0.1:" + std::to_string(doomed_port)};
  gopt.connect_timeout_ms = 500;
  service::Gateway gw(gopt);

  WireRequest req;
  req.queries = queries;
  req.top_k = 5;
  req.deadline_ms = 10000;
  const WireResponse live_resp = live->execute(req);
  ASSERT_TRUE(live_resp.ok) << live_resp.message;

  constexpr std::size_t kInFlight = 3;
  const std::uint64_t reconnects_before = counter("gateway.reconnects");
  std::vector<WireResponse> got(kInFlight);
  std::vector<std::chrono::milliseconds> took(kInFlight);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    callers.emplace_back([&, i] {
      WireRequest r = req;
      r.id = static_cast<std::int64_t>(i) + 1;
      const auto t0 = std::chrono::steady_clock::now();
      got[i] = gw.submit(r)->wait();
      took[i] = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0);
    });
  }
  for (int i = 0; i < 5000 && held_count() < kInFlight; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(held_count(), kInFlight) << "legs in flight on the shard";

  // Kill: the listener and every held connection go at once.
  doomed->close();
  holder.join();
  for (int c : held) ::close(c);
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(got[i].ok) << "request " << i << ": " << got[i].message;
    EXPECT_TRUE(got[i].incomplete) << "request " << i;
    EXPECT_LT(took[i].count(), req.deadline_ms) << "request " << i;
    ASSERT_EQ(got[i].results.size(), queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto& hits = got[i].results[qi].hits;
      const auto& want = live_resp.results[qi].hits;
      ASSERT_EQ(hits.size(), want.size()) << "request " << i;
      for (std::size_t h = 0; h < hits.size(); ++h) {
        EXPECT_EQ(hits[h].index, want[h].index);
        EXPECT_EQ(hits[h].score, want[h].score);
      }
    }
  }

  // Restart on the same port: the next request is whole again.
  const auto restarted = shard(half, seqs.size());
  service::TcpServerOptions topt;
  topt.port = doomed_port;
  service::TcpServer restarted_srv(*restarted, topt);
  restarted_srv.start();
  service::AlignService single(m, cfg, seq::Database(m.alphabet(), seqs),
                               service_opt());
  const WireResponse want = single.execute(req);
  ASSERT_TRUE(want.ok) << want.message;
  const WireResponse resp = gw.submit(req)->wait();
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_FALSE(resp.incomplete);
  ASSERT_EQ(resp.results.size(), want.results.size());
  for (std::size_t qi = 0; qi < want.results.size(); ++qi) {
    const auto& hits = resp.results[qi].hits;
    ASSERT_EQ(hits.size(), want.results[qi].hits.size());
    for (std::size_t h = 0; h < hits.size(); ++h) {
      EXPECT_EQ(hits[h].index, want.results[qi].hits[h].index);
      EXPECT_EQ(hits[h].score, want.results[qi].hits[h].score);
    }
  }
  EXPECT_GT(counter("gateway.reconnects"), reconnects_before);

  gw.shutdown();
  restarted_srv.request_stop();
  restarted_srv.join();
  live_srv.request_stop();
  live_srv.join();
}
