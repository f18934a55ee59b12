// The obs/ metrics registry and JSON export path: sharded counters must
// sum exactly under concurrent writers, histogram log2 bucket edges must
// match the documented contract, scoped timers must nest safely, and the
// run document written by every binary must round-trip through the JSON
// parser and pass the same validator the CI perf gate relies on, and a
// search's kernel statistics must reach the registry unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/instrument.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "search/database_search.h"
#include "seq/generator.h"

using namespace aalign;

namespace {

// Keeps the timed busy-loop from being optimized away.
void benchmark_sink(std::uint64_t v) {
  asm volatile("" : : "r"(v) : "memory");
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Counter, WeightedAddsAndReset) {
  obs::Counter c;
  c.add(3);
  c.add_at(5, 7);  // explicit shard; any shard contributes to the sum
  EXPECT_EQ(c.value(), 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// Bucket 0 holds {0}; bucket b >= 1 holds [2^(b-1), 2^b). The edges are
// part of the export schema, so pin them at compile time.
static_assert(obs::histogram_bucket_of(0) == 0);
static_assert(obs::histogram_bucket_of(1) == 1);
static_assert(obs::histogram_bucket_of(2) == 2);
static_assert(obs::histogram_bucket_of(3) == 2);
static_assert(obs::histogram_bucket_of(4) == 3);
static_assert(obs::histogram_bucket_of(7) == 3);
static_assert(obs::histogram_bucket_of(8) == 4);
static_assert(obs::histogram_bucket_of(std::uint64_t{1} << 40) == 41);
static_assert(obs::histogram_bucket_of(~std::uint64_t{0}) ==
              obs::kHistogramBuckets - 1);
static_assert(obs::histogram_bucket_low(0) == 0);
static_assert(obs::histogram_bucket_low(1) == 1);
static_assert(obs::histogram_bucket_low(2) == 2);
static_assert(obs::histogram_bucket_low(3) == 4);
static_assert(obs::histogram_bucket_low(41) == std::uint64_t{1} << 40);

TEST(Histogram, BucketEdgesAndAggregates) {
  obs::Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1023ull, 1024ull}) {
    h.record(v);
  }
  const obs::HistogramSnapshot s = h.snapshot("edges");
  EXPECT_EQ(s.name, "edges");
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1024u);
  ASSERT_EQ(s.buckets.size(),
            static_cast<std::size_t>(obs::kHistogramBuckets));
  EXPECT_EQ(s.buckets[0], 1u);   // {0}
  EXPECT_EQ(s.buckets[1], 1u);   // [1,2)
  EXPECT_EQ(s.buckets[2], 2u);   // [2,4): 2, 3
  EXPECT_EQ(s.buckets[3], 1u);   // [4,8): 4
  EXPECT_EQ(s.buckets[10], 1u);  // [512,1024): 1023
  EXPECT_EQ(s.buckets[11], 1u);  // [1024,2048): 1024
}

TEST(Histogram, ConcurrentRecordsCountExactly) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& w : workers) w.join();
  const obs::HistogramSnapshot s = h.snapshot("conc");
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, kThreads * kPerThread - 1);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ScopedTimer, NestedScopesEachChargeTheirFullExtent) {
  obs::Timer outer_t, inner_t;
  {
    obs::ScopedTimer outer(outer_t);
    {
      obs::ScopedTimer inner(inner_t);
      // Make the inner extent observable at steady_clock resolution.
      std::uint64_t sink = 0;
      for (int i = 0; i < 200000; ++i) sink += static_cast<std::uint64_t>(i);
      benchmark_sink(sink);
    }
  }
  const obs::TimerSnapshot out = outer_t.snapshot("outer");
  const obs::TimerSnapshot in = inner_t.snapshot("inner");
  EXPECT_EQ(out.count, 1u);
  EXPECT_EQ(in.count, 1u);
  // The outer scope strictly contains the inner one.
  EXPECT_GE(out.total_ns, in.total_ns);
  EXPECT_GT(in.total_ns, 0u);
}

TEST(ScopedTimer, StopIsIdempotent) {
  obs::Timer t;
  {
    obs::ScopedTimer s(t);
    s.stop();
    s.stop();  // second stop and the destructor must both be no-ops
  }
  const obs::TimerSnapshot snap = t.snapshot("stop");
  EXPECT_EQ(snap.count, 1u);
}

TEST(Registry, SameNameReturnsSameObject) {
  obs::Registry& r = obs::registry();
  obs::Counter& a = r.counter("test.registry.idempotent");
  obs::Counter& b = r.counter("test.registry.idempotent");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = r.histogram("test.registry.hist");
  obs::Histogram& hb = r.histogram("test.registry.hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(Registry, SnapshotAndResetRoundTrip) {
  obs::Registry& r = obs::registry();
  r.reset();
  r.counter("test.snap.counter").add(42);
  r.histogram("test.snap.hist").record(17);
  const obs::Snapshot snap = r.snapshot();
  EXPECT_EQ(snap.counter("test.snap.counter"), 42u);
  const obs::HistogramSnapshot* h = snap.histogram("test.snap.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 17u);
  r.reset();
  EXPECT_EQ(r.snapshot().counter("test.snap.counter"), 0u);
}

TEST(Json, RoundTripPreservesStructureAndIntegers) {
  obs::Json doc = obs::Json::object();
  doc.set("name", "round-trip \"quoted\" \n\t\\");
  doc.set("count", std::uint64_t{1234567890123});
  doc.set("ratio", 1.5);  // exactly representable: survives re-parsing
  doc.set("flag", true);
  doc.set("nothing", nullptr);
  obs::Json arr = obs::Json::array();
  arr.push_back(1);
  arr.push_back(0.25);
  arr.push_back("x");
  doc.set("items", std::move(arr));
  obs::Json nested = obs::Json::object();
  nested.set("k", -7);
  doc.set("nested", std::move(nested));

  for (int indent : {-1, 2}) {
    std::string err;
    const obs::Json back = obs::Json::parse(doc.dump(indent), &err);
    EXPECT_EQ(err, "");
    EXPECT_EQ(back.dump(-1), doc.dump(-1)) << "indent=" << indent;
    EXPECT_EQ(back["count"].as_int(), 1234567890123);
    EXPECT_EQ(back["items"].at(1).as_double(), 0.25);
  }
}

TEST(Export, RunDocumentValidatesAndRoundTrips) {
  obs::Registry& r = obs::registry();
  r.reset();
  r.counter("kernel.columns").add(128);
  r.histogram("batch.tile_us").record(64);
  const obs::Snapshot snap = r.snapshot();

  obs::RunMeta meta;
  meta.tool = "test_metrics";
  meta.isa = "scalar";
  meta.threads = 2;
  obs::Json workload = obs::Json::object();
  workload.set("query_len", 150);
  obs::Json series = obs::Json::object();
  obs::Json rows = obs::Json::array();
  obs::Json row = obs::Json::object();
  row.set("query", "q0");
  row.set("seconds", 0.5);
  rows.push_back(std::move(row));
  series.set("results", std::move(rows));

  obs::Json doc =
      obs::make_run_document(meta, std::move(workload), std::move(series),
                             &snap);
  obs::Json headline = obs::Json::object();
  headline.set("name", "gcups");
  headline.set("value", 1.25);
  doc.set("headline", std::move(headline));

  EXPECT_EQ(obs::validate_run_document(doc), "");
  EXPECT_EQ(doc["schema"].as_string(), obs::kSchemaName);
  EXPECT_EQ(doc["schema_version"].as_int(), obs::kSchemaVersion);
  EXPECT_EQ(doc["run"]["tool"].as_string(), "test_metrics");
  EXPECT_EQ(doc["run"]["threads"].as_int(), 2);

  std::string err;
  const obs::Json back = obs::Json::parse(doc.dump(2), &err);
  EXPECT_EQ(err, "");
  EXPECT_EQ(back.dump(-1), doc.dump(-1));
  EXPECT_EQ(obs::validate_run_document(back), "");
  EXPECT_EQ(back["metrics"]["counters"]["kernel.columns"].as_int(), 128);
}

TEST(Export, ValidatorRejectsBrokenDocuments) {
  obs::RunMeta meta;
  meta.tool = "test_metrics";
  obs::Json doc = obs::make_run_document(meta, obs::Json(), obs::Json(),
                                         nullptr);
  EXPECT_EQ(obs::validate_run_document(doc), "");

  obs::Json wrong_version = doc;
  wrong_version.set("schema_version", 1);
  EXPECT_NE(obs::validate_run_document(wrong_version), "");

  obs::Json no_schema = doc;
  no_schema.set("schema", "something.else");
  EXPECT_NE(obs::validate_run_document(no_schema), "");

  obs::Json bad_headline = doc;
  obs::Json h = obs::Json::object();
  h.set("name", "x");  // missing numeric "value"
  bad_headline.set("headline", std::move(h));
  EXPECT_NE(obs::validate_run_document(bad_headline), "");
}

AlignConfig local_affine() {
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  return cfg;
}

// End-to-end: a real (tiny) database search must flow through the
// instrumentation fan-out and land in the registry under the documented
// names.
TEST(Integration, SmallSearchPopulatesKernelCounters) {
  obs::registry().reset();

  const auto& m = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(7);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(80).residues);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(12, 100.0, 0.5, 40, 200));

  search::SearchOptions opt;
  opt.threads = 1;
  opt.top_k = 3;
  search::DatabaseSearch search(m, local_affine(), opt);
  const search::SearchResult res = search.search(query, db);
  ASSERT_EQ(res.scores.size(), db.size());

  const obs::Snapshot snap = obs::registry().snapshot();
  EXPECT_GT(snap.counter("kernel.columns"), 0u);
  EXPECT_GT(snap.counter("search.align_calls"), 0u);
}

// The hybrid's mode changes (Sec. V-B) and its column mix reach the
// registry only through the search result's KernelStats: after a reset,
// the registry's counters equal the result's fields exactly.
TEST(Integration, HybridCountersReachTheRegistry) {
  const auto& m = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(11);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(120).residues);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(16, 150.0, 0.5, 60, 300));

  search::SearchOptions opt;
  opt.threads = 1;
  opt.top_k = 3;
  // Aggressive hybrid parameters so the switching machinery triggers
  // inside short sequences (as in test_kernels).
  opt.query.hybrid.window = 2;
  opt.query.hybrid.stride = 4;
  opt.query.hybrid.threshold = 0.05;
  search::DatabaseSearch search(m, local_affine(), opt);

  obs::registry().reset();
  const search::SearchResult res = search.search(query, db);
  ASSERT_EQ(res.scores.size(), db.size());
  ASSERT_GT(res.stats.switches, 0u);

  const obs::Snapshot snap = obs::registry().snapshot();
  EXPECT_EQ(snap.counter("hybrid.switches"), res.stats.switches);
  EXPECT_EQ(snap.counter("kernel.scan_columns"), res.stats.scan_columns);
  EXPECT_EQ(snap.counter("kernel.iterate_columns"),
            res.stats.iterate_columns);
}

}  // namespace
