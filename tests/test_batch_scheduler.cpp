// BatchScheduler: the batched many-query search must be bit-identical to
// the serial per-subject oracle (test_helpers.h) for every thread count x
// shard size x top_k combination; the profile LRU must behave like a
// textbook LRU with exact counters; hits must carry ORIGINAL database
// indices; the first filtered scans of a mapped index, made at once,
// verify its signatures once.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <latch>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/sequential.h"
#include "obs/metrics.h"
#include "search/batch_scheduler.h"
#include "search/database_search.h"
#include "search/inter_search.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "store/builder.h"
#include "store/loader.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

std::vector<seq::Sequence> make_seqs(std::uint64_t seed, std::size_t count,
                                     double median_len = 100.0) {
  seq::SequenceGenerator gen(seed);
  return gen.protein_database(count, median_len, 0.6, 10, 400);
}

seq::Database make_db(std::uint64_t seed, std::size_t count,
                      double median_len = 100.0) {
  return seq::Database(score::Alphabet::protein(),
                       make_seqs(seed, count, median_len));
}

std::vector<std::vector<std::uint8_t>> make_queries(std::uint64_t seed) {
  seq::SequenceGenerator gen(seed);
  std::vector<std::vector<std::uint8_t>> qs;
  for (std::size_t len : {60, 150, 90, 220}) {
    qs.push_back(score::Alphabet::protein().encode(gen.protein(len).residues));
  }
  qs.push_back(qs[1]);  // a repeat, so the profile cache gets a hit
  return qs;
}

// The central contract: batched == serial, bit for bit, over the full
// scheduling parameter grid.
TEST(BatchScheduler, BitIdenticalToSerialLoopAcrossGrid) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  const auto queries = make_queries(81);
  const seq::Database base_db = make_db(82, 90);

  // Serial oracle: one thread, one subject at a time, no scheduler.
  search::SearchOptions serial_opt;
  serial_opt.top_k = 10;
  std::vector<search::SearchResult> oracle;
  for (const auto& q : queries) {
    seq::Database db = base_db;
    oracle.push_back(test::serial_search(m, cfg, serial_opt, q, db));
  }

  for (int threads : {1, 2, 8}) {
    for (std::size_t shard : {std::size_t{1}, std::size_t{7}, std::size_t{0},
                              std::size_t{64}}) {
      for (std::size_t top_k : {std::size_t{0}, std::size_t{3},
                                std::size_t{10}}) {
        search::SearchOptions opt;
        opt.threads = threads;
        opt.shard_size = shard;
        opt.top_k = top_k;
        seq::Database db = base_db;
        const auto got =
            search::DatabaseSearch(m, cfg, opt).search_many(queries, db);
        ASSERT_EQ(got.size(), oracle.size());
        for (std::size_t qi = 0; qi < got.size(); ++qi) {
          EXPECT_EQ(got[qi].scores, oracle[qi].scores)
              << "threads=" << threads << " shard=" << shard
              << " top_k=" << top_k << " query=" << qi;
          ASSERT_EQ(got[qi].top.size(), std::min(top_k, base_db.size()));
          for (std::size_t k = 0; k < got[qi].top.size(); ++k) {
            EXPECT_EQ(got[qi].top[k].index, oracle[qi].top[k].index);
            EXPECT_EQ(got[qi].top[k].score, oracle[qi].top[k].score);
          }
        }
      }
    }
  }
}

TEST(BatchScheduler, StatsAreCoherent) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  search::SearchOptions opt;
  opt.threads = 4;
  opt.shard_size = 8;
  search::BatchScheduler sched(m, cfg, opt);

  const auto queries = make_queries(83);
  seq::Database db = make_db(84, 50);
  const auto results = sched.run(queries, db);
  const search::BatchStats& st = sched.last_stats();

  EXPECT_EQ(st.queries, queries.size());
  EXPECT_EQ(st.subjects, db.size());
  EXPECT_EQ(st.shard_size, 8u);
  EXPECT_EQ(st.threads, 4);
  // 4 distinct queries + 1 repeat: tiles are generated per distinct
  // query (the repeat is deduped), ceil(50 / 8) = 7 tiles each.
  EXPECT_EQ(st.tiles, 4u * 7u);
  EXPECT_EQ(st.dedup_queries, 1u);
  // Cold cache with default capacity: one lookup per occurrence.
  EXPECT_EQ(st.cache_misses, 4u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_evictions, 0u);
  EXPECT_GT(st.wall_seconds, 0.0);
  EXPECT_GT(st.busy_seconds, 0.0);
  EXPECT_GT(st.occupancy, 0.0);
  EXPECT_LE(st.occupancy, 1.0 + 1e-9);
  // Computed cells = sum over DISTINCT queries of |q| * total_residues;
  // the repeat's cells were never recomputed.
  std::size_t cells = 0;
  for (std::size_t qi = 0; qi + 1 < queries.size(); ++qi) {
    cells += queries[qi].size() * db.total_residues();
  }
  EXPECT_EQ(st.cells, cells);
  // Every result's seconds is the batch wall clock.
  for (const auto& r : results) {
    EXPECT_DOUBLE_EQ(r.seconds, st.wall_seconds);
  }
}

// A query repeated at the first, a middle and the last batch position,
// among distinct queries: every occurrence - the copies handed to the
// earlier ones as well as the result moved into the last - carries the
// full score vector and top-k of its own serial scan.
TEST(BatchScheduler, DuplicateQueryOccurrencesMatchOracle) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  const auto distinct = make_queries(87);
  const std::vector<std::uint8_t>& dup = distinct[2];
  const std::vector<std::vector<std::uint8_t>> queries = {
      dup, distinct[0], distinct[1], dup, distinct[3], dup};
  const seq::Database base_db = make_db(88, 70);

  search::SearchOptions opt;
  opt.threads = 3;
  opt.shard_size = 9;
  opt.top_k = 8;
  opt.keep_all_scores = true;
  seq::Database db = base_db;
  search::BatchScheduler sched(m, cfg, opt);
  const auto got = sched.run(queries, db);
  EXPECT_EQ(sched.last_stats().dedup_queries, 2u);

  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    seq::Database oracle_db = base_db;
    const search::SearchResult want =
        test::serial_search(m, cfg, opt, queries[qi], oracle_db);
    ASSERT_EQ(got[qi].scores.size(), base_db.size()) << "query " << qi;
    EXPECT_EQ(got[qi].scores, want.scores) << "query " << qi;
    ASSERT_EQ(got[qi].top.size(), want.top.size()) << "query " << qi;
    for (std::size_t k = 0; k < want.top.size(); ++k) {
      EXPECT_EQ(got[qi].top[k].index, want.top[k].index) << "query " << qi;
      EXPECT_EQ(got[qi].top[k].score, want.top[k].score) << "query " << qi;
    }
  }
}

// One lookup per query occurrence (the scheduler resolves them in query
// order), so counters follow the textbook LRU trace exactly.
TEST(BatchScheduler, ProfileCacheEvictsLeastRecentlyUsed) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(85);
  const auto A = score::Alphabet::protein().encode(gen.protein(50).residues);
  const auto B = score::Alphabet::protein().encode(gen.protein(60).residues);
  const auto C = score::Alphabet::protein().encode(gen.protein(70).residues);

  search::QueryProfileCache cache(2);
  const core::QueryOptions qopt;
  const auto lookup = [&](const std::vector<std::uint8_t>& q) {
    cache.get_or_build(m, cfg, qopt, q);
  };

  // A, B: two cold misses fill the cache.
  lookup(A);
  lookup(B);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 2u);

  // C, A: C evicts A (LRU), then A misses again and evicts B.
  lookup(C);
  lookup(A);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // A, C: both resident now -> two hits, nothing evicted.
  lookup(A);
  lookup(C);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
}

// Same residues, different config -> different cache entries.
TEST(BatchScheduler, CacheKeyIncludesConfig) {
  const auto& m = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(87);
  const auto q = score::Alphabet::protein().encode(gen.protein(40).residues);

  search::QueryProfileCache cache(8);
  AlignConfig local;
  local.kind = AlignKind::Local;
  local.pen = Penalties::symmetric(10, 2);
  AlignConfig global = local;
  global.kind = AlignKind::Global;

  core::QueryOptions qopt;
  const auto c1 = cache.get_or_build(m, local, qopt, q);
  const auto c2 = cache.get_or_build(m, global, qopt, q);
  const auto c3 = cache.get_or_build(m, local, qopt, q);
  EXPECT_NE(c1.get(), c2.get());
  EXPECT_EQ(c1.get(), c3.get());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

// Hits must report ORIGINAL input indices even though the database stores
// its subjects longest first.
TEST(BatchScheduler, HitsCarryOriginalIndices) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(88);
  const seq::Sequence qseq = gen.protein(120, "Q");
  const auto query = score::Alphabet::protein().encode(qseq.residues);

  // Short planted homolog after longer decoys: length-sorting moves it,
  // original index must survive.
  std::vector<seq::Sequence> seqs = make_seqs(89, 40, 300.0);
  const std::size_t planted = seqs.size();
  seqs.push_back(
      seq::make_similar_subject(gen, qseq, {seq::Level::Hi, seq::Level::Hi}));
  const seq::Database db(score::Alphabet::protein(), seqs);

  search::SearchOptions opt;
  opt.threads = 3;
  opt.top_k = 1;
  const auto results =
      search::DatabaseSearch(m, cfg, opt).search_many({query}, db);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].top.size(), 1u);
  EXPECT_EQ(results[0].top[0].index, planted);
  EXPECT_TRUE(db.permuted());
  // scores[] is original-indexed too: verify against the oracle.
  EXPECT_EQ(results[0].scores[planted],
            core::align_sequential(m, cfg, query, db.by_original(planted).view()));
}

TEST(BatchScheduler, EmptyBatchAndEmptyDatabase) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  search::SearchOptions opt;
  opt.threads = 2;
  search::DatabaseSearch engine(m, cfg, opt);

  // No queries: no results, no crash.
  seq::Database db = make_db(90, 5);
  EXPECT_TRUE(engine.search_many({}, db).empty());

  // Empty database: per-query result with zero scores and no hits.
  seq::SequenceGenerator gen(91);
  const auto q = score::Alphabet::protein().encode(gen.protein(30).residues);
  seq::Database empty_db;
  const auto res = engine.search_many({q}, empty_db);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].scores.empty());
  EXPECT_TRUE(res[0].top.empty());

  // A zero-length query is rejected (QueryContext's own check).
  EXPECT_THROW(engine.search_many({{}}, db), std::invalid_argument);
}

// Workers share one QueryContext whose wider tiers are not built yet: when
// they all promote at the same moment, each tier is still built exactly
// once and every score is exact (run under TSan by the stress label).
TEST(BatchScheduler, SharedContextBuildsEachWiderTierOnce) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(91);
  const auto q = test::int32_scoring_query(rng);
  const auto subject = test::mutate(rng, q, 0.02, 0.0);
  const AlignConfig cfg;  // local
  const long expect = core::align_sequential(m, cfg, q, subject);
  ASSERT_GT(expect, std::numeric_limits<std::int16_t>::max());

  const core::QueryContext ctx(m, cfg, {}, q);
  const std::uint64_t wider = ctx.widths().size() - 1;
  const std::uint64_t before =
      obs::registry().counter("profile.lazy_builds").value();
  constexpr int kThreads = 4;
  std::vector<core::AdaptiveResult> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      core::WorkspaceSet ws;
      start.arrive_and_wait();
      got[t] = ctx.align(subject, ws);
    });
  }
  for (std::thread& th : pool) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t].kernel.score, expect) << "thread " << t;
    EXPECT_EQ(got[t].width, ScoreWidth::W32) << "thread " << t;
  }
  EXPECT_EQ(obs::registry().counter("profile.lazy_builds").value(),
            before + wider);
}

// The per-subject score vector holds int32_t. The narrowing from the
// kernels' `long` is exact: a local score past int16's rail (the W/C query
// against its close copy) and global scores far below int16's (a short
// query against very long subjects, forced onto the int32 tier) both equal
// the sequential oracle in every entry, from both executors.
TEST(BatchScheduler, Int32ScoreVectorsMatchSequential) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(95);

  AlignConfig local;
  local.kind = AlignKind::Local;
  local.pen = Penalties::symmetric(10, 2);
  const auto big = test::int32_scoring_query(rng);
  std::vector<std::vector<std::uint8_t>> local_seqs = {
      test::mutate(rng, big, 0.02, 0.0)};
  std::uniform_int_distribution<std::size_t> len(60, 320);
  for (int i = 0; i < 30; ++i) {
    local_seqs.push_back(test::random_protein(rng, len(rng)));
  }

  AlignConfig global;
  global.kind = AlignKind::Global;
  global.pen = Penalties::symmetric(10, 2);
  const auto small = test::random_protein(rng, 100);
  std::vector<std::vector<std::uint8_t>> global_seqs;
  for (std::size_t n : {20000, 40000, 26000, 33000}) {
    global_seqs.push_back(test::random_protein(rng, n));
  }

  struct Case {
    const char* name;
    AlignConfig cfg;
    ScoreWidth width;
    const std::vector<std::uint8_t>& query;
    const std::vector<std::vector<std::uint8_t>>& seqs;
  };
  for (const Case& c :
       {Case{"local", local, ScoreWidth::Auto, big, local_seqs},
        Case{"global_w32", global, ScoreWidth::W32, small, global_seqs}}) {
    SCOPED_TRACE(c.name);
    const seq::Database db = test::encoded_database(m.alphabet(), c.seqs);
    std::vector<long> expect(db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      expect[i] = core::align_sequential(m, c.cfg, c.query, c.seqs[i]);
    }

    search::SearchOptions opt;
    opt.threads = 2;
    opt.top_k = db.size();
    opt.keep_all_scores = true;
    opt.query.width = c.width;
    const auto got =
        search::BatchScheduler(m, c.cfg, opt).run({c.query}, db);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].scores.size(), db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(got[0].scores[i], expect[i]) << "subject " << i;
    }
    ASSERT_EQ(got[0].top.size(), db.size());
    EXPECT_EQ(got[0].top[0].score, *std::max_element(expect.begin(),
                                                     expect.end()));
    if (c.cfg.kind == AlignKind::Local) {
      EXPECT_GT(got[0].top[0].score, std::numeric_limits<std::int16_t>::max());
      // The inter engine is local only: every rung of its ladder, and the
      // int32 tier alone.
      for (const ScoreWidth w : {ScoreWidth::Auto, ScoreWidth::W32}) {
        search::SearchOptions iopt = opt;
        iopt.query.width = w;
        const auto inter =
            search::InterSequenceSearch(m, c.cfg.pen, iopt).search(c.query, db);
        ASSERT_EQ(inter.scores.size(), db.size());
        for (std::size_t i = 0; i < db.size(); ++i) {
          EXPECT_EQ(inter.scores[i], expect[i])
              << "inter " << to_string(w) << " subject " << i;
        }
      }
    } else {
      EXPECT_LT(got[0].top[0].score, std::numeric_limits<std::int16_t>::min());
    }
  }
}

// Filter-dropped subjects carry the int32 sentinel, which ranks below
// every kernel score: with top_k covering the whole database the sentinels
// are exactly the trimmed suffix, and every survivor is ranked.
TEST(BatchScheduler, DroppedSentinelIsTrimmedFromTopK) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  std::mt19937_64 rng(96);
  const auto query = test::random_protein(rng, 150);
  std::vector<std::vector<std::uint8_t>> seqs;
  std::uniform_int_distribution<std::size_t> len(60, 320);
  for (int i = 0; i < 60; ++i) {
    seqs.push_back(i < 4 ? test::mutate(rng, query, 0.1, 0.02)
                         : test::random_protein(rng, len(rng)));
  }
  const seq::Database db = test::encoded_database(m.alphabet(), seqs);

  search::SearchOptions opt;
  opt.threads = 2;
  opt.top_k = db.size();
  opt.keep_all_scores = true;
  opt.filter.mode = filter::FilterMode::On;
  const auto got = search::BatchScheduler(m, cfg, opt).run({query}, db);
  ASSERT_EQ(got.size(), 1u);
  const search::SearchResult& res = got[0];
  ASSERT_TRUE(res.filtered);
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (res.scores[i] == filter::kDroppedScore) continue;
    ++survivors;
    EXPECT_EQ(res.scores[i],
              core::align_sequential(m, cfg, query, seqs[i]))
        << "subject " << i;
  }
  ASSERT_GT(survivors, 0u);
  ASSERT_LT(survivors, db.size()) << "the filter dropped nothing";
  EXPECT_EQ(survivors, res.filter_stats.survivors);
  ASSERT_EQ(res.top.size(), survivors);
  for (const search::SearchHit& hit : res.top) {
    EXPECT_NE(hit.score, filter::kDroppedScore);
    EXPECT_EQ(hit.score, res.scores[hit.index]);
  }
}

}  // namespace

// Four schedulers make the first filtered scan of one freshly opened
// Directory index at once: the signature sections are hashed exactly once
// and every scan gets the verdict - on a pristine file all four run and
// agree, on one with a SigBlob bit flipped all four throw
// store.section_checksum (run under TSan by the stress label).
TEST(BatchScheduler, ConcurrentFirstScansVerifySignaturesOnce) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  const std::vector<std::uint8_t> pristine =
      store::build_index_bytes(make_db(97, 300), m);
  store::SectionEntry blob;
  std::memcpy(&blob,
              pristine.data() + sizeof(store::Header) +
                  (static_cast<std::size_t>(store::SectionKind::SigBlob) - 1) *
                      sizeof(store::SectionEntry),
              sizeof blob);
  const std::string path = ::testing::TempDir() + "first_scans_" +
                           std::to_string(::getpid()) + ".aidx";
  const auto queries = make_queries(98);
  obs::Counter& verifies = obs::registry().counter("store.signature_verifies");

  for (const bool flip : {false, true}) {
    SCOPED_TRACE(flip ? "flipped" : "pristine");
    std::vector<std::uint8_t> bytes = pristine;
    if (flip) bytes[blob.offset + blob.bytes / 2] ^= 0x10;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    const store::MappedIndex idx =
        store::MappedIndex::open(path, store::Verify::Directory);
    const seq::Database db = idx.database();
    search::SearchOptions opt;
    opt.threads = 1;
    opt.top_k = 5;
    opt.filter.mode = filter::FilterMode::On;
    opt.filter.params = idx.filter_params();
    opt.filter.index = idx.signatures();
    const std::uint64_t before = verifies.value();

    constexpr int kThreads = 4;
    std::vector<std::vector<search::SearchResult>> got(kThreads);
    std::vector<std::optional<store::StoreErrc>> error(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        search::BatchScheduler sched(m, cfg, opt);
        start.arrive_and_wait();
        try {
          got[t] = sched.run(queries, db);
        } catch (const store::StoreError& e) {
          error[t] = e.errc();
        }
      });
    }
    for (std::thread& th : pool) th.join();

    for (int t = 0; t < kThreads; ++t) {
      if (flip) {
        EXPECT_EQ(error[t], store::StoreErrc::SectionChecksum)
            << "thread " << t;
        continue;
      }
      ASSERT_FALSE(error[t].has_value()) << "thread " << t;
      ASSERT_EQ(got[t].size(), queries.size()) << "thread " << t;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_TRUE(got[t][q].filtered) << "thread " << t;
        EXPECT_EQ(got[t][q].scores, got[0][q].scores)
            << "thread " << t << " query " << q;
      }
    }
    EXPECT_EQ(verifies.value(), before + 1);
  }
  std::remove(path.c_str());
}
