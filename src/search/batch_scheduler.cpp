#include "search/batch_scheduler.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "obs/instrument.h"
#include "search/top_k.h"
#include "util/stopwatch.h"

namespace aalign::search {

namespace {

// Exact cache key: the encoded query followed by a fixed-size fingerprint
// of everything else a QueryContext depends on. Byte-compared on lookup,
// so hash collisions can never alias two different profiles.
std::vector<std::uint8_t> build_key(const AlignConfig& cfg,
                                    const core::QueryOptions& opt,
                                    std::span<const std::uint8_t> query) {
  std::vector<std::uint8_t> key(query.begin(), query.end());
  const auto push_int = [&key](long v) {
    for (int b = 0; b < 8; ++b) {
      key.push_back(static_cast<std::uint8_t>(v >> (b * 8)));
    }
  };
  push_int(static_cast<long>(cfg.kind));
  push_int(cfg.pen.query.open);
  push_int(cfg.pen.query.extend);
  push_int(cfg.pen.subject.open);
  push_int(cfg.pen.subject.extend);
  push_int(static_cast<long>(opt.strategy));
  push_int(static_cast<long>(opt.isa));
  push_int(static_cast<long>(opt.width));
  long thr_bits = 0;
  static_assert(sizeof(opt.hybrid.threshold) == sizeof(long));
  std::memcpy(&thr_bits, &opt.hybrid.threshold, sizeof(thr_bits));
  push_int(thr_bits);
  push_int(opt.hybrid.window);
  push_int(opt.hybrid.stride);
  return key;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

QueryProfileCache::QueryProfileCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::uint64_t QueryProfileCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}
std::uint64_t QueryProfileCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}
std::uint64_t QueryProfileCache::evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}
std::size_t QueryProfileCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

void QueryProfileCache::erase_slot_locked(
    const std::shared_ptr<Slot>& slot) {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (*it == slot) {
      auto range = index_.equal_range(slot->hash);
      for (auto iit = range.first; iit != range.second; ++iit) {
        if (iit->second == it) {
          index_.erase(iit);
          break;
        }
      }
      lru_.erase(it);
      return;
    }
  }
}

std::shared_ptr<const core::QueryContext> QueryProfileCache::get_or_build(
    const score::ScoreMatrix& matrix, const AlignConfig& cfg,
    const core::QueryOptions& opt, std::span<const std::uint8_t> query) {
  const std::vector<std::uint8_t> key = build_key(cfg, opt, query);
  const std::uint64_t hash = fnv1a(key);

  std::shared_ptr<Slot> slot;
  {
    MutexLock lock(mu_);
    auto range = index_.equal_range(hash);
    for (auto it = range.first; it != range.second; ++it) {
      if ((*it->second)->key == key) {
        slot = *it->second;
        lru_.splice(lru_.begin(), lru_, it->second);  // promote
        ++hits_;
        obs::registry().counter("cache.profile.hits").add(1);
        break;
      }
    }
    if (!slot) {
      ++misses_;
      obs::registry().counter("cache.profile.misses").add(1);
      slot = std::make_shared<Slot>();
      slot->key = key;
      slot->hash = hash;
      lru_.push_front(slot);
      index_.emplace(hash, lru_.begin());
      if (lru_.size() > capacity_) {
        // Evict the least-recently-used slot; in-flight users keep it
        // alive through their shared_ptr.
        erase_slot_locked(lru_.back());
        ++evictions_;
        obs::registry().counter("cache.profile.evictions").add(1);
      }
    }
  }

  // Build outside the cache lock; the per-slot lock makes the build
  // happen exactly once even when several threads miss simultaneously.
  MutexLock build_lock(slot->build_mu);
  if (!slot->ctx) {
    try {
      slot->ctx = std::make_shared<const core::QueryContext>(matrix, cfg,
                                                             opt, query);
    } catch (...) {
      MutexLock lock(mu_);
      erase_slot_locked(slot);
      throw;
    }
  }
  return slot->ctx;
}

BatchScheduler::BatchScheduler(const score::ScoreMatrix& matrix,
                               AlignConfig cfg, SearchOptions opt)
    : matrix_(matrix),
      cfg_(cfg),
      opt_(opt),
      cache_(kProfileCacheCapacity) {
  cfg_.validate();
}

std::vector<SearchResult> BatchScheduler::run(
    const std::vector<std::vector<std::uint8_t>>& queries,
    const seq::Database& db, const core::CancelToken* cancel) {
  if (core::stop_requested(cancel)) core::throw_cancelled(*cancel);
  const int threads =
      opt_.threads > 0 ? opt_.threads : default_thread_count();
  const std::size_t nq = queries.size();
  const std::size_t ns = db.size();

  const std::uint64_t hits0 = cache_.hits();
  const std::uint64_t misses0 = cache_.misses();
  const std::uint64_t evict0 = cache_.evictions();

  // Resolve every query's context up front (cheap next to the scan, and it
  // makes the LRU traffic exactly one lookup per query occurrence, so the
  // counters are scheduling-independent). The local vector pins the
  // contexts for the whole run even if the LRU evicts them meanwhile.
  std::vector<std::shared_ptr<const core::QueryContext>> ctxs;
  ctxs.reserve(nq);
  for (const auto& q : queries) {
    ctxs.push_back(cache_.get_or_build(matrix_, cfg_, opt_.query, q));
  }

  // Identical queries resolve to the same cached context; their database
  // scans would be bit-identical, so each distinct context is scanned once
  // ("group") and duplicates copy the group's results afterwards. (If the
  // LRU evicted a key between two occurrences, the rebuilt context is a
  // distinct pointer and the occurrences simply scan separately.)
  std::vector<std::size_t> group_of(nq);
  std::vector<std::size_t> group_primary;  // group -> first query occurrence
  {
    std::unordered_map<const core::QueryContext*, std::size_t> seen;
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const auto [it, inserted] =
          seen.emplace(ctxs[qi].get(), group_primary.size());
      if (inserted) group_primary.push_back(qi);
      group_of[qi] = it->second;
    }
  }
  const std::size_t ng = group_primary.size();

  // Stage one, per distinct query: signature screening over the sorted
  // database (docs/search.md). Masks live in stored database positions;
  // dropped subjects are skipped in the tile loop and carry
  // filter::kDroppedScore sentinels, trimmed after top-k selection.
  const bool filtered =
      filter::filter_active(opt_.filter.mode, cfg_.kind == AlignKind::Local);
  std::vector<std::vector<std::uint8_t>> alive;
  std::vector<filter::FilterStats> fstats;
  if (filtered) {
    const filter::SignatureIndex* idx = opt_.filter.index.get();
    if (idx == nullptr || !idx->matches(db)) {
      if (index_ == nullptr || !index_->matches(db)) {
        index_ =
            std::make_shared<filter::SignatureIndex>(db, opt_.filter.params);
      } else {
        obs::registry().counter("filter.index_reuses").add(1);
      }
      idx = index_.get();
    } else {
      // Prebuilt (store-served or caller-supplied) index: no rebuild.
      obs::registry().counter("filter.index_reuses").add(1);
    }
    alive.resize(ng);
    fstats.resize(ng);
    obs::ScopedTimer filter_timer(
        obs::registry().timer("phase.filter_scan"));
    for (std::size_t gi = 0; gi < ng; ++gi) {
      fstats[gi] = idx->scan(queries[group_primary[gi]], opt_.query.isa,
                             alive[gi], opt_.filter.threshold);
      obs::record_filter_stats(fstats[gi]);
    }
  }

  // Resolve the tile grid. Auto shard size targets ~8 tiles per worker per
  // query so stealing has granularity to work with, without shrinking
  // tiles into scheduling noise.
  std::size_t shard = opt_.shard_size;
  if (shard == 0) {
    shard = ns / (static_cast<std::size_t>(threads) * 8);
    shard = std::clamp<std::size_t>(shard, 16, 256);
  }
  shard = std::max<std::size_t>(1, std::min(shard, std::max<std::size_t>(1, ns)));

  struct Tile {
    std::size_t group;
    std::size_t begin;
    std::size_t end;  // subject positions in the (sorted) database
  };
  std::vector<Tile> tiles;
  if (ns > 0) {
    tiles.reserve(ng * ((ns + shard - 1) / shard));
    for (std::size_t gi = 0; gi < ng; ++gi) {
      for (std::size_t b = 0; b < ns; b += shard) {
        tiles.push_back(Tile{gi, b, std::min(ns, b + shard)});
      }
    }
  }

  // Per-worker accumulation: one workspace for the whole batch, one
  // (stats, promotions, saturated) slot per query group, one busy-time
  // integral. Merged single-threaded after the pool drains - no locks on
  // the hot path.
  struct QueryAcc {
    KernelStats stats;
    std::uint64_t promotions = 0;
    std::uint64_t saturated = 0;
  };
  struct WorkerState {
    core::WorkspaceSet ws;
    std::vector<QueryAcc> acc;
    double busy_seconds = 0.0;
  };
  std::vector<WorkerState> workers(
      static_cast<std::size_t>(std::max(1, threads)));
  for (auto& w : workers) w.acc.resize(ng);

  // Scores by ORIGINAL database index: each tile writes subject s at
  // db.original_index(s), so no remapped copy is needed afterwards.
  std::vector<std::vector<std::int32_t>> scores(ng);
  for (auto& s : scores) s.assign(ns, 0);

  obs::Histogram& tile_us = obs::registry().histogram("batch.tile_us");
  PoolStats pool_stats;
  util::Stopwatch wall;
  obs::ScopedTimer batch_timer(obs::registry().timer("phase.batch_run"));
  parallel_for_work_stealing(
      tiles.size(), threads,
      [&](int id, std::size_t ti) {
        util::Stopwatch tile_timer;
        WorkerState& w = workers[static_cast<std::size_t>(id)];
        const Tile& tile = tiles[ti];
        const core::QueryContext& ctx = *ctxs[group_primary[tile.group]];
        QueryAcc& acc = w.acc[tile.group];
        std::int32_t* out = scores[tile.group].data();
        const std::uint8_t* mask =
            filtered ? alive[tile.group].data() : nullptr;
        for (std::size_t s = tile.begin; s < tile.end; ++s) {
          std::int32_t& slot = out[db.original_index(s)];
          if (mask != nullptr && mask[s] == 0) {
            slot = filter::kDroppedScore;
            continue;
          }
          const core::AdaptiveResult ar =
              ctx.align(db.residues(s), w.ws, cancel);
          if (ar.cancelled) core::throw_cancelled(*cancel);
          slot = static_cast<std::int32_t>(ar.kernel.score);
          acc.promotions += static_cast<std::uint64_t>(ar.promotions);
          acc.saturated += ar.kernel.saturated ? 1 : 0;
          acc.stats += ar.kernel.stats;
        }
        const double tile_seconds = tile_timer.seconds();
        w.busy_seconds += tile_seconds;
        tile_us.record_at(id, static_cast<std::uint64_t>(tile_seconds * 1e6));
      },
      &pool_stats, cancel);
  batch_timer.stop();
  const double wall_seconds = wall.seconds();

  // Merge per-group, then hand every occurrence of the group its result:
  // earlier occurrences get a copy and the last one takes the original. A
  // duplicate's result (scores, top-k, stats) is exactly what its own scan
  // would have produced, since the inputs are byte-identical.
  std::vector<SearchResult> merged(ng);
  std::size_t computed_cells = 0;
  for (std::size_t gi = 0; gi < ng; ++gi) {
    SearchResult& res = merged[gi];
    res.seconds = wall_seconds;  // shared batch wall clock (documented)
    std::size_t scanned_residues = db.total_residues();
    if (filtered) {
      scanned_residues = 0;
      for (std::size_t s = 0; s < ns; ++s)
        if (alive[gi][s] != 0) scanned_residues += db.residues(s).size();
      res.filtered = true;
      res.filter_stats = fstats[gi];
    }
    res.cells = queries[group_primary[gi]].size() * scanned_residues;
    computed_cells += res.cells;
    res.gcups = util::gcups_cells(res.cells, wall_seconds);
    for (const WorkerState& w : workers) {
      res.promotions += w.acc[gi].promotions;
      res.saturated += w.acc[gi].saturated;
      res.stats += w.acc[gi].stats;
    }
    obs::record_kernel_stats(res.stats);
    obs::registry().counter("search.promotions").add(res.promotions);
    res.top = select_top_k(scores[gi], opt_.top_k);
    // Dropped subjects rank below every real survivor; trimming the
    // sentinels makes the filtered top-k a prefix-consistent subset of the
    // exhaustive ranking (the filter test layer's core invariant).
    while (!res.top.empty() && res.top.back().score == filter::kDroppedScore)
      res.top.pop_back();
    if (opt_.keep_all_scores) res.scores = std::move(scores[gi]);
  }
  std::vector<std::size_t> group_last(ng);
  for (std::size_t qi = 0; qi < nq; ++qi) group_last[group_of[qi]] = qi;
  std::vector<SearchResult> out(nq);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const std::size_t gi = group_of[qi];
    if (group_last[gi] == qi) {
      out[qi] = std::move(merged[gi]);
    } else {
      out[qi] = merged[gi];
    }
  }

  stats_ = BatchStats{};
  stats_.queries = nq;
  stats_.subjects = ns;
  stats_.tiles = tiles.size();
  stats_.shard_size = shard;
  stats_.threads = threads;
  stats_.cache_hits = cache_.hits() - hits0;
  stats_.cache_misses = cache_.misses() - misses0;
  stats_.cache_evictions = cache_.evictions() - evict0;
  stats_.pool = pool_stats;
  stats_.wall_seconds = wall_seconds;
  for (const WorkerState& w : workers) stats_.busy_seconds += w.busy_seconds;
  stats_.occupancy =
      wall_seconds > 0.0
          ? stats_.busy_seconds / (static_cast<double>(threads) * wall_seconds)
          : 0.0;
  stats_.dedup_queries = nq - ng;
  stats_.cells = computed_cells;
  stats_.gcups = util::gcups_cells(computed_cells, wall_seconds);
  obs::record_batch_stats(stats_);
  std::uint64_t align_calls = static_cast<std::uint64_t>(ng) * ns;
  if (filtered) {
    align_calls = 0;
    for (const filter::FilterStats& fs : fstats) align_calls += fs.survivors;
  }
  obs::registry().counter("search.align_calls").add(align_calls);
  return out;
}

}  // namespace aalign::search
