// Work-stealing thread pool for the search layer: the paper's Sec. V-E
// "dynamic binding" of work items to threads.
//
// Each worker owns a deque of item indices (striped initial distribution,
// so a length-sorted workload starts balanced); the owner pops from the
// front and idle workers steal the back *half* of a victim's deque.
// Compared with a shared-atomic-counter queue this keeps the pool scalable
// when many heterogeneous tile streams (multi-query batches) are in flight
// at once, and no worker idles while any deque has items.
//
// Cancellation: the entry point accepts an optional core::CancelToken.
// Workers poll it once per item; when it fires, every worker stops picking
// up work, the spawned threads join (the pool is immediately reusable),
// and - if any item was left unexecuted - the call throws
// core::CancelledError. Items completed before the stop keep their
// effects; a run whose items all finished despite a late-firing token
// returns normally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/cancel.h"

namespace aalign::search {

// Counters of one parallel run (all-worker totals).
struct PoolStats {
  std::uint64_t steals = 0;        // successful steal-half operations
  std::uint64_t stolen_items = 0;  // items migrated by those steals: each
                                   // counted once, when a worker other
                                   // than its first owner runs it
  std::uint64_t steal_scans = 0;   // victim scans that found nothing
};

// Runs fn(worker_id, item_index) for every index in [0, count) across
// `threads` workers using per-worker deques with steal-half semantics.
// Blocks until all items complete. Exceptions thrown by fn are rethrown
// (first one wins) after all workers join; remaining items are abandoned.
// `stats`, when non-null, receives the run's steal counters.
void parallel_for_work_stealing(
    std::size_t count, int threads,
    const std::function<void(int, std::size_t)>& fn,
    PoolStats* stats = nullptr, const core::CancelToken* cancel = nullptr);

// Sensible default worker count for this machine.
int default_thread_count();

}  // namespace aalign::search
