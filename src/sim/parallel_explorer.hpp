#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/explorer.hpp"
#include "util/spill_store.hpp"
#include "util/worker_pool.hpp"

namespace tsb::sim {

/// Parallel breadth-first-style enumeration by work stealing.
///
/// Replaces the earlier level-synchronous design (expand / dedup / commit
/// phases with a full-pool rendezvous at every BFS level — the barrier
/// idles every worker at each level tail, which is most of the wall clock
/// on shallow-but-wide spaces). There are no levels and no barriers:
///
///   * Work items are lists of up to Options::chunk_configs freshly
///     discovered ConfigIds. Each worker owns a Chase-Lev-style deque — the
///     owner pushes and pops at the bottom, idle workers steal from the
///     top (here guarded by an uncontended per-deque spinlock rather than
///     the lock-free C11 protocol; the critical section is a couple of
///     index updates, and every acquisition moves one whole list).
///   * The visited set is sharded kShards ways by the top hash bits. A
///     worker expanding a chunk stages successors in per-shard batch
///     buffers and flushes a whole batch under one shard spinlock:
///     probe, allocate ids (one global fetch_add each), write words into
///     the shared segmented ConfigArena, record the parent edge, publish
///     the slot. Shard tables and arena segments are allocated
///     (first-touched) by the worker that grows them.
///   * Ids stay dense, but ids committed by different workers interleave,
///     so a worker's new ids are not contiguous. The worker keeps every id
///     its flushes commit during a chunk and, once the chunk is done,
///     visits them under one visitor-lock hold and pushes them as lists of
///     <= chunk_configs ids. Every per-chunk cost (deque traffic, the
///     visitor lock, the termination count, budget and checkpoint polls)
///     is therefore paid once per list, not once per configuration.
///   * Termination: a global count of discovered-but-unexpanded
///     configurations; a worker with an empty deque that fails to steal
///     exits when the count is zero (every item is counted from before it
///     becomes stealable until after its chunk is fully expanded AND its
///     candidates flushed, so zero really means drained).
///
/// Below Options::parallel_threshold discovered configurations the
/// calling thread runs a sequential warm phase against the same shard
/// tables (no locks, no pool) — small enumerations, the valency oracle's
/// common case, never pay for the machinery at all.
///
/// Determinism contract (relaxed from the old bit-identical rule; see
/// DESIGN.md "work-stealing soundness"): on COMPLETE runs the visited
/// configuration SET — and therefore the visited count and any
/// order-independent visitor verdict — is identical to the sequential
/// Explorer's. Discovery order, id assignment, and witness schedules are
/// not; witnesses remain valid P-only schedules (parents always commit
/// before children) and every consumer replay-verifies them. Truncated
/// runs stop at machine-dependent points but never claim completeness,
/// so budget/cap truncation still proves positives, never negatives.
/// Visitors run serialized under one mutex (possibly from different
/// threads, with happens-before between consecutive calls), so existing
/// single-threaded visitors stay correct unchanged.
class ParallelExplorer {
 public:
  struct Options {
    std::size_t max_configs = 2'000'000;
    int threads = 0;  ///< worker threads; 0 = hardware concurrency
    /// Same meaning as Explorer::Options::stats_min_visited.
    std::size_t stats_min_visited = 10'000;
    /// Most ids per stealable work item: the deque handoff granularity.
    std::uint32_t chunk_configs = 256;
    /// Stay on the sequential warm path until this many configurations
    /// are discovered; spaces smaller than this never touch the pool.
    std::size_t parallel_threshold = 32'768;
  };

  using Result = ExploreResult;

  explicit ParallelExplorer(const Protocol& proto)
      : ParallelExplorer(proto, Options{}) {}
  ParallelExplorer(const Protocol& proto, Options opts);
  ~ParallelExplorer();

  int threads() const { return pool_.size(); }

  /// Same graceful-degradation contract as Explorer::set_budget: trip the
  /// memory or wall budget and explore() returns truncated +
  /// budget_exhausted. Budget truncation points are machine-dependent.
  void set_budget(std::size_t max_arena_bytes,
                  std::chrono::steady_clock::time_point deadline) {
    budget_bytes_ = max_arena_bytes;
    budget_deadline_ = deadline;
  }

  /// Out-of-core arena spilling; same contract as Explorer::set_spill.
  /// During work-stealing the spill itself runs at a stop-the-world
  /// rendezvous (workers park between chunks), so readers never race a
  /// segment teardown.
  bool set_spill(const std::string& dir, std::size_t threshold_bytes,
                 std::size_t seg_configs_hint = 0) {
    return arena_.set_spill(dir, threshold_bytes, seg_configs_hint);
  }

  /// Heap bytes this exploration owns: arena + parent edges + per-worker
  /// staging buffers + deques and their pending id lists + the sharded
  /// dedup tables. What
  /// set_budget() caps and the ledger's explore.* accounts report. Safe
  /// to call from any thread mid-run (all inputs are atomics or stable).
  std::size_t tracked_bytes() const;

  /// Discovered-but-unexpanded configurations right now; 0 after a
  /// complete run. Safe to call from any thread, including a visitor.
  std::size_t pending() const {
    const std::int64_t v = pending_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::size_t>(v) : 0;
  }

  template <typename Visit>
  Result explore(const Config& root, ProcSet p, Visit&& visit) {
    VisitFn fn = [](void* ctx, const ConfigView& v) {
      return (*static_cast<std::remove_reference_t<Visit>*>(ctx))(v);
    };
    return explore_impl(root, p, fn, &visit);
  }

  /// Schedule from the last explore()'s root to `target`; target must have
  /// been visited. Empty optional if it was not.
  std::optional<Schedule> witness(const Config& target) const;

  /// Same, by the id a visitor saw.
  std::optional<Schedule> witness_by_id(ConfigId id) const;

  /// Number of configurations interned by the last explore().
  std::size_t size() const { return arena_.size(); }

  ConfigView view(ConfigId id) const { return arena_.view(id); }

  /// Work-stealing forensics for the last explore() (also surfaced as
  /// sim.explore.* metrics, explore.ws stats records, and flight events).
  struct RunStats {
    std::uint64_t steals = 0;       ///< successful chunk steals
    std::uint64_t steal_fails = 0;  ///< full failed victim sweeps
    std::uint64_t idle_spins = 0;   ///< backoff rounds with no work found
    std::uint64_t chunks = 0;       ///< work items expanded
    std::uint64_t spill_pauses = 0; ///< stop-the-world spill rendezvous
    std::uint64_t warm_visited = 0; ///< configs from the sequential phase
    bool went_parallel = false;     ///< pool was engaged at all
  };
  const RunStats& last_run() const { return run_stats_; }

 private:
  static constexpr int kShards = 64;
  static constexpr std::uint32_t kEmptyRef = 0xFFFFFFFFu;
  static constexpr std::size_t kBatch = 48;  ///< candidates per shard flush

  using VisitFn = bool (*)(void*, const ConfigView&);

  /// A stealable list of <= chunk_configs discovered-but-unexpanded
  /// configuration ids. Built at exact capacity, so the id storage of all
  /// live items is pending_ * sizeof(ConfigId).
  using WorkItem = std::vector<ConfigId>;

  /// Chase-Lev-style deque: owner pushes/pops the bottom (LIFO keeps the
  /// owner in cache-warm ids), thieves take the top (oldest items first).
  /// A per-deque spinlock guards the index updates.
  struct alignas(64) Deque {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<WorkItem> buf;
    std::size_t top = 0;  ///< buf[top..) is live; buf.back() is the bottom
    std::atomic<std::size_t> cap_bytes{0};

    bool pop(WorkItem& out);     // owner, bottom
    bool steal(WorkItem& out);   // thief, top
    void push(WorkItem&& item);  // owner, bottom
    void clear();
  };

  /// One shard of the visited set: open addressing over (full hash,
  /// committed ConfigId), grown under the shard lock by the flushing
  /// worker (first-touch placement). `ref` is always a committed id whose
  /// words are already in the arena — publication happens inside the same
  /// lock hold, so a later probe can safely compare words through it.
  struct alignas(64) Shard {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    struct Slot {
      std::uint64_t hash = 0;
      std::uint32_t ref = kEmptyRef;
    };
    std::vector<Slot> slots;
    std::size_t mask = 0;
    std::size_t used = 0;

    void reset(std::atomic<std::size_t>& bytes);
    void reserve_for(std::size_t incoming, std::atomic<std::size_t>& bytes);
  };

  /// A successor staged for one shard: meta plus words at the matching
  /// index of the batch's word buffer.
  struct Cand {
    std::uint64_t hash;
    ConfigId parent;
    std::int32_t via;
  };

  struct Batch {
    std::vector<Cand> meta;
    std::vector<Value> words;
  };

  struct alignas(64) WorkerCtx {
    std::vector<Batch> batches;     ///< kShards staging buffers
    std::vector<Value> cur;         ///< copy of the config being expanded
    std::vector<ConfigId> fresh;    ///< ids committed during this chunk
    // Owner-written, other-thread-read (periodic stats): relaxed atomics.
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_fails{0};
    std::atomic<std::uint64_t> idle_spins{0};
    std::atomic<std::uint64_t> chunks{0};
    std::uint64_t dedup_delta = 0;    ///< dedup hits not yet in the registry
    std::uint64_t dedup_run = 0;      ///< dedup hits this run (stats.done)
  };

  /// Stop-the-world spill rendezvous: the requesting worker waits until
  /// every other still-active worker parks between chunks, spills with
  /// the arena quiesced, then releases. Workers that exit (termination)
  /// count themselves out.
  struct SpillSync {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> requested{false};  ///< checked lock-free between chunks
    int active = 0;
    int parked = 0;
  };

  Result explore_impl(const Config& root, ProcSet p, VisitFn fn, void* ctx);
  void worker_main(int t, ProcSet p, VisitFn fn, void* ctx,
                   obs::Heartbeat& hb);
  void expand_chunk(WorkerCtx& w, const WorkItem& item, ProcSet p,
                    VisitFn fn, void* vctx);
  /// Flush one shard's staged batch, appending committed ids to w.fresh.
  /// On reaching the cap it drops the rest of the batch and stops the run.
  void flush_shard(WorkerCtx& w, int s);
  /// At chunk end: visit every id the chunk committed, then push them as
  /// lists of <= chunk_configs ids and retire the chunk's `expanded` ids
  /// from the termination count.
  void publish_fresh(WorkerCtx& w, int self, std::size_t expanded,
                     VisitFn fn, void* vctx);
  void request_spill();
  /// Stop-the-world rendezvous (same SpillSync protocol as request_spill)
  /// so the checkpoint service can run its serializer — or unwind a
  /// requested stop as CheckpointStop — while every other worker is parked
  /// between chunks and no shared state is being mutated.
  void request_checkpoint();
  void park_for_spill();
  bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }
  void update_ledger() const;
  /// Parent edges + staging buffers + deques + pending id lists: the
  /// ledger's explore.frontier account.
  std::size_t frontier_bytes() const;
  std::size_t committed() const;
  void set_parent(ConfigId id, ConfigId parent, std::int32_t via) {
    parent_.ensure(std::size_t{id} + 1);
    std::uint32_t* rec = parent_.write_ptr(id);
    rec[0] = parent;
    rec[1] = static_cast<std::uint32_t>(via);
  }

  Shard& shard_of(std::uint64_t h) {
    return shards_[(h >> 58) & (kShards - 1)];
  }

  const Protocol& proto_;
  Options opts_;
  std::size_t budget_bytes_ = 0;
  std::chrono::steady_clock::time_point budget_deadline_ =
      std::chrono::steady_clock::time_point::max();

  ConfigArena arena_;
  /// Per id: (parent id, stepping process as u32). Workers committing
  /// disjoint ids write without coordination (the store's contract); read
  /// after the pool joins (witnesses) or for already-published ancestors.
  util::spill::SpillStore<std::uint32_t> parent_;
  std::vector<Shard> shards_;
  std::vector<Deque> deques_;
  std::vector<WorkerCtx> workers_;
  util::WorkerPool pool_;

  // Per-run shared state. The id counter and the termination count are
  // written by every worker; each gets its own cache line so the flags
  // polled per successor do not share one with them.
  alignas(64) std::atomic<std::uint64_t> next_id_{0};
  alignas(64) std::atomic<std::int64_t> pending_{0};
  alignas(64) std::atomic<bool> stop_{false};
  std::atomic<bool> truncated_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> budget_exhausted_{false};
  std::atomic<ConfigId> abort_id_{kNoConfig};
  std::atomic<std::size_t> shard_bytes_{0};
  std::mutex visit_mu_;
  SpillSync spill_;
  RunStats run_stats_;
  std::size_t visited_count_ = 0;  ///< committed() of the last run
};

}  // namespace tsb::sim
