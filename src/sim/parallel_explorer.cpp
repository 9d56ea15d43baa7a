#include "sim/parallel_explorer.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

#include "obs/span.hpp"

namespace tsb::sim {

namespace {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

inline void spin_lock(std::atomic_flag& f) {
  // Spin on a plain load (the holder keeps its cache line), and yield now
  // and then: when the scheduler stacks two workers on one CPU, a waiter
  // that only pauses would burn its whole time slice while the holder
  // sits preempted.
  int spins = 0;
  while (f.test_and_set(std::memory_order_acquire)) {
    while (f.test(std::memory_order_relaxed)) {
      if (++spins % 64 == 0) {
        std::this_thread::yield();
      } else {
        cpu_pause();
      }
    }
  }
}

inline void spin_unlock(std::atomic_flag& f) {
  f.clear(std::memory_order_release);
}

struct StealMetrics {
  obs::Counter& steals;
  obs::Counter& steal_fails;
  obs::Counter& idle_spins;
  obs::Counter& chunks;
};

StealMetrics& steal_metrics() {
  static StealMetrics m{
      obs::Registry::global().counter("sim.explore.steals"),
      obs::Registry::global().counter("sim.explore.steal_fails"),
      obs::Registry::global().counter("sim.explore.idle_spins"),
      obs::Registry::global().counter("sim.explore.chunks"),
  };
  return m;
}

}  // namespace

// --- Deque --------------------------------------------------------------

bool ParallelExplorer::Deque::pop(WorkItem& out) {
  spin_lock(lock);
  if (top == buf.size()) {
    spin_unlock(lock);
    return false;
  }
  out = std::move(buf.back());
  buf.pop_back();
  if (top == buf.size()) {
    buf.clear();
    top = 0;
  }
  spin_unlock(lock);
  return true;
}

bool ParallelExplorer::Deque::steal(WorkItem& out) {
  spin_lock(lock);
  if (top == buf.size()) {
    spin_unlock(lock);
    return false;
  }
  out = std::move(buf[top++]);
  if (top == buf.size()) {
    buf.clear();
    top = 0;
  } else if (top >= 1024 && top * 2 >= buf.size()) {
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(top));
    top = 0;
  }
  spin_unlock(lock);
  return true;
}

void ParallelExplorer::Deque::push(WorkItem&& item) {
  spin_lock(lock);
  buf.push_back(std::move(item));
  cap_bytes.store(buf.capacity() * sizeof(WorkItem),
                  std::memory_order_relaxed);
  spin_unlock(lock);
}

void ParallelExplorer::Deque::clear() {
  buf.clear();
  top = 0;
}

// --- Shard --------------------------------------------------------------

void ParallelExplorer::Shard::reset(std::atomic<std::size_t>&) {
  // Swap against a fresh table rather than assign(): assign() keeps the
  // prior run's capacity, so a reused explorer (the valency oracle runs
  // many queries through one instance) would hold every shard at its
  // high-water mark forever — and the next reserve_for would see a new
  // capacity *smaller* than `before`. The caller recomputes shard_bytes_
  // from the released capacities right after resetting every shard.
  std::vector<Slot>(std::size_t{1} << 10).swap(slots);
  mask = slots.size() - 1;
  used = 0;
}

void ParallelExplorer::Shard::reserve_for(std::size_t incoming,
                                          std::atomic<std::size_t>& bytes) {
  // Keep the load factor below 0.7 for the worst case where every incoming
  // candidate is new. Runs under the shard lock; the grown table is
  // allocated (first-touched) by the flushing worker.
  std::size_t needed = slots.size();
  while ((used + incoming) * 10 >= needed * 7) needed *= 2;
  if (needed == slots.size()) return;
  const std::size_t before = slots.capacity() * sizeof(Slot);
  std::vector<Slot> bigger(needed);
  const std::size_t bigger_mask = needed - 1;
  for (const Slot& s : slots) {
    if (s.ref == kEmptyRef) continue;
    std::size_t i = s.hash & bigger_mask;
    while (bigger[i].ref != kEmptyRef) i = (i + 1) & bigger_mask;
    bigger[i] = s;
  }
  slots = std::move(bigger);
  mask = bigger_mask;
  // Add-then-subtract instead of adding the difference: the counter always
  // includes `before`, so this never goes negative in aggregate, whereas a
  // single unsigned delta would wrap to ~2^64 if the new capacity were ever
  // smaller than the old one — corrupting tracked_bytes() and spuriously
  // tripping every later memory budget check.
  bytes.fetch_add(slots.capacity() * sizeof(Slot), std::memory_order_relaxed);
  bytes.fetch_sub(before, std::memory_order_relaxed);
}

// --- ParallelExplorer ---------------------------------------------------

ParallelExplorer::ParallelExplorer(const Protocol& proto, Options opts)
    : proto_(proto),
      opts_(opts),
      arena_(proto.num_processes(), proto.num_registers()),
      shards_(kShards),
      deques_(static_cast<std::size_t>(resolve_threads(opts.threads))),
      workers_(static_cast<std::size_t>(resolve_threads(opts.threads))),
      pool_(resolve_threads(opts.threads)) {
  // At least 1: the root is always interned.
  opts_.max_configs =
      std::clamp<std::size_t>(opts_.max_configs, 1, kNoConfig - 1);
  if (opts_.chunk_configs == 0) opts_.chunk_configs = 1;
  parent_.init("explore.parents", 2, 0);
  const std::size_t W = arena_.words_per_config();
  for (WorkerCtx& w : workers_) {
    w.batches.resize(kShards);
    for (Batch& b : w.batches) {
      b.meta.reserve(kBatch);
      b.words.reserve(kBatch * W);
    }
    w.cur.resize(W);
    // A chunk commits at most one child per (id, process) pair.
    w.fresh.reserve(std::size_t{opts_.chunk_configs} *
                    static_cast<std::size_t>(proto.num_processes()));
  }
}

ParallelExplorer::~ParallelExplorer() = default;

std::size_t ParallelExplorer::frontier_bytes() const {
  const std::size_t W = arena_.words_per_config();
  // Staging buffers are bounded by their reserve; counting the bound keeps
  // this callable from any worker without touching vector internals that
  // another thread might be growing.
  std::size_t bytes =
      parent_.resident_bytes() +
      workers_.size() *
          (kShards * kBatch * (W * sizeof(Value) + sizeof(Cand)) +
           W * sizeof(Value) +
           std::size_t{opts_.chunk_configs} *
               static_cast<std::size_t>(proto_.num_processes()) *
               sizeof(ConfigId)) +
      pending() * sizeof(ConfigId);
  for (const Deque& d : deques_) {
    bytes += d.cap_bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

std::size_t ParallelExplorer::tracked_bytes() const {
  return arena_.memory_bytes() + frontier_bytes() +
         shard_bytes_.load(std::memory_order_relaxed);
}

void ParallelExplorer::update_ledger() const {
  obs::MemLedger& ledger = obs::MemLedger::global();
  ledger.set(obs::MemAccount::kArenaWords, arena_.words_bytes());
  ledger.set(obs::MemAccount::kArenaTable, arena_.table_bytes());
  arena_.report_spill();
  ledger.set(obs::MemAccount::kExploreFrontier, frontier_bytes());
  ledger.set(obs::MemAccount::kExploreShards,
             shard_bytes_.load(std::memory_order_relaxed));
}

std::size_t ParallelExplorer::committed() const {
  const std::uint64_t raw = next_id_.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(raw, opts_.max_configs));
}

void ParallelExplorer::flush_shard(WorkerCtx& w, int s) {
  Batch& b = w.batches[static_cast<std::size_t>(s)];
  if (b.meta.empty()) return;
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  const std::size_t W = arena_.words_per_config();
  const std::uint64_t cap = opts_.max_configs;

  spin_lock(sh.lock);
  sh.reserve_for(b.meta.size(), shard_bytes_);
  for (std::size_t k = 0; k < b.meta.size(); ++k) {
    const Cand& c = b.meta[k];
    const Value* cw = b.words.data() + k * W;
    std::size_t i = c.hash & sh.mask;
    while (true) {
      Shard::Slot& slot = sh.slots[i];
      if (slot.ref == kEmptyRef) {
        const std::uint64_t raw =
            next_id_.fetch_add(1, std::memory_order_relaxed);
        if (raw >= cap) {
          // Cap reached: drop the rest of the batch. Nothing was inserted
          // for this candidate, so probe chains stay intact; the run is
          // truncated and never claims completeness.
          truncated_.store(true, std::memory_order_relaxed);
          stop_.store(true, std::memory_order_release);
          spin_unlock(sh.lock);
          b.meta.clear();
          b.words.clear();
          return;
        }
        const ConfigId id = static_cast<ConfigId>(raw);
        arena_.ensure_capacity(raw + 1);
        std::memcpy(arena_.slot_ptr(id), cw, W * sizeof(Value));
        set_parent(id, c.parent, c.via);
        slot.hash = c.hash;
        slot.ref = id;
        ++sh.used;
        w.fresh.push_back(id);
        break;
      }
      if (slot.hash == c.hash &&
          arena_.words_equal(arena_.words(slot.ref), cw)) {
        ++w.dedup_delta;
        break;
      }
      i = (i + 1) & sh.mask;
    }
  }
  spin_unlock(sh.lock);
  b.meta.clear();
  b.words.clear();
}

void ParallelExplorer::publish_fresh(WorkerCtx& w, int self,
                                     std::size_t expanded, VisitFn fn,
                                     void* vctx) {
  const std::size_t nfresh = w.fresh.size();
  if (nfresh != 0) {
    detail::explore_metrics().visited.add(nfresh);
    std::lock_guard<std::mutex> lk(visit_mu_);
    for (ConfigId id : w.fresh) {
      if (aborted_.load(std::memory_order_relaxed)) break;
      if (!fn(vctx, arena_.view(id))) {
        bool expected = false;
        if (aborted_.compare_exchange_strong(expected, true)) {
          abort_id_.store(id, std::memory_order_relaxed);
          stop_.store(true, std::memory_order_release);
        }
        break;
      }
    }
  }
  if (stopping()) {
    pending_.fetch_sub(static_cast<std::int64_t>(expanded));
  } else {
    // One update both counts the children and retires the expanded chunk,
    // before any child list becomes stealable: the termination count never
    // dips to zero with live work in a deque.
    pending_.fetch_add(static_cast<std::int64_t>(nfresh) -
                       static_cast<std::int64_t>(expanded));
    for (std::size_t i = 0; i < nfresh; i += opts_.chunk_configs) {
      const std::size_t len =
          std::min<std::size_t>(opts_.chunk_configs, nfresh - i);
      const auto first = w.fresh.begin() + static_cast<std::ptrdiff_t>(i);
      deques_[static_cast<std::size_t>(self)].push(
          WorkItem(first, first + static_cast<std::ptrdiff_t>(len)));
    }
  }
  w.fresh.clear();
}

void ParallelExplorer::expand_chunk(WorkerCtx& w, const WorkItem& item,
                                    ProcSet p, VisitFn fn, void* vctx) {
  const std::size_t W = arena_.words_per_config();
  const int n = arena_.num_states();
  const int self = static_cast<int>(&w - workers_.data());
  static thread_local std::vector<Value> succ;
  if (succ.size() < W) succ.resize(W);

  for (std::size_t i = 0; i < item.size() && !stopping(); ++i) {
    const ConfigId cur = item[i];
    // words() may hand back the thread-local decode buffer of a spilled
    // segment; copy so successor staging (which can itself decode other
    // spilled ids during dedup) cannot clobber the source.
    std::memcpy(w.cur.data(), arena_.words(cur), W * sizeof(Value));
    p.for_each([&](int q) {
      if (stopping()) return;
      const PendingOp op =
          proto_.poised(q, w.cur[static_cast<std::size_t>(q)]);
      if (op.is_decide()) return;  // terminated: no edge
      std::memcpy(succ.data(), w.cur.data(), W * sizeof(Value));
      apply_op(proto_, op, q, succ.data(), succ.data() + n);
      const std::uint64_t h = arena_.hash_words(succ.data());
      const int s = static_cast<int>((h >> 58) & (kShards - 1));
      Batch& b = w.batches[static_cast<std::size_t>(s)];
      const std::size_t k = b.meta.size();
      b.words.resize((k + 1) * W);
      std::memcpy(b.words.data() + k * W, succ.data(), W * sizeof(Value));
      b.meta.push_back(Cand{h, cur, q});
      if (b.meta.size() >= kBatch) flush_shard(w, s);
    });
  }
  if (stopping()) {
    for (Batch& b : w.batches) {
      b.meta.clear();
      b.words.clear();
    }
  } else {
    for (int s = 0; s < kShards; ++s) flush_shard(w, s);
  }
  // Ids committed before a stop are visited all the same: visited ==
  // committed() on every run.
  publish_fresh(w, self, item.size(), fn, vctx);
}

void ParallelExplorer::request_spill() {
  std::unique_lock<std::mutex> lk(spill_.mu);
  if (spill_.requested.load(std::memory_order_relaxed)) return;
  spill_.requested.store(true, std::memory_order_relaxed);
  spill_.cv.notify_all();
  spill_.cv.wait(lk, [&] { return spill_.parked >= spill_.active - 1; });
  // Quiesced: every other active worker is parked between chunks, so no
  // arena reads or writes are in flight anywhere.
  arena_.set_size(committed());
  std::size_t released = 0;
  try {
    released = arena_.maybe_spill(kNoConfig);
  } catch (...) {
    // Spill failure is fatal (BudgetExhausted), but the parked workers
    // must be released before the exception unwinds through the pool, or
    // they wait on `requested` forever.
    stop_.store(true, std::memory_order_release);
    spill_.requested.store(false, std::memory_order_relaxed);
    spill_.cv.notify_all();
    throw;
  }
  if (released != 0) {
    ++run_stats_.spill_pauses;
    obs::flight::record(
        obs::flight::Ev::kSpill, static_cast<std::int64_t>(released),
        static_cast<std::int64_t>(arena_.store().spilled_bytes()));
    update_ledger();
  }
  spill_.requested.store(false, std::memory_order_relaxed);
  spill_.cv.notify_all();
}

void ParallelExplorer::request_checkpoint() {
  std::unique_lock<std::mutex> lk(spill_.mu);
  if (spill_.requested.load(std::memory_order_relaxed)) return;
  spill_.requested.store(true, std::memory_order_relaxed);
  spill_.cv.notify_all();
  spill_.cv.wait(lk, [&] { return spill_.parked >= spill_.active - 1; });
  // Quiesced exactly like a spill pause: every other worker is parked
  // between chunks, the visitor is idle, and the query thread is blocked
  // in pool_.run() — so the checkpoint serializer may walk any session
  // state. Commit the arena size first so a serializer that reads this
  // explorer sees only fully published configurations.
  arena_.set_size(committed());
  try {
    util::ckpt::CheckpointService::global().poll(0);
  } catch (...) {
    // CheckpointStop (or a write failure) must release the parked workers
    // before unwinding through the pool, or they wait on `requested`
    // forever. stop_ makes them exit instead of resuming work.
    stop_.store(true, std::memory_order_release);
    spill_.requested.store(false, std::memory_order_relaxed);
    spill_.cv.notify_all();
    throw;
  }
  spill_.requested.store(false, std::memory_order_relaxed);
  spill_.cv.notify_all();
}

void ParallelExplorer::park_for_spill() {
  std::unique_lock<std::mutex> lk(spill_.mu);
  if (!spill_.requested.load(std::memory_order_relaxed)) return;
  ++spill_.parked;
  spill_.cv.notify_all();
  spill_.cv.wait(
      lk, [&] { return !spill_.requested.load(std::memory_order_relaxed); });
  --spill_.parked;
}

void ParallelExplorer::worker_main(int t, ProcSet p, VisitFn fn, void* vctx,
                                   obs::Heartbeat& hb) {
  WorkerCtx& w = workers_[static_cast<std::size_t>(t)];
  detail::ExploreMetrics& metrics = detail::explore_metrics();
  const int T = pool_.size();
  int backoff = 0;
  const auto body = [&] {
    while (true) {
      if (stopping()) break;
      if (spill_.requested.load(std::memory_order_relaxed)) park_for_spill();
      WorkItem item;
      bool got = deques_[static_cast<std::size_t>(t)].pop(item);
      if (!got) {
        for (int i = 1; i < T; ++i) {
          const int v = (t + i) % T;
          if (deques_[static_cast<std::size_t>(v)].steal(item)) {
            got = true;
            w.steals.fetch_add(1, std::memory_order_relaxed);
            obs::flight::record(obs::flight::Ev::kSteal, t, v);
            break;
          }
        }
        if (!got) w.steal_fails.fetch_add(1, std::memory_order_relaxed);
      }
      if (!got) {
        if (pending_.load() == 0) break;
        w.idle_spins.fetch_add(1, std::memory_order_relaxed);
        // Exponential backoff: brief pause bursts, then yields, so an
        // out-of-work worker neither burns a core nor misses a steal.
        if (backoff < 10) ++backoff;
        if (backoff < 6) {
          for (int i = 0; i < (1 << backoff); ++i) cpu_pause();
        } else {
          std::this_thread::yield();
        }
        continue;
      }
      backoff = 0;
      expand_chunk(w, item, p, fn, vctx);
      const std::uint64_t chunks =
          w.chunks.fetch_add(1, std::memory_order_relaxed) + 1;
      if (w.dedup_delta >= 1024) {
        metrics.dedup_hits.add(w.dedup_delta);
        w.dedup_run += w.dedup_delta;
        w.dedup_delta = 0;
      }
      if (budget_bytes_ != 0 && !stopping() &&
          tracked_bytes() >= budget_bytes_) {
        obs::flight::record(obs::flight::Ev::kBudgetTrip,
                            static_cast<std::int64_t>(tracked_bytes()),
                            static_cast<std::int64_t>(budget_bytes_));
        budget_exhausted_.store(true, std::memory_order_relaxed);
        truncated_.store(true, std::memory_order_relaxed);
        stop_.store(true, std::memory_order_release);
      }
      if ((chunks & 0xF) == 0 && !stopping() &&
          budget_deadline_ != std::chrono::steady_clock::time_point::max() &&
          std::chrono::steady_clock::now() >= budget_deadline_) {
        obs::flight::record(obs::flight::Ev::kBudgetTrip,
                            static_cast<std::int64_t>(tracked_bytes()), 0);
        budget_exhausted_.store(true, std::memory_order_relaxed);
        truncated_.store(true, std::memory_order_relaxed);
        stop_.store(true, std::memory_order_release);
      }
      if (arena_.spill_needed(
              static_cast<std::size_t>(next_id_.load(
                  std::memory_order_relaxed))) &&
          !stopping()) {
        request_spill();
      }
      // Checkpoint-due (or stop-requested) between chunks: workers feed
      // their chunk's expansions into the work-count cadence (warm-phase
      // polls stop once the pool takes over), then rendezvous so the write
      // happens with the whole explorer quiesced. Both calls are one or
      // two relaxed loads when checkpointing is not configured.
      util::ckpt::CheckpointService::global().add_work(item.size());
      if (!stopping() && util::ckpt::CheckpointService::global().due()) {
        request_checkpoint();
      }
      if (t == 0 && (chunks & 0x3F) == 0) {
        metrics.frontier.set(pending_.load(std::memory_order_relaxed));
        hb.beat(
            [&] {
              return "configs=" + std::to_string(committed()) +
                     " pending=" + std::to_string(pending_.load(
                                       std::memory_order_relaxed)) +
                     " threads=" + std::to_string(T);
            },
            [&](obs::StatusSnapshot& s) {
              s.frontier = pending_.load(std::memory_order_relaxed);
              s.visited = static_cast<std::int64_t>(committed());
              s.cap = static_cast<std::int64_t>(opts_.max_configs);
              // Registry counters only see steals/idle at run end, so the
              // live snapshot aggregates the per-worker atomics directly —
              // telemetry's starvation rule needs mid-run values.
              std::int64_t steals = 0;
              std::int64_t idle = 0;
              for (const WorkerCtx& o : workers_) {
                steals += static_cast<std::int64_t>(
                    o.steals.load(std::memory_order_relaxed));
                idle += static_cast<std::int64_t>(
                    o.idle_spins.load(std::memory_order_relaxed));
              }
              s.steals = steals;
              s.idle_spins = idle;
            });
      }
      if (t == 0 && (chunks & 0xFF) == 0) {
        update_ledger();
        if (obs::stats_enabled()) {
          std::uint64_t steals = 0;
          std::uint64_t idle = 0;
          for (const WorkerCtx& o : workers_) {
            steals += o.steals.load(std::memory_order_relaxed);
            idle += o.idle_spins.load(std::memory_order_relaxed);
          }
          obs::stats_sink().write(
              obs::JsonObj()
                  .str("type", "explore.ws")
                  .str("who", "explore-par")
                  .num("visited", static_cast<std::int64_t>(committed()))
                  .num("pending",
                       pending_.load(std::memory_order_relaxed))
                  .num("steals", static_cast<std::int64_t>(steals))
                  .num("idle_spins", static_cast<std::int64_t>(idle))
                  .num("spilled_bytes", static_cast<std::int64_t>(
                                            arena_.store().spilled_bytes()))
                  .num("resident_bytes",
                       static_cast<std::int64_t>(arena_.words_bytes()))
                  .render());
        }
      }
    }
  };
  try {
    body();
  } catch (...) {
    // Unblock any spill requester waiting on this worker, then let the
    // pool rethrow from run().
    stop_.store(true, std::memory_order_release);
    metrics.dedup_hits.add(w.dedup_delta);
    w.dedup_run += w.dedup_delta;
    w.dedup_delta = 0;
    {
      std::lock_guard<std::mutex> lk(spill_.mu);
      --spill_.active;
    }
    spill_.cv.notify_all();
    throw;
  }
  metrics.dedup_hits.add(w.dedup_delta);
  w.dedup_run += w.dedup_delta;
  w.dedup_delta = 0;
  {
    std::lock_guard<std::mutex> lk(spill_.mu);
    --spill_.active;
  }
  spill_.cv.notify_all();
}

ParallelExplorer::Result ParallelExplorer::explore_impl(const Config& root,
                                                        ProcSet p, VisitFn fn,
                                                        void* vctx) {
  arena_.clear();
  for (Shard& sh : shards_) sh.reset(shard_bytes_);
  {
    std::size_t sb = 0;
    for (const Shard& sh : shards_) sb += sh.slots.capacity() * sizeof(Shard::Slot);
    shard_bytes_.store(sb, std::memory_order_relaxed);
  }
  for (Deque& d : deques_) d.clear();
  for (WorkerCtx& w : workers_) {
    for (Batch& b : w.batches) {
      b.meta.clear();
      b.words.clear();
    }
    w.fresh.clear();
    w.steals.store(0, std::memory_order_relaxed);
    w.steal_fails.store(0, std::memory_order_relaxed);
    w.idle_spins.store(0, std::memory_order_relaxed);
    w.chunks.store(0, std::memory_order_relaxed);
    w.dedup_delta = 0;
    w.dedup_run = 0;
  }
  next_id_.store(0, std::memory_order_relaxed);
  pending_.store(0);
  stop_.store(false, std::memory_order_relaxed);
  truncated_.store(false, std::memory_order_relaxed);
  aborted_.store(false, std::memory_order_relaxed);
  budget_exhausted_.store(false, std::memory_order_relaxed);
  abort_id_.store(kNoConfig, std::memory_order_relaxed);
  run_stats_ = RunStats{};

  Result res;
  detail::ExploreMetrics& metrics = detail::explore_metrics();
  detail::LevelStatsTracker stats("explore-par", opts_.stats_min_visited);
  obs::Heartbeat hb("explore-par");
  const std::size_t W = arena_.words_per_config();
  const int n = arena_.num_states();
  const int T = pool_.size();

  // Root.
  arena_.pack(root, arena_.scratch());
  const std::uint64_t root_hash = arena_.hash_words(arena_.scratch());
  const ConfigId root_id = arena_.append_words(arena_.scratch());
  set_parent(root_id, kNoConfig, -1);
  {
    Shard& sh = shard_of(root_hash);
    sh.reserve_for(1, shard_bytes_);
    std::size_t i = root_hash & sh.mask;
    while (sh.slots[i].ref != kEmptyRef) i = (i + 1) & sh.mask;
    sh.slots[i] = Shard::Slot{root_hash, root_id};
    ++sh.used;
  }
  ++res.visited;
  metrics.visited.add();
  if (!fn(vctx, arena_.view(root_id))) {
    res.aborted = true;
    res.abort_config = arena_.materialize(root_id);
    next_id_.store(1, std::memory_order_relaxed);
    visited_count_ = 1;
    if (stats.active()) stats.done(arena_, res, 0);
    return res;
  }

  // Sequential warm phase on the calling thread: identical inner loop to
  // Explorer's, but deduplicating against the shard tables the parallel
  // phase will inherit. Small enumerations finish here without ever
  // touching locks, deques, or the pool.
  ConfigId head = 0;
  std::size_t expanded = 0;
  ConfigId level_start = 0;
  ConfigId level_end = 1;
  std::size_t level_idx = 0;
  std::uint64_t level_dedup = 0;
  std::uint64_t dedup_total = 0;
  bool warm_stopped = false;  // truncation/budget/abort ends the run here
  static thread_local std::vector<Value> cur_buf;
  static thread_local std::vector<Value> succ_buf;
  if (cur_buf.size() < W) cur_buf.resize(W);
  if (succ_buf.size() < W) succ_buf.resize(W);

  while (head < arena_.size()) {
    if (head == level_end) {
      if (stats.active()) {
        stats.commit_level(stats.level_record(
            arena_, level_end - level_start,
            static_cast<ConfigId>(arena_.size()) - level_end, level_dedup));
      }
      level_start = level_end;
      level_end = static_cast<ConfigId>(arena_.size());
      level_dedup = 0;
      ++level_idx;
      update_ledger();
      obs::flight::record(obs::flight::Ev::kLevel,
                          static_cast<std::int64_t>(level_idx),
                          static_cast<std::int64_t>(level_end - level_start));
    }
    if (arena_.size() >= opts_.max_configs) {
      res.truncated = true;
      warm_stopped = true;
      break;
    }
    if (budget_bytes_ != 0 && tracked_bytes() >= budget_bytes_) {
      update_ledger();
      obs::flight::record(obs::flight::Ev::kBudgetTrip,
                          static_cast<std::int64_t>(tracked_bytes()),
                          static_cast<std::int64_t>(budget_bytes_));
      res.truncated = true;
      res.budget_exhausted = true;
      warm_stopped = true;
      break;
    }
    ++expanded;
    if ((expanded & 0xFF) == 1 &&
        budget_deadline_ != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= budget_deadline_) {
      obs::flight::record(obs::flight::Ev::kBudgetTrip,
                          static_cast<std::int64_t>(tracked_bytes()), 0);
      res.truncated = true;
      res.budget_exhausted = true;
      warm_stopped = true;
      break;
    }
    if (T > 1 && arena_.size() >= opts_.parallel_threshold) {
      --expanded;
      break;
    }
    if ((expanded & 0xFFF) == 0) {
      // Warm phase runs on the calling thread with the pool idle — the
      // same quiescent contract as the sequential explorer's poll.
      util::ckpt::CheckpointService::global().poll(4096);
      metrics.frontier.set(static_cast<std::int64_t>(arena_.size() - head));
      if (arena_.spill_needed(arena_.size())) {
        const std::size_t released = arena_.maybe_spill(head);
        if (released != 0) {
          obs::flight::record(
              obs::flight::Ev::kSpill, static_cast<std::int64_t>(released),
              static_cast<std::int64_t>(arena_.store().spilled_bytes()));
        }
      }
      update_ledger();
      hb.beat(
          [&] {
            return "configs=" + std::to_string(res.visited) +
                   " frontier=" + std::to_string(arena_.size() - head);
          },
          [&](obs::StatusSnapshot& s) {
            s.level = static_cast<std::int64_t>(level_idx);
            s.frontier = static_cast<std::int64_t>(arena_.size() - head);
            s.visited = static_cast<std::int64_t>(res.visited);
            s.cap = static_cast<std::int64_t>(opts_.max_configs);
          });
    }
    const ConfigId cur = head++;
    std::memcpy(cur_buf.data(), arena_.words(cur), W * sizeof(Value));
    bool keep_going = true;
    p.for_each([&](int q) {
      if (!keep_going) return;
      const PendingOp op =
          proto_.poised(q, cur_buf[static_cast<std::size_t>(q)]);
      if (op.is_decide()) return;
      std::memcpy(succ_buf.data(), cur_buf.data(), W * sizeof(Value));
      apply_op(proto_, op, q, succ_buf.data(), succ_buf.data() + n);
      const std::uint64_t h = arena_.hash_words(succ_buf.data());
      Shard& sh = shard_of(h);
      sh.reserve_for(1, shard_bytes_);
      std::size_t i = h & sh.mask;
      while (true) {
        Shard::Slot& slot = sh.slots[i];
        if (slot.ref == kEmptyRef) {
          // Strict cap (unlike Explorer's per-expansion check, which can
          // overshoot by a few children): the parallel phase drops at
          // exactly max_configs, so the warm phase must too for a uniform
          // visited <= cap guarantee.
          if (arena_.size() >= opts_.max_configs) {
            res.truncated = true;
            keep_going = false;
            return;
          }
          const ConfigId id = arena_.append_words(succ_buf.data());
          set_parent(id, cur, q);
          slot.hash = h;
          slot.ref = id;
          ++sh.used;
          ++res.visited;
          metrics.visited.add();
          if (!fn(vctx, arena_.view(id))) {
            res.aborted = true;
            res.abort_config = arena_.materialize(id);
            keep_going = false;
          }
          return;
        }
        if (slot.hash == h &&
            arena_.words_equal(arena_.words(slot.ref), succ_buf.data())) {
          metrics.dedup_hits.add();
          ++level_dedup;
          ++dedup_total;
          return;
        }
        i = (i + 1) & sh.mask;
      }
    });
    if (!keep_going) {
      warm_stopped = true;
      break;
    }
  }
  run_stats_.warm_visited = arena_.size();
  next_id_.store(arena_.size(), std::memory_order_relaxed);

  if (!warm_stopped && head < arena_.size()) {
    // Hand the unexpanded tail to the pool: id lists of chunk_configs,
    // round-robin across the worker deques, then steal-balance from there.
    run_stats_.went_parallel = true;
    const ConfigId tail = static_cast<ConfigId>(arena_.size());
    pending_.store(static_cast<std::int64_t>(tail - head));
    std::size_t d = 0;
    for (ConfigId b = head; b < tail; b += opts_.chunk_configs) {
      const ConfigId e = std::min<ConfigId>(b + opts_.chunk_configs, tail);
      WorkItem item(e - b);
      std::iota(item.begin(), item.end(), b);
      deques_[d++ % deques_.size()].push(std::move(item));
    }
    {
      std::lock_guard<std::mutex> lk(spill_.mu);
      spill_.active = T;
      spill_.parked = 0;
      spill_.requested.store(false, std::memory_order_relaxed);
    }
    {
      obs::Span span("par.steal");
      span.set_value(static_cast<std::int64_t>(tail - head));
      pool_.run([&](int t) { worker_main(t, p, fn, vctx, hb); });
    }
    visited_count_ = committed();
    arena_.set_size(visited_count_);
    res.visited = visited_count_;
    res.truncated = truncated_.load(std::memory_order_relaxed);
    res.aborted = aborted_.load(std::memory_order_relaxed);
    res.budget_exhausted = budget_exhausted_.load(std::memory_order_relaxed);
    if (res.budget_exhausted) res.truncated = true;
    const ConfigId aid = abort_id_.load(std::memory_order_relaxed);
    if (res.aborted && aid != kNoConfig) {
      res.abort_config = arena_.materialize(aid);
    }
  } else {
    visited_count_ = arena_.size();
  }

  // Aggregate work-stealing forensics.
  StealMetrics& sm = steal_metrics();
  for (const WorkerCtx& w : workers_) {
    run_stats_.steals += w.steals.load(std::memory_order_relaxed);
    run_stats_.steal_fails += w.steal_fails.load(std::memory_order_relaxed);
    run_stats_.idle_spins += w.idle_spins.load(std::memory_order_relaxed);
    run_stats_.chunks += w.chunks.load(std::memory_order_relaxed);
    dedup_total += w.dedup_run;
  }
  sm.steals.add(run_stats_.steals);
  sm.steal_fails.add(run_stats_.steal_fails);
  sm.idle_spins.add(run_stats_.idle_spins);
  sm.chunks.add(run_stats_.chunks);

  update_ledger();
  if (stats.active()) {
    // Close the warm phase's level in progress (complete if a small run
    // drained sequentially, partial on truncation/abort/handoff); the
    // parallel phase has no levels — its story is the explore.ws record.
    stats.commit_level(stats.level_record(
        arena_, level_end - level_start,
        static_cast<ConfigId>(run_stats_.warm_visited) - level_end,
        level_dedup));
    if (run_stats_.went_parallel) {
      obs::stats_sink().write(
          obs::JsonObj()
              .str("type", "explore.ws")
              .str("who", "explore-par")
              .num("visited", static_cast<std::int64_t>(res.visited))
              .num("warm_visited",
                   static_cast<std::int64_t>(run_stats_.warm_visited))
              .num("threads", static_cast<std::int64_t>(T))
              .num("chunks", static_cast<std::int64_t>(run_stats_.chunks))
              .num("steals", static_cast<std::int64_t>(run_stats_.steals))
              .num("steal_fails",
                   static_cast<std::int64_t>(run_stats_.steal_fails))
              .num("idle_spins",
                   static_cast<std::int64_t>(run_stats_.idle_spins))
              .num("spill_pauses",
                   static_cast<std::int64_t>(run_stats_.spill_pauses))
              .num("spilled_bytes",
                   static_cast<std::int64_t>(arena_.store().spilled_bytes()))
              .num("mapped_bytes",
                   static_cast<std::int64_t>(arena_.store().mapped_bytes()))
              .render());
    }
    stats.done(arena_, res, dedup_total);
  }
  return res;
}

std::optional<Schedule> ParallelExplorer::witness(const Config& target) const {
  std::vector<Value> packed(arena_.words_per_config());
  arena_.pack(target, packed.data());
  const std::uint64_t h = arena_.hash_words(packed.data());
  const Shard& sh = shards_[(h >> 58) & (kShards - 1)];
  if (sh.slots.empty()) return std::nullopt;
  std::size_t i = h & sh.mask;
  while (true) {
    const Shard::Slot& slot = sh.slots[i];
    if (slot.ref == kEmptyRef) return std::nullopt;
    if (slot.hash == h && slot.ref < visited_count_ &&
        arena_.words_equal(arena_.words(slot.ref), packed.data())) {
      return witness_by_id(slot.ref);
    }
    i = (i + 1) & sh.mask;
  }
}

std::optional<Schedule> ParallelExplorer::witness_by_id(ConfigId id) const {
  if (id >= visited_count_) return std::nullopt;
  std::vector<ProcId> rev;
  ConfigId idx = id;
  while (idx != kNoConfig) {
    const std::uint32_t* rec = parent_.read(idx);
    if (rec[0] != kNoConfig) rev.push_back(static_cast<ProcId>(rec[1]));
    idx = rec[0];
  }
  std::reverse(rev.begin(), rev.end());
  return Schedule(std::move(rev));
}

}  // namespace tsb::sim
