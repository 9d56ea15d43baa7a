#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "sim/explorer.hpp"
#include "sim/parallel_explorer.hpp"
#include "sim/reach_graph.hpp"

namespace tsb::bound {

using sim::Config;
using sim::ConfigHash;
using sim::ProcSet;
using sim::Protocol;
using sim::Schedule;
using sim::Value;

/// Zhu's refined valency (Definition 1): for a reachable configuration C
/// and a non-empty set of processes P, "P can decide v from C" iff there is
/// a P-only execution from C in which v is decided.
///
/// This oracle answers such queries *exactly* by exhaustive P-only
/// reachability, which terminates because the experiment protocols have
/// finite configuration spaces.
///
/// Two interchangeable backends answer a (C, P) pair (both values in one
/// pass, witnesses extracted from the same pass):
///
///  * reuse = true (default): the persistent shared-subgraph engine
///    (sim::ReachGraph), which explores the *projection* of the
///    configuration onto (P-states, registers, ambient decide bits) — the
///    exact quantities P-only dynamics and Definition 1 verdicts depend
///    on. Successor edges expand at most once per session, queries walk
///    previously expanded subgraphs over their stored edges, and symmetric
///    protocols are additionally quotiented by process renaming. The memo keys on the canonical projected
///    (ConfigId, ProcSet-orbit, ambient) triple, so any two queries the
///    projection cannot distinguish share one entry — including the lemma
///    peel loops' neighbours, whose roots differ only in frozen-process
///    state; audit events keep reporting ids in the oracle's own root
///    arena. Every freshly computed witness is de-canonicalized and
///    replayed through the raw engine from the *original* configuration
///    before it is memoized.
///
///  * reuse = false: the original fresh-BFS-per-pair backend (Explorer /
///    ParallelExplorer), kept as the differential-testing anchor.
///
/// A value counts as "decided in the execution" if some process is in a
/// decided state at any configuration along it, including C itself —
/// matching Proposition 1(iv), where an earlier decision pins the valency
/// of every set of processes.
class ValencyOracle {
 public:
  struct Options {
    std::size_t max_configs = 2'000'000;
    /// Worker threads for each reachability pass; > 1 switches to the
    /// ParallelExplorer (reuse = false) or the engine's level-batched
    /// expansion (reuse = true). Identical results either way.
    int threads = 1;
    /// Graceful-degradation budgets. When a reachability pass would push
    /// the arena past `max_arena_bytes` (0 = uncapped), or any pass runs
    /// past `time_budget_ms` of wall clock measured from the oracle's
    /// construction (0 = no watchdog), the query throws
    /// util::BudgetExhausted rather than returning an unsound negative
    /// answer or OOMing/hanging. With reuse = true the byte budget covers
    /// the whole persistent graph (cumulative across queries), since the
    /// shared graph is precisely what holds the memory.
    std::size_t max_arena_bytes = 0;
    std::uint64_t time_budget_ms = 0;
    /// Shared-subgraph engine on/off (see class comment).
    bool reuse = true;
    /// Out-of-core node storage: when resident packed-config bytes exceed
    /// spill_threshold_bytes (0 = never), the backend arena compresses
    /// cold full segments to an unlinked file under spill_dir and reads
    /// them back through mmap. Verdicts and witnesses are unchanged;
    /// max_arena_bytes keeps capping RAM (spilled bytes leave it), so
    /// spill + budget together turn "OOM at n = 7" into "slower but
    /// finishes". spill_seg_configs (0 = default) shrinks segments so
    /// tests/CI can force spilling on tiny campaigns.
    std::string spill_dir = ".";
    std::size_t spill_threshold_bytes = 0;
    std::size_t spill_seg_configs = 0;
    /// Out-of-core edge arrays: with spilling enabled, the shared engine's
    /// per-node edge data spills alongside the node arena. False keeps the
    /// PR 7 behaviour (edge arrays always resident) for A/B comparisons.
    /// Purely a memory-plan knob — verdicts and witnesses never change, so
    /// it is excluded from the checkpoint fingerprint.
    bool graph_spill = true;
    /// Work-stealing tuning for the reuse = false parallel backend
    /// (ParallelExplorer::Options::chunk_configs / parallel_threshold);
    /// 0 keeps each explorer default. Purely perf — verdicts never change.
    std::uint32_t chunk_configs = 0;
    std::size_t parallel_threshold = 0;
  };

  explicit ValencyOracle(const Protocol& proto)
      : ValencyOracle(proto, Options{}) {}
  ValencyOracle(const Protocol& proto, Options opts)
      : proto_(proto),
        opts_(opts),
        roots_(proto.num_processes(), proto.num_registers()) {
    if (opts_.time_budget_ms > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(opts_.time_budget_ms);
    }
  }

  /// Definition 1: P can decide v from C.
  bool can_decide(const Config& c, ProcSet p, Value v);

  /// P is bivalent from C: P can decide both 0 and 1.
  bool bivalent(const Config& c, ProcSet p) {
    return can_decide(c, p, 0) && can_decide(c, p, 1);
  }

  /// P is v-univalent from C: P can decide v but not 1-v.
  bool univalent_on(const Config& c, ProcSet p, Value v) {
    return can_decide(c, p, v) && !can_decide(c, p, 1 - v);
  }

  /// Some value P can decide from C (Proposition 1(i): one always exists
  /// for solo-terminating protocols). Returns 0 if P can decide 0, else 1.
  Value some_decidable(const Config& c, ProcSet p);

  /// A P-only schedule from C in which v is decided (witness for
  /// can_decide): the BFS-first deciding configuration's discovery path.
  /// With reuse = true it is the engine's canonical-frame path,
  /// de-canonicalized into the caller's process ids and replay-verified
  /// before memoization.
  std::optional<Schedule> deciding_schedule(const Config& c, ProcSet p,
                                            Value v);

  /// True if any reachability query ever hit the configuration cap with an
  /// undetermined value, which would make a negative answer unsound. The
  /// adversary asserts this stays false.
  bool ever_truncated() const { return ever_truncated_; }

  std::size_t queries() const { return queries_; }
  std::size_t cache_hits() const { return cache_hits_; }
  /// Underlying reachability passes actually run (each covers both values
  /// of one (C, P) pair); queries() - cache_hits() public misses map 1:1
  /// onto pair lookups, of which this many missed the memo.
  std::size_t explorations() const { return explorations_; }

  // Shared-subgraph engine statistics (all 0 when reuse = false or no
  // query has run yet).
  bool reuse_enabled() const { return opts_.reuse; }
  std::uint64_t edges_expanded() const {
    return graph_ ? graph_->edges_expanded() : 0;
  }
  std::uint64_t edges_reused() const {
    return graph_ ? graph_->edges_reused() : 0;
  }
  /// Edge-store spill accounting (0 unless graph spilling is armed).
  std::size_t graph_spilled_bytes() const {
    return graph_ ? graph_->edge_spilled_bytes() : 0;
  }
  std::size_t graph_spilled_segments() const {
    return graph_ ? graph_->edge_spilled_segments() : 0;
  }
  std::size_t graph_faulted_in() const {
    return graph_ ? graph_->edge_faulted_in() : 0;
  }
  std::size_t graph_nodes() const { return graph_ ? graph_->nodes() : 0; }
  /// True when the engine runs in symmetry-quotient mode.
  bool engine_symmetric() const { return graph_ && graph_->symmetric(); }

  /// Intern `c` in the oracle's root arena and return its stable 32-bit id
  /// — the id space the audit trail's valency events use as "config", so
  /// lemma/adversary emitters can cross-link configurations to the queries
  /// asked about them without copying configurations into the log. This id
  /// space is the *original* one: canonicalization never leaks into the
  /// audit trail's config ids.
  sim::ConfigId intern_root(const Config& c) {
    roots_.pack(c, roots_.scratch());
    return roots_.intern_scratch().id;
  }

  // --- checkpoint/resume ---------------------------------------------------
  // The oracle is the session's persistent state: the root arena (audit-
  // stable ids), the pair memo with its witnesses, and (reuse = true) the
  // shared reachability graph. save_state writes them as the "oracle",
  // "roots", "memo" and (iff the graph exists) "graph" sections of a
  // checkpoint in progress; restore_state rebuilds them into a fresh
  // oracle before any query runs. Query/hit/exploration counters are
  // deliberately NOT restored — resume re-runs the deterministic adversary
  // from its start ("warm replay"), so the counters rebuild themselves
  // (with more cache hits than the uninterrupted run — verdicts, visited
  // sets and certificates are what resume keeps identical, not stats).

  /// Append this oracle's sections to a checkpoint state file.
  void save_state(util::ckpt::SectionWriter& w) const;
  /// Rebuild from save_state's sections. Must run on a freshly constructed
  /// oracle; throws util::CheckpointInvalid on any shape/flag disagreement.
  void restore_state(util::ckpt::SectionReader& r);
  /// The oracle slice of the checkpoint flag fingerprint: protocol name and
  /// shape plus every option that changes verdicts or the serialized state
  /// layout. Thread count is deliberately excluded — results are
  /// thread-independent, so --threads may change across a resume.
  std::string state_fingerprint() const;

 private:
  struct PairAnswer {
    bool can[2] = {false, false};
    /// Meaningful iff can[v]. With reuse = true this is stored in the
    /// canonical-root frame; public accessors de-canonicalize through the
    /// current lookup's renaming (equivariance: symmetric queries share
    /// the memo entry and each translates it into its own frame).
    Schedule witness[2];
    /// Id of the deciding configuration (kNoConfig when !can[v]) — pass-
    /// local discovery id for reuse = false, engine arena id for
    /// reuse = true; recorded in the audit trail so a query's verdict
    /// points at its witness.
    sim::ConfigId witness_id[2] = {sim::kNoConfig, sim::kNoConfig};
  };
  struct PairKey {
    sim::ConfigId root;
    std::uint64_t pbits;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const;
  };

  /// Lazily construct the reuse = true engine (also the restore path's
  /// entry point, so a resumed graph exists before the first query).
  sim::ReachGraph& ensure_graph();
  /// Memoized shared-exploration answer for (c, p).
  const PairAnswer& lookup(const Config& c, ProcSet p);
  PairAnswer compute_pair(const Config& c, ProcSet p);
  PairAnswer compute_pair_shared(const Config& c, ProcSet p);
  Schedule decanonicalize(const Schedule& s, sim::ProcPerm pi) const;
  void check_deadline() const;

  const Protocol& proto_;
  Options opts_;
  sim::ConfigArena roots_;  ///< interns query roots for audit-stable ids
  std::unordered_map<PairKey, PairAnswer, PairKeyHash> memo_;
  std::size_t memo_witness_bytes_ = 0;  ///< ledger: stored witness steps
  std::optional<sim::Explorer> seq_;          ///< reuse = false backends,
  std::optional<sim::ParallelExplorer> par_;  ///< reused across queries
  std::unique_ptr<sim::ReachGraph> graph_;    ///< reuse = true backend
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
  bool ever_truncated_ = false;
  std::size_t queries_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t explorations_ = 0;
  // Set by lookup() for the audit events and witness translation the
  // public queries do.
  bool last_lookup_hit_ = false;
  sim::ConfigId last_root_id_ = sim::kNoConfig;
  sim::ProcPerm last_perm_;  ///< caller frame -> canonical frame
};

}  // namespace tsb::bound
