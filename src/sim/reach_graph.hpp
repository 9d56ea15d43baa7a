#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/canonical.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "util/spill_store.hpp"
#include "util/worker_pool.hpp"

namespace tsb::util::ckpt {
class SectionWriter;
class SectionReader;
}  // namespace tsb::util::ckpt

namespace tsb::sim {

/// Persistent shared-subgraph reachability engine behind the valency oracle.
///
/// The fresh-BFS oracle re-explores from scratch for every (C, P) pair even
/// though the P-only subgraphs of an adversary run overlap almost
/// completely. The overlap is invisible in full-configuration space: the
/// lemma peel loops advance the query root by steps of processes *outside*
/// P, so consecutive roots disagree on some frozen process's state and
/// their raw subgraphs share no configuration at all. It becomes literal
/// sharing under projection. During a P-only execution the states of
/// processes outside P are frozen and inert — every step, register value
/// and P-decision depends only on (P-states, registers) — so Definition 1
/// valency is a function of the *projected* configuration: P's states, the
/// registers, and two "ambient" bits recording which values some frozen
/// process is already poised to decide (Proposition 1(iv) counts those as
/// decided along every P-only execution). This engine therefore keeps one
/// session-long successor graph over interned *projected* configurations
/// (non-P state slots masked to kMaskedState):
///
///  * Edges are per (projected configuration, process) and lazily expanded
///    exactly once. A query for (C, P) walks the stored graph and only pays
///    protocol steps on the frontier no earlier query touched. Two queries
///    whose roots differ only in frozen-process state hit the *same* nodes
///    and edges; peel-loop neighbours that differ in one register value
///    re-merge as soon as P overwrites it, and everything past the merge
///    point is walked over stored edges. Verdicts are never cached here:
///    the oracle memoizes whole (C, P) pairs, and a walk over stored edges
///    costs one flag read and one row copy per entry.
///
///  * For symmetric protocols (Protocol::symmetric(), n <= 8) the graph is
///    quotiented by process renaming: nodes are canonical (sorted-states)
///    configurations and queries are canonical (config, ProcSet-orbit)
///    pairs (sim/canonical.hpp), shrinking the stored graph by up to n!.
///    Every stored edge carries the renaming its canonicalization applied,
///    and every BFS entry the composed renaming from the canonical root, so
///    witnesses de-canonicalize back to replayable schedules in the
///    caller's frame. Renaming soundness: a symmetric protocol's step
///    relation commutes with every process permutation, so orbit-translated
///    queries have literally the same P-only execution trees.
///
/// Determinism: node ids, discovery order and witnesses are identical for
/// every thread count. With threads > 1 the per-level protocol steps
/// (successor words, hashes, renamings) are precomputed into per-slot
/// buffers by a WorkerPool, but interning happens on the query thread in
/// exactly the inline order (entry order, ascending process id).
class ReachGraph {
 public:
  struct Options {
    /// Per-query visited cap (BFS entries); hitting it truncates the query
    /// (negative answers unsound — callers surface ever_truncated).
    std::size_t max_configs = 2'000'000;
    int threads = 1;
    /// Whole-engine heap budget (0 = uncapped). Unlike the fresh-BFS
    /// explorers this is cumulative across queries — the shared graph is
    /// the point — so once tripped, every later query throws
    /// util::BudgetExhausted too.
    std::size_t max_arena_bytes = 0;
    /// Out-of-core node arena: once resident packed-node bytes exceed
    /// spill_threshold_bytes (0 = never spill), cold full segments are
    /// delta/varint-compressed to an unlinked backing file under
    /// spill_dir and read back through mmap on demand. Spilled bytes
    /// leave memory_bytes(), so max_arena_bytes caps RAM while the graph
    /// keeps growing on disk. Unlike the explorer's cold-prefix pattern,
    /// re-probes of spilled nodes pay a decode — spilling trades query
    /// speed for the ability to finish at all.
    std::string spill_dir = ".";
    std::size_t spill_threshold_bytes = 0;
    /// Configs per arena segment (power of two, 0 = default ~4 MB): CI
    /// smoke tests shrink it to force spilling on small campaigns.
    std::size_t spill_seg_configs = 0;
    /// Out-of-core edge arrays: with spilling enabled, the per-node edge
    /// data (successor ids, per-edge renamings, decide flags) also spills
    /// — each store's cold full segments compress to the same-format
    /// backing files once their combined resident bytes exceed
    /// spill_threshold_bytes. False reproduces the PR 7 behaviour (node
    /// arena spills, edge arrays stay resident) for A/B runs.
    bool graph_spill = true;
  };

  ReachGraph(const Protocol& proto, Options opts);

  /// Wall-clock watchdog (time_point::max() = none), checked at query
  /// start and every 256 BFS steps; throws util::BudgetExhausted.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

  /// Canonical (projected configuration, ProcSet-orbit, ambient) triple:
  /// the memo key space. For asymmetric protocols the id interns the
  /// P-masked words and pbits is P itself; `ambient` bit v is set iff some
  /// process outside P is poised to decide v in c — part of the key
  /// because it changes the verdicts but not the projected dynamics.
  struct Node {
    ConfigId id = kNoConfig;
    std::uint64_t pbits = 0;
    std::uint8_t ambient = 0;
    bool operator==(const Node&) const = default;
  };

  /// Intern (c, p)'s canonical projected triple. `perm_out` (if non-null)
  /// receives the renaming pi mapping the caller's process ids to canonical
  /// slots; schedules in the canonical frame translate back via pi^-1.
  Node intern_node(const Config& c, ProcSet p, ProcPerm* perm_out);

  struct QueryResult {
    bool can[2] = {false, false};
    /// Deciding schedules in the canonical-root frame (meaningful iff
    /// can[v]); de-canonicalize with the perm intern_node/query returned.
    Schedule witness[2];
    /// Engine id of the deciding *projected* configuration (kNoConfig when
    /// !can[v]).
    ConfigId witness_id[2] = {kNoConfig, kNoConfig};
    bool truncated = false;   ///< hit max_configs; negatives unsound
    std::uint64_t expanded = 0;  ///< edges expanded (protocol steps paid)
    std::uint64_t reused = 0;    ///< stored edges consumed
    std::uint64_t visited = 0;   ///< BFS entries this query
  };

  /// Definition 1 for both values of (c, p) in one walk.
  QueryResult query(const Config& c, ProcSet p, ProcPerm* perm_out);

  bool symmetric() const { return sym_; }
  std::size_t nodes() const { return arena_.size(); }
  std::uint64_t edges_expanded() const { return edges_expanded_; }
  std::uint64_t edges_reused() const { return edges_reused_; }
  std::size_t memory_bytes() const;

  /// Edge-store spill accounting (graph.spill / graph.mapped ledger
  /// accounts): compressed bytes of the spilled edge segments on disk,
  /// their mmap'd read-back pages, and the resident remainder.
  bool edge_spill_enabled() const { return edge_spill_on_; }
  std::size_t edge_spilled_bytes() const {
    return succ_.spilled_bytes() + perm_.spilled_bytes() +
           flags_.spilled_bytes();
  }
  std::size_t edge_mapped_bytes() const {
    return succ_.mapped_bytes() + perm_.mapped_bytes() + flags_.mapped_bytes();
  }
  std::size_t edge_resident_bytes() const {
    return succ_.resident_bytes() + perm_.resident_bytes() +
           flags_.resident_bytes();
  }
  std::size_t edge_spilled_segments() const {
    return succ_.spilled_segments() + perm_.spilled_segments() +
           flags_.spilled_segments();
  }
  std::size_t edge_faulted_in() const {
    return succ_.faulted_in() + perm_.faulted_in() + flags_.faulted_in();
  }

  /// Serialize the engine's persistent cross-query state (node words,
  /// decide flags, successor edges and renamings, and the expansion
  /// counters) as one "graph" checkpoint section. Per-query
  /// scratch is deliberately excluded: checkpoints happen at quiescent
  /// points and resume re-runs the in-flight query from its root, walking
  /// the restored edges instead of re-paying protocol steps.
  void save(util::ckpt::SectionWriter& w) const;
  /// Inverse of save(). Must run on a freshly constructed engine (the
  /// ctor has already configured arena spill while the arena is empty);
  /// node words are re-interned in id order so the dedup table rebuilds
  /// exactly, then flags and edges are bulk-loaded without
  /// register_config. Shape mismatch (different n, word count, or
  /// symmetry mode) throws util::CheckpointInvalid.
  void restore(util::ckpt::SectionReader& r);

  /// State word marking a masked (outside-P) slot of a projected
  /// configuration. Protocols never produce it: every state in this repo is
  /// a small packed non-negative word or kNilValue (-1).
  static constexpr Value kMaskedState = std::numeric_limits<Value>::min();

 private:
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
  /// succ_ sentinel: edge never computed. Distinct from kNoConfig, which
  /// marks "process decided here, no edge".
  static constexpr ConfigId kUnexpanded = 0xFFFFFFFEu;

  /// One BFS node occurrence in the current query. Deliberately 12 bytes:
  /// the entry stream is pushed and re-read tens of millions of times per
  /// adversary run, so the symmetric-mode renaming lives in the parallel
  /// entry_perm_ vector instead of padding every asymmetric entry to 24.
  struct Entry {
    ConfigId id;
    std::uint32_t parent;  ///< entry index (kNoEntry at the root)
    std::uint8_t via;      ///< process (parent's frame) that reached us
    std::uint8_t pbits;    ///< P in this node's frame (symmetric mode)
  };

  void register_config(ConfigId id);
  void compute_successor(ConfigId id, int q, Value* out, ProcPerm* sigma) const;
  ConfigId expand_edge(ConfigId id, int q, ProcPerm* sigma);
  void precompute_level(std::uint32_t lo, std::uint32_t hi);
  void check_budget();
  void update_ledger() const;
  /// Per-query scratch bytes (the reach.query ledger account).
  std::size_t query_bytes() const;
  void ensure_marks(ConfigId id);
  /// Spill cold full edge segments until their combined resident bytes
  /// drop to the spill threshold. Renamings go first (largest, read only
  /// on edge reuse), then successor rows, then the decide flags last
  /// (hottest: one byte per dequeue). Quiescent points only.
  void maybe_spill_edges();
  const Protocol& proto_;
  Options opts_;
  int n_;
  std::size_t words_;
  bool sym_;

  ConfigArena arena_;
  /// Per-node edge data, one spillable record per node id. flags_: bit v
  /// set iff some process poised-decides v here. succ_: n successor ids
  /// per node ([q] -> successor, kUnexpanded / kNoConfig sentinels).
  /// perm_: symmetric mode only, the renaming sigma per edge.
  util::spill::SpillStore<std::uint8_t> flags_;
  util::spill::SpillStore<ConfigId> succ_;
  util::spill::SpillStore<std::uint64_t> perm_;
  bool edge_spill_on_ = false;

  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
  std::uint64_t edges_expanded_ = 0;
  std::uint64_t edges_reused_ = 0;

  // Per-query state (members so allocations are reused across queries).
  std::uint64_t query_pbits_ = 0;   ///< asymmetric mode: constant P
  std::uint8_t query_ambient_ = 0;  ///< bit v: frozen proc poised-decides v
  std::vector<Entry> entries_;
  std::vector<ProcPerm> entry_perm_;  ///< symmetric mode: canonical-root
                                      ///< frame -> entry frame, per entry
  std::vector<std::uint32_t> mark_epoch_;  ///< asymmetric visited marks
  std::uint32_t epoch_ = 0;
  std::unordered_set<std::uint64_t> visited_;  ///< symmetric (id, pbits)
  std::vector<Value> stage_;      ///< inline expansion staging buffer
  std::vector<Value> exp_words_;  ///< per-process successor staging: the
                                  ///< expansion loop computes and hashes a
                                  ///< whole entry's successors (prefetching
                                  ///< their dedup slots) before interning any

  // Level-batched parallel expansion (threads > 1).
  std::unique_ptr<util::WorkerPool> pool_;
  std::unordered_map<std::uint64_t, std::uint32_t> batch_index_;
  std::vector<std::uint64_t> batch_keys_;
  std::vector<Value> batch_words_;
  std::vector<std::uint64_t> batch_perms_;
};

}  // namespace tsb::sim
