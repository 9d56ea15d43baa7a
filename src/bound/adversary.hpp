#pragma once

#include <string>

#include "bound/certificate.hpp"
#include "bound/lemmas.hpp"

namespace tsb::bound {

/// Theorem 1 driver: runs Zhu's adversary against a concrete protocol and
/// produces a covering certificate witnessing that executions of the
/// protocol reach a configuration where n-1 distinct registers are covered
/// (and are then written). This realises the paper's statement "every
/// nondeterministic solo terminating binary consensus protocol for n >= 2
/// processes uses at least n-1 registers" as an executable construction.
class SpaceBoundAdversary {
 public:
  struct Options {
    std::size_t valency_max_configs = 2'000'000;
    /// Worker threads for the oracle's reachability passes (> 1 uses the
    /// parallel explorer; results are identical at any thread count).
    int threads = 1;
    bool narrative = false;  ///< record a human-readable walkthrough
    /// Graceful-degradation budgets passed through to the valency oracle
    /// (see ValencyOracle::Options): arena heap cap in bytes and total
    /// wall-clock budget in ms; 0 disables each. Exhaustion yields a
    /// Result with budget_exhausted set — a distinct clean outcome, never
    /// an OOM or a hang.
    std::size_t valency_max_arena_bytes = 0;
    std::uint64_t valency_time_budget_ms = 0;
    /// Shared-subgraph valency engine (ValencyOracle::Options::reuse).
    /// Off = the fresh-BFS-per-query backend, kept as the differential
    /// anchor; identical verdicts and certificates either way.
    bool reuse = true;
    /// Out-of-core spill for the oracle's config storage (see
    /// ValencyOracle::Options). threshold 0 = all in RAM. Verdicts and
    /// certificates are unchanged by spilling; it exists so campaigns past
    /// the RAM wall (n = 7) can keep the frontier advancing from disk.
    std::string spill_dir = ".";
    std::size_t spill_threshold_bytes = 0;
    std::size_t spill_seg_configs = 0;
    /// Spill the shared engine's edge arrays too (ValencyOracle::Options::
    /// graph_spill); false reproduces the PR 7 node-arena-only behaviour.
    bool graph_spill = true;
    /// Work-stealing tuning for the --no-reuse parallel backend; 0 keeps
    /// the explorer defaults (see ValencyOracle::Options).
    std::uint32_t chunk_configs = 0;
    std::size_t parallel_threshold = 0;
    /// Crash-safe campaigns: non-empty = checkpoint the oracle's session
    /// state (roots, memo, shared graph) into this directory at the
    /// engines' quiescent points, every `checkpoint_interval_ms` of wall
    /// clock or `checkpoint_every` expansions (0 disables each; with both
    /// 0 a checkpoint is still written on a requested stop). `resume`
    /// restores the directory's committed checkpoint before running and
    /// re-drives the deterministic construction over the warm state —
    /// identical verdict, visited set and certificate to an uninterrupted
    /// run. Invalid/mismatched checkpoints throw util::CheckpointInvalid.
    std::string checkpoint_dir;
    std::uint64_t checkpoint_interval_ms = 0;
    std::uint64_t checkpoint_every = 0;
    bool resume = false;
  };

  struct Result {
    bool ok = false;
    bool budget_exhausted = false;  ///< stopped by a configured budget
    /// Stopped gracefully at a quiescent point (SIGTERM/SIGINT or a test
    /// hook) after writing a final checkpoint — the campaign continues
    /// later via resume. Distinct from both ok and budget_exhausted.
    bool stopped = false;
    std::string error;
    CoveringCertificate certificate;  ///< n-1 covered registers
    CertificateCheck check;           ///< independent verification
    LemmaToolkit::Stats lemma_stats;
    std::size_t valency_queries = 0;
    std::size_t valency_cache_hits = 0;
    // Shared-subgraph engine statistics (all zero with Options::reuse off).
    std::uint64_t reach_expanded = 0;   ///< protocol steps actually paid
    std::uint64_t reach_reused = 0;     ///< stored edges walked instead
    std::size_t reach_graph_nodes = 0;  ///< projected configs interned
    std::size_t graph_spilled_bytes = 0;  ///< edge bytes on disk at finish
    std::string narrative;  ///< populated when Options::narrative
  };

  explicit SpaceBoundAdversary(const sim::Protocol& proto)
      : SpaceBoundAdversary(proto, Options{}) {}
  SpaceBoundAdversary(const sim::Protocol& proto, Options opts)
      : proto_(proto), opts_(opts) {}

  /// Run the full construction (Proposition 2 -> Lemma 4 -> Lemma 3 ->
  /// Lemma 2) and check the certificate. For n = 2 the theorem's special
  /// case applies: a solo run of p0 must write before deciding, yielding a
  /// single covered register = n-1.
  Result run();

 private:
  Result run_impl();

  const sim::Protocol& proto_;
  Options opts_;
};

}  // namespace tsb::bound
