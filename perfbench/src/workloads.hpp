#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "sim/explorer.hpp"
#include "sim/parallel_explorer.hpp"

namespace perfbench {

/// One named workload. Adversary workloads are a deterministic function of
/// (n, ballot cap) and ignore the seed; explore workloads take the root's
/// input vector from it.
struct Spec {
  enum class Kind { kAdversary, kExplore };
  std::string name;
  Kind kind = Kind::kAdversary;
  int n = 0;
  int ballot_cap = 0;
  std::size_t valency_cap = 0;  ///< adversary: valency oracle config cap
  std::size_t explore_cap = 0;  ///< explore: visited cap (must truncate)
  int threads = 1;
  // Out-of-core campaign settings (0 = all resident, no checkpoints).
  std::size_t spill_threshold = 0;
  std::size_t spill_seg_configs = 0;
  std::uint64_t checkpoint_every = 0;

  bool campaign() const { return checkpoint_every != 0; }
  /// The resident adversary run a campaign must agree with.
  std::string resident_twin() const { return "adversary-" + std::to_string(n); }
};

/// The benchmark workloads plus their n = 4 smoke variants; nullptr if
/// `name` is unknown.
const Spec* find_spec(const std::string& name);

/// Everything a job needs before its first call into the engine: the
/// protocol, and for explore workloads the explorer with its worker pool.
struct Prepared {
  std::unique_ptr<tsb::consensus::BallotConsensus> proto;
  std::unique_ptr<tsb::sim::ParallelExplorer> explorer;
};
Prepared prepare(const Spec& spec);

/// What one job produced, read right after it returned.
struct JobResult {
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU time (all threads) during the job
  std::uint64_t steps = 0;     ///< apply_op calls (sim.steps.*)
  std::uint64_t configs = 0;   ///< reach nodes / explorer visited
  std::uint64_t expansions = 0;  ///< reach expanded / explore steps
  // Adversary workloads.
  tsb::bound::SpaceBoundAdversary::Result adversary;
  // Explore workloads.
  tsb::sim::ExploreResult explore;
  tsb::sim::Config root;
  tsb::sim::ParallelExplorer::RunStats explore_stats;
  std::uint64_t dedup_hits = 0;
  // Out of core.
  std::uint64_t ckpt_count = 0;
  std::uint64_t ckpt_bytes = 0;
  double ckpt_write_s = 0;
  std::uint64_t ckpt_last_state_bytes = 0;  ///< on-disk committed state
  bool ckpt_manifest_ok = true;
  std::uint64_t spilled_bytes = 0;  ///< arena + graph spill peak
};

/// Run the workload's job once. The registry and the memory ledger are
/// reset first, so their values afterwards belong to this job alone.
/// `work_dir` holds the campaign's spill and checkpoint files, which are
/// removed again before returning.
JobResult run_job(const Spec& spec, Prepared& prep, std::uint64_t seed,
                  const std::string& work_dir);

/// Correctness gate: counts checks attempted and failed, and keeps the
/// first few failure messages.
struct Gate {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what);
};

/// Check one job's output. Adversary: the construction succeeded, an
/// independent check_certificate replay (timed into *replay_ms) verifies it
/// and covers exactly n-1 distinct registers, and a campaign wrote a
/// committed checkpoint. Explore: the run truncated at exactly the cap,
/// seeded witnesses replay through sim::run, and re-interning every visited
/// configuration into a fresh arena finds no duplicate. `doctor` drops one
/// covering pair from the certificate before the replay (the benchmark's
/// own test that a bad certificate is caught).
void check_job(const Spec& spec, const Prepared& prep, const JobResult& job,
               std::uint64_t seed, bool doctor, Gate& gate,
               double* replay_ms);

/// The job's exact counts (schedule digest included) as key/value pairs;
/// they must repeat exactly across runs of the same build.
std::vector<std::pair<std::string, std::string>> exact_counts(
    const Spec& spec, const JobResult& job);

/// Configurations harvested from the workload for the layer probes,
/// packed words_per_config words each in exploration order.
std::vector<tsb::sim::Value> harvest(const Spec& spec, const Prepared& prep,
                                     const JobResult& job, std::uint64_t seed);

}  // namespace perfbench
