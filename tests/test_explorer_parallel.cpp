// The work-stealing ParallelExplorer's determinism contract (relaxed from
// the old level-synchronous design's bit-identical rule): on COMPLETE runs
// the visited configuration SET — and therefore the visited count and any
// order-independent verdict — is identical to the sequential Explorer's
// for every thread count. Discovery order, id assignment, and witness
// schedules are machine-dependent, but every witness must replay to its
// configuration. Truncated runs never claim completeness: whatever they
// visit is a subset of the true reachable set. These tests force the
// parallel path with a tiny parallel_threshold and run under TSan in CI to
// certify the deque/shard/arena data sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "consensus/ballot.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/explorer.hpp"
#include "sim/parallel_explorer.hpp"
#include "toy_protocol.hpp"

namespace tsb::sim {
namespace {

using test::ToyProtocol;

struct SetSnapshot {
  std::vector<std::vector<Value>> packed;  ///< visited set, sorted
  ExploreResult result;
};

/// Run an exploration and capture the visited configurations as packed
/// word vectors, sorted — the canonical form two explorers must agree on.
template <typename ExplorerT>
SetSnapshot set_snapshot(const Protocol& proto, ExplorerT& explorer,
                         const Config& root, ProcSet p) {
  ConfigArena packer(proto.num_processes(), proto.num_registers());
  SetSnapshot s;
  s.result = explorer.explore(root, p, [&](const ConfigView& c) {
    const Config cfg = c.materialize();
    packer.pack(cfg, packer.scratch());
    s.packed.emplace_back(packer.scratch(),
                          packer.scratch() + packer.words_per_config());
    return true;
  });
  std::sort(s.packed.begin(), s.packed.end());
  return s;
}

void expect_same_set(const SetSnapshot& a, const SetSnapshot& b) {
  EXPECT_EQ(a.result.visited, b.result.visited);
  EXPECT_EQ(a.result.truncated, b.result.truncated);
  EXPECT_EQ(a.result.aborted, b.result.aborted);
  ASSERT_EQ(a.packed.size(), b.packed.size());
  EXPECT_EQ(a.packed, b.packed);
}

void expect_no_duplicate_visits(const SetSnapshot& s) {
  // Each configuration is visited exactly once: the sorted set has no
  // adjacent duplicates and its size matches the reported visited count.
  EXPECT_EQ(s.packed.size(), s.result.visited);
  EXPECT_EQ(std::adjacent_find(s.packed.begin(), s.packed.end()),
            s.packed.end());
}

TEST(ParallelExplorer, MatchesSequentialOnToyProtocol) {
  ToyProtocol proto(3);
  const Config root = initial_config(proto, {3, 4, 5});
  const ProcSet everyone = ProcSet::first_n(3);

  Explorer seq(proto);
  const SetSnapshot expected = set_snapshot(proto, seq, root, everyone);
  ASSERT_FALSE(expected.result.truncated);

  for (int threads : {1, 2, 3, 8}) {
    // parallel_threshold = 1 forces even this tiny space through the
    // work-stealing machinery.
    ParallelExplorer par(proto, {.threads = threads,
                                 .chunk_configs = 4,
                                 .parallel_threshold = 1});
    const SetSnapshot got = set_snapshot(proto, par, root, everyone);
    expect_same_set(expected, got);
    expect_no_duplicate_visits(got);
  }
}

TEST(ParallelExplorer, MatchesSequentialOnBallotConsensus) {
  const int n = 3;
  consensus::BallotConsensus proto(n, 2 * n);
  const Config root = initial_config(proto, {0, 1, 1});
  const ProcSet everyone = ProcSet::first_n(n);

  Explorer seq(proto);
  const SetSnapshot expected = set_snapshot(proto, seq, root, everyone);
  ASSERT_FALSE(expected.result.truncated);
  ASSERT_GT(expected.result.visited, 1000u);  // a real workload, not a toy

  for (int threads : {1, 2, 3, 4, 8}) {
    // Small chunks + a low threshold maximize steal traffic.
    ParallelExplorer par(proto, {.threads = threads,
                                 .chunk_configs = 16,
                                 .parallel_threshold = 64});
    const SetSnapshot got = set_snapshot(proto, par, root, everyone);
    expect_same_set(expected, got);
    expect_no_duplicate_visits(got);
    EXPECT_EQ(par.last_run().went_parallel, threads > 1);
  }
}

TEST(ParallelExplorer, ChunksCarryManyConfigs) {
  // A work item is a list of the ids one chunk committed, so chunks stay
  // near chunk_configs even though ids from different workers interleave.
  // Handing out contiguous id ranges instead collapsed them to about one
  // configuration each.
  const int n = 4;
  consensus::BallotConsensus proto(n, n);
  const Config root = initial_config(proto, {0, 1, 0, 1});
  const ProcSet everyone = ProcSet::first_n(n);

  Explorer seq(proto);
  const SetSnapshot expected = set_snapshot(proto, seq, root, everyone);
  ASSERT_FALSE(expected.result.truncated);
  ASSERT_GT(expected.result.visited, 100'000u);

  ParallelExplorer par(proto, {.threads = 4});
  const SetSnapshot got = set_snapshot(proto, par, root, everyone);
  expect_same_set(expected, got);
  ASSERT_TRUE(par.last_run().went_parallel);
  EXPECT_GT(par.last_run().chunks, 0u);
  EXPECT_LE(par.last_run().chunks * 16, got.result.visited)
      << "chunks " << par.last_run().chunks;
}

TEST(ParallelExplorer, PendingIdListsCountTowardsTrackedBytes) {
  // Pending work items hold their ids outside the deques' own buffers;
  // the memory budget has to see them.
  const int n = 4;
  consensus::BallotConsensus proto(n, 2 * n);
  const Config root = initial_config(proto, {0, 1, 0, 1});
  const ProcSet everyone = ProcSet::first_n(n);

  ParallelExplorer par(proto, {.max_configs = 300'000,
                               .threads = 4,
                               .parallel_threshold = 1024});
  std::size_t visits = 0;
  std::size_t max_pending = 0;
  std::size_t violations = 0;
  par.explore(root, everyone, [&](const ConfigView&) {
    if ((++visits & 0x3FF) == 0) {
      const std::size_t pending = par.pending();
      max_pending = std::max(max_pending, pending);
      if (par.tracked_bytes() < pending * sizeof(ConfigId)) ++violations;
    }
    return true;
  });
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(max_pending, 10'000u);  // the check above was not vacuous

  // A budget far below the run's footprint still trips and stops the run
  // cleanly.
  par.set_budget(std::size_t{8} << 20,
                 std::chrono::steady_clock::time_point::max());
  const auto res = par.explore(root, everyone,
                               [](const ConfigView&) { return true; });
  EXPECT_TRUE(res.budget_exhausted);
  EXPECT_TRUE(res.truncated);
  EXPECT_LT(res.visited, 300'000u);
}

TEST(ParallelExplorer, MatchesSequentialOnProcessRestriction) {
  consensus::BallotConsensus proto(3, 6);
  const Config root = initial_config(proto, {1, 0, 1});
  const ProcSet sub = ProcSet::first_n(3).without(1);

  Explorer seq(proto);
  const SetSnapshot expected = set_snapshot(proto, seq, root, sub);
  ParallelExplorer par(proto, {.threads = 4,
                               .chunk_configs = 8,
                               .parallel_threshold = 16});
  expect_same_set(expected, set_snapshot(proto, par, root, sub));
}

TEST(ParallelExplorer, TruncationIsSoundNeverClaimsCompleteness) {
  // A capped run stops at a machine-dependent point, but: it must report
  // truncated, never visit more than the cap allows, visit nothing twice,
  // and visit only genuinely reachable configurations (a subset of the
  // complete enumeration). Exit-4-style truncation proves positives, never
  // negatives.
  consensus::BallotConsensus proto(3, 6);
  const Config root = initial_config(proto, {0, 1, 0});
  const ProcSet everyone = ProcSet::first_n(3);

  Explorer full(proto);
  const SetSnapshot complete = set_snapshot(proto, full, root, everyone);
  ASSERT_FALSE(complete.result.truncated);

  for (std::size_t cap : {2u, 50u, 500u}) {
    for (int threads : {1, 3}) {
      ParallelExplorer par(proto, {.max_configs = cap,
                                   .threads = threads,
                                   .chunk_configs = 4,
                                   .parallel_threshold = 8});
      const SetSnapshot got = set_snapshot(proto, par, root, everyone);
      EXPECT_TRUE(got.result.truncated);
      EXPECT_FALSE(got.result.aborted);
      EXPECT_LE(got.result.visited, cap);
      expect_no_duplicate_visits(got);
      EXPECT_TRUE(std::includes(complete.packed.begin(),
                                complete.packed.end(), got.packed.begin(),
                                got.packed.end()))
          << "cap " << cap << " threads " << threads
          << " visited a configuration the sequential explorer never saw";
    }
  }
}

TEST(ParallelExplorer, WitnessSchedulesReplayToTheirConfigs) {
  const int n = 3;
  consensus::BallotConsensus proto(n, 2 * n);
  const Config root = initial_config(proto, {1, 1, 0});
  const ProcSet everyone = ProcSet::first_n(n);

  // Abort at the first configuration where any process has decided. Which
  // decided configuration aborts the run is order-dependent (and thus not
  // the sequential one's), but the witness must replay to exactly the
  // configuration reported.
  ParallelExplorer par(proto, {.threads = 8,
                               .chunk_configs = 16,
                               .parallel_threshold = 64});
  auto result = par.explore(root, everyone, [&](const ConfigView& c) {
    for (ProcId p = 0; p < n; ++p) {
      if (decision_of(proto, c, p)) return false;
    }
    return true;
  });
  ASSERT_TRUE(result.aborted);
  ASSERT_TRUE(result.abort_config.has_value());

  const auto witness = par.witness(*result.abort_config);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->only(everyone));
  EXPECT_EQ(run(proto, root, *witness), *result.abort_config);

  // The sequential explorer also aborts (some decided configuration is
  // reachable), and its own witness replays too.
  Explorer seq(proto);
  auto seq_result = seq.explore(root, everyone, [&](const ConfigView& c) {
    for (ProcId p = 0; p < n; ++p) {
      if (decision_of(proto, c, p)) return false;
    }
    return true;
  });
  ASSERT_TRUE(seq_result.aborted);
  const auto seq_witness = seq.witness(*seq_result.abort_config);
  ASSERT_TRUE(seq_witness.has_value());
  EXPECT_EQ(run(proto, root, *seq_witness), *seq_result.abort_config);
}

TEST(ParallelExplorer, WitnessByIdReplaysForSampledIds) {
  // Every id a visitor saw must yield a witness that replays to that id's
  // configuration, whatever thread committed it.
  consensus::BallotConsensus proto(3, 6);
  const Config root = initial_config(proto, {0, 1, 1});
  const ProcSet everyone = ProcSet::first_n(3);

  ParallelExplorer par(proto, {.threads = 4,
                               .chunk_configs = 8,
                               .parallel_threshold = 32});
  std::vector<ConfigId> seen;
  auto result = par.explore(root, everyone, [&](const ConfigView& c) {
    seen.push_back(c.id);
    return true;
  });
  ASSERT_FALSE(result.aborted);
  ASSERT_GT(seen.size(), 100u);

  for (std::size_t i = 0; i < seen.size(); i += seen.size() / 64 + 1) {
    const ConfigId id = seen[i];
    const auto w = par.witness_by_id(id);
    ASSERT_TRUE(w.has_value()) << "id " << id;
    EXPECT_TRUE(w->only(everyone));
    EXPECT_EQ(run(proto, root, *w), par.view(id).materialize())
        << "witness for id " << id << " replays elsewhere";
  }
}

TEST(ParallelExplorer, StatsAndTraceInstrumentationIsPurelyObservational) {
  // With per-level stats streaming and tracing both live, the visited set
  // and verdicts must match the uninstrumented sequential explorer — the
  // forensics layer observes, it never steers. Runs under TSan in CI,
  // which also certifies the stats paths' data sharing.
  const int n = 3;
  consensus::BallotConsensus proto(n, 2 * n);
  const Config root = initial_config(proto, {0, 1, 1});
  const ProcSet everyone = ProcSet::first_n(n);

  Explorer plain(proto);
  const SetSnapshot expected = set_snapshot(proto, plain, root, everyone);

  obs::TraceSink::global().enable(1 << 14);
  const std::string stats_path =
      ::testing::TempDir() + "explorer_stats_determinism.jsonl";
  ASSERT_TRUE(obs::stats_sink().open(stats_path));

  Explorer seq(proto, {.stats_min_visited = 0});
  expect_same_set(expected, set_snapshot(proto, seq, root, everyone));
  for (int threads : {2, 8}) {
    ParallelExplorer par(proto, {.threads = threads,
                                 .stats_min_visited = 0,
                                 .chunk_configs = 16,
                                 .parallel_threshold = 64});
    expect_same_set(expected, set_snapshot(proto, par, root, everyone));
  }

  const std::uint64_t records = obs::stats_sink().lines();
  obs::stats_sink().close();
  obs::TraceSink::global().disable();
  // One "explore.done" per run plus per-level and explore.ws records
  // (min_visited = 0 keeps them all): three instrumented runs must have
  // left a trail.
  EXPECT_GE(records, 3u);
}

TEST(ParallelExplorer, RepeatedRunsVisitTheSameSet) {
  // The SET is reproducible run to run and across explorer instances,
  // even though interleavings differ every time.
  const int n = 3;
  consensus::BallotConsensus proto(n, 2 * n);
  const Config root = initial_config(proto, {0, 0, 1});
  const ProcSet everyone = ProcSet::first_n(n);

  ParallelExplorer par(proto, {.threads = 8,
                               .chunk_configs = 16,
                               .parallel_threshold = 64});
  const SetSnapshot first = set_snapshot(proto, par, root, everyone);
  const SetSnapshot second = set_snapshot(proto, par, root, everyone);
  expect_same_set(first, second);

  ParallelExplorer fresh(proto, {.threads = 8,
                                 .chunk_configs = 16,
                                 .parallel_threshold = 64});
  expect_same_set(first, set_snapshot(proto, fresh, root, everyone));
}

TEST(ParallelExplorer, ZeroMaxConfigsClampsToRootOnly) {
  // max_configs = 0 used to leave the parent directory unprepared while
  // the root was still interned — ensure()/set() then dereferenced a null
  // directory. The cap is clamped to 1: the root is visited, nothing else.
  ToyProtocol proto(3);
  const Config root = initial_config(proto, {3, 4, 5});
  ParallelExplorer par(proto, {.max_configs = 0, .threads = 2});
  const auto res = par.explore(root, ProcSet::first_n(3),
                               [](const ConfigView&) { return true; });
  EXPECT_TRUE(res.truncated);
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(res.visited, 1u);
}

TEST(ParallelExplorer, ReuseUnderBudgetKeepsByteTrackingSane) {
  // Regression: Shard::reset used assign(), which keeps the prior run's
  // (larger) table capacity, so on a reused explorer the next shard growth
  // computed `new_capacity - old_capacity` as a negative unsigned delta —
  // shard_bytes_ wrapped to ~2^64, tracked_bytes() exceeded any memory
  // budget, and every later run spuriously reported budget_exhausted.
  // The valency oracle reuses one ParallelExplorer across queries, so any
  // budgeted multi-query campaign hit this after the first run big enough
  // to grow a shard past its reset size (~46k visited configurations).
  const int n = 4;
  consensus::BallotConsensus proto(n, 2 * n);
  const Config root = initial_config(proto, {0, 1, 0, 1});
  const ProcSet everyone = ProcSet::first_n(n);

  // 150k visited configurations spread over 64 shards push each table to
  // ~4096 slots — well past the 1024-slot reset size, so the second run's
  // regrowth reproduces the negative delta. The ballot n=4 space is >2M
  // configurations, so both runs cap-truncate (schedule-dependent subsets;
  // only per-run invariants are checkable, not set equality).
  ParallelExplorer par(proto, {.max_configs = 150'000,
                               .threads = 2,
                               .chunk_configs = 64,
                               .parallel_threshold = 1024});
  par.set_budget(std::size_t{1} << 30,  // generous: real usage is ~10s of MB
                 std::chrono::steady_clock::time_point::max());

  for (int run = 0; run < 2; ++run) {
    const SetSnapshot s = set_snapshot(proto, par, root, everyone);
    // Pre-fix, the second run died at its first shard growth (~46k
    // visited) with a spurious budget_exhausted: tracked_bytes() had
    // wrapped to ~2^64 and no budget can exceed that.
    EXPECT_FALSE(s.result.budget_exhausted) << "run " << run;
    EXPECT_TRUE(s.result.truncated) << "run " << run;
    EXPECT_GT(s.result.visited, 100'000u) << "run " << run;
    expect_no_duplicate_visits(s);
    EXPECT_LT(par.tracked_bytes(), std::size_t{1} << 30) << "run " << run;
  }
}

TEST(ParallelExplorer, StealAndChunkForensicsAreReported) {
  consensus::BallotConsensus proto(3, 6);
  const Config root = initial_config(proto, {0, 1, 1});
  const ProcSet everyone = ProcSet::first_n(3);

  ParallelExplorer par(proto, {.threads = 4,
                               .chunk_configs = 8,
                               .parallel_threshold = 16});
  const auto result = par.explore(root, everyone,
                                  [](const ConfigView&) { return true; });
  ASSERT_FALSE(result.truncated);
  const auto& rs = par.last_run();
  EXPECT_TRUE(rs.went_parallel);
  EXPECT_GT(rs.chunks, 0u);
  EXPECT_GT(rs.warm_visited, 0u);
  EXPECT_LE(rs.warm_visited, result.visited);

  // Below the threshold the pool must never engage.
  ParallelExplorer warm_only(proto, {.threads = 4,
                                     .parallel_threshold = 100'000'000});
  warm_only.explore(root, everyone, [](const ConfigView&) { return true; });
  EXPECT_FALSE(warm_only.last_run().went_parallel);
  EXPECT_EQ(warm_only.last_run().steals, 0u);
}

}  // namespace
}  // namespace tsb::sim
