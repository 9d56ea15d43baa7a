// Canonicalization (sim/canonical.*) and shared-subgraph engine soundness:
//
//  * the canonical form is invariant under all n! process renamings and
//    refine_procset's orbit representative round-trips through its renaming;
//  * the symmetric-mode oracle interns ONE exploration per orbit and every
//    de-canonicalized witness replays through the raw engine;
//  * repeat queries walk stored edges with zero expansion;
//  * the shared-subgraph backend is bit-identical to the fresh-BFS backend
//    (the differential anchor) on ballot instances n = 3..5, sequentially
//    and with worker threads, both query-by-query and through the full
//    Theorem 1 adversary.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <tuple>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "consensus/racing.hpp"
#include "sim/canonical.hpp"
#include "sim/engine.hpp"
#include "sim/reach_graph.hpp"
#include "util/rng.hpp"

namespace tsb::bound {
namespace {

using consensus::BallotConsensus;
using consensus::RacingConsensus;
using sim::ProcPerm;
using sim::Value;

std::vector<std::vector<int>> all_permutations(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  std::vector<std::vector<int>> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

TEST(ProcPerm, IdentityInverseComposeAndSetImage) {
  EXPECT_TRUE(ProcPerm::identity().is_identity());
  ProcPerm pi;
  pi.set(0, 2);
  pi.set(1, 0);
  pi.set(2, 1);
  EXPECT_EQ(pi(0), 2);
  EXPECT_EQ(pi(1), 0);
  EXPECT_EQ(pi(2), 1);
  EXPECT_FALSE(pi.is_identity());

  const ProcPerm inv = pi.inverse();
  EXPECT_TRUE(ProcPerm::compose(pi, inv).is_identity());
  EXPECT_TRUE(ProcPerm::compose(inv, pi).is_identity());

  // compose(a, b)(p) == b(a(p)).
  ProcPerm rho;
  rho.set(0, 1);
  rho.set(1, 0);
  const ProcPerm both = ProcPerm::compose(pi, rho);
  for (int p = 0; p < ProcPerm::kMaxProcs; ++p) {
    EXPECT_EQ(both(p), rho(pi(p)));
  }

  EXPECT_EQ(pi.apply(ProcSet::single(0)), ProcSet::single(2));
  EXPECT_EQ(pi.apply(ProcSet::single(1).with(2)),
            ProcSet::single(0).with(1));
}

TEST(Canonicalize, SortedFormInvariantUnderAllRenamings) {
  util::Rng rng(23);
  for (int n = 1; n <= 4; ++n) {
    const auto perms = all_permutations(n);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<Value> orig(static_cast<std::size_t>(n));
      for (Value& s : orig) {
        // Small alphabet (including the nil state) so duplicate runs and
        // ties — the cases stable sorting exists for — actually occur.
        s = static_cast<Value>(rng.range(-1, 2));
      }

      std::vector<Value> canon = orig;
      const ProcPerm pi0 = sim::canonicalize_states(canon.data(), n);
      EXPECT_TRUE(std::is_sorted(canon.begin(), canon.end()));
      for (int p = 0; p < n; ++p) {
        // Contract: sorted[pi(p)] == original state of p.
        EXPECT_EQ(canon[static_cast<std::size_t>(pi0(p))], orig[p]);
      }

      for (const auto& perm : perms) {
        // Renamed configuration: process p moves to slot perm[p].
        std::vector<Value> renamed(static_cast<std::size_t>(n));
        for (int p = 0; p < n; ++p) {
          renamed[static_cast<std::size_t>(perm[p])] = orig[p];
        }
        const ProcPerm pi = sim::canonicalize_states(renamed.data(), n);
        EXPECT_EQ(renamed, canon) << "orbit members canonicalize apart";
        for (int p = 0; p < n; ++p) {
          EXPECT_EQ(renamed[static_cast<std::size_t>(pi(perm[p]))], orig[p]);
        }
      }
    }
  }
}

TEST(Canonicalize, RefineProcsetOrbitRoundTrips) {
  util::Rng rng(31);
  for (int n = 2; n <= 4; ++n) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<Value> sorted(static_cast<std::size_t>(n));
      for (Value& s : sorted) s = static_cast<Value>(rng.range(0, 1));
      std::sort(sorted.begin(), sorted.end());

      for (std::uint64_t bits = 1; bits < (1ull << n); ++bits) {
        const ProcSet p{bits};
        ProcSet canonical;
        const ProcPerm tau =
            sim::refine_procset(sorted.data(), n, p, &canonical);

        // tau maps the queried set onto the canonical member set...
        EXPECT_EQ(tau.apply(p), canonical);
        // ...while fixing the sorted configuration (it only permutes
        // within runs of equal states)...
        for (int q = 0; q < n; ++q) {
          EXPECT_EQ(sorted[static_cast<std::size_t>(tau(q))], sorted[q]);
        }
        // ...and round-trips: tau^-1 maps the representative back.
        EXPECT_EQ(tau.inverse().apply(canonical), p);
        EXPECT_EQ(canonical.size(), p.size());

        // The representative is a fixpoint: refining it is the identity
        // on the set.
        ProcSet again;
        sim::refine_procset(sorted.data(), n, canonical, &again);
        EXPECT_EQ(again, canonical);
      }
    }
  }
}

// Renamed configuration of a symmetric protocol: process p moves to slot
// perm[p]; registers are global and untouched.
Config rename_config(const Config& c, const std::vector<int>& perm) {
  Config out = c;
  for (std::size_t p = 0; p < perm.size(); ++p) {
    out.states[static_cast<std::size_t>(perm[p])] = c.states[p];
  }
  return out;
}

ProcSet rename_set(ProcSet s, const std::vector<int>& perm) {
  std::uint64_t bits = 0;
  s.for_each([&](int p) { bits |= 1ull << perm[static_cast<std::size_t>(p)]; });
  return ProcSet{bits};
}

TEST(Canonicalize, OracleRunsOneExplorationPerOrbit) {
  // RacingConsensus is process-oblivious (symmetric() == true), so every
  // renaming of a (config, procset) query is the SAME canonical pair: the
  // first query explores, all 3! - 1 renamed variants must be memo hits
  // with identical verdicts.
  RacingConsensus proto(3);
  ASSERT_TRUE(proto.symmetric());
  ValencyOracle oracle(proto);
  ASSERT_TRUE(oracle.reuse_enabled());

  const Config c = sim::initial_config(proto, {0, 1, 1});
  const ProcSet p = ProcSet::single(0).with(1);
  const bool base[2] = {oracle.can_decide(c, p, 0),
                        oracle.can_decide(c, p, 1)};
  EXPECT_EQ(oracle.explorations(), 1u);
  EXPECT_TRUE(oracle.engine_symmetric());

  for (const auto& perm : all_permutations(3)) {
    const Config d = rename_config(c, perm);
    const ProcSet q = rename_set(p, perm);
    EXPECT_EQ(oracle.can_decide(d, q, 0), base[0]);
    EXPECT_EQ(oracle.can_decide(d, q, 1), base[1]);
  }
  EXPECT_EQ(oracle.explorations(), 1u)
      << "a renamed query escaped the orbit memo";
  EXPECT_GE(oracle.cache_hits(), 6u);
}

TEST(Canonicalize, EqualStateProcessesShareTheOrbitMemo) {
  // Processes 0 and 1 start with the same input, hence the same state:
  // ({C}, {0}) and ({C}, {1}) are one orbit even without renaming the
  // configuration. refine_procset is what merges them.
  RacingConsensus proto(3);
  ValencyOracle oracle(proto);
  const Config c = sim::initial_config(proto, {0, 0, 1});

  const bool a = oracle.can_decide(c, ProcSet::single(0), 0);
  EXPECT_EQ(oracle.explorations(), 1u);
  const bool b = oracle.can_decide(c, ProcSet::single(1), 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(oracle.explorations(), 1u) << "equal-state singleton missed";
  // The distinct-state process is a genuinely different query.
  oracle.can_decide(c, ProcSet::single(2), 0);
  EXPECT_EQ(oracle.explorations(), 2u);
}

TEST(Canonicalize, WitnessesReplayAfterDecanonicalization) {
  // Witnesses come out of the engine in the canonical frame; the oracle
  // must hand back schedules in the CALLER's frame. Replay each one
  // through the raw engine from the original (un-renamed) configuration.
  RacingConsensus proto(3);
  ValencyOracle oracle(proto);
  util::Rng rng(47);

  Config c = sim::initial_config(proto, {1, 0, 0});
  for (int step_count = 0; step_count < 10; ++step_count) {
    for (std::uint64_t bits = 1; bits < (1ull << 3); ++bits) {
      const ProcSet p{bits};
      for (Value v : {0, 1}) {
        if (!oracle.can_decide(c, p, v)) continue;
        const std::optional<sim::Schedule> w =
            oracle.deciding_schedule(c, p, v);
        ASSERT_TRUE(w.has_value());
        EXPECT_TRUE(w->only(p)) << "witness steps outside P";
        const Config end = sim::run(proto, c, *w);
        EXPECT_TRUE(sim::some_decided(proto, end, v))
            << "de-canonicalized witness does not decide " << v;
      }
    }
    c = sim::step(proto, c, static_cast<int>(rng.below(3)));
  }
}

TEST(StoredEdges, RepeatedQueryWalksOnlyStoredEdges) {
  // Every edge expands at most once per session. A repeat of a drained
  // query walks the same entries over the stored edges alone — zero
  // protocol steps, one reuse per traversal of the first pass, identical
  // verdicts and witness — and so does a query from a configuration the
  // first pass visited.
  BallotConsensus proto(3, 9);
  sim::ReachGraph graph(proto, {});
  const Config c = sim::initial_config(proto, {1, 1, 1});
  const ProcSet p = ProcSet::single(1).with(2);

  ProcPerm pi;
  const auto first = graph.query(c, p, &pi);
  EXPECT_FALSE(first.truncated);
  EXPECT_GT(first.expanded, 0u);
  EXPECT_TRUE(first.can[1]);   // uniform inputs: univalent on 1
  EXPECT_FALSE(first.can[0]);
  const std::size_t nodes = graph.nodes();
  const std::uint64_t expanded = graph.edges_expanded();

  const auto again = graph.query(c, p, &pi);
  EXPECT_EQ(again.expanded, 0u);
  EXPECT_EQ(again.reused, first.expanded + first.reused);
  EXPECT_EQ(again.visited, first.visited);
  EXPECT_EQ(again.can[0], first.can[0]);
  EXPECT_EQ(again.can[1], first.can[1]);
  EXPECT_EQ(again.witness[1].steps(), first.witness[1].steps());
  EXPECT_EQ(again.witness_id[1], first.witness_id[1]);
  EXPECT_EQ(graph.nodes(), nodes);
  EXPECT_EQ(graph.edges_expanded(), expanded);

  // One P-step deeper: still inside the stored subgraph.
  const Config c2 = sim::step(proto, c, 1);
  const auto prefix = graph.query(c2, p, &pi);
  EXPECT_EQ(prefix.expanded, 0u);
  EXPECT_GT(prefix.reused, 0u);
  EXPECT_TRUE(prefix.can[1]);
  EXPECT_FALSE(prefix.can[0]);
  EXPECT_EQ(graph.edges_expanded(), expanded);
}

// --- differential: shared-subgraph engine vs fresh-BFS anchor ------------

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  int threads() const { return std::get<1>(GetParam()); }
};

TEST_P(DifferentialTest, SharedEngineMatchesFreshBfsQueryByQuery) {
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle shared(proto, {.threads = threads(), .reuse = true});
  ValencyOracle fresh(proto, {.threads = threads(), .reuse = false});
  util::Rng rng(101 + static_cast<std::uint64_t>(n()));

  std::vector<Value> inputs(static_cast<std::size_t>(n()), 0);
  inputs[0] = 1;
  Config c = sim::initial_config(proto, inputs);

  std::vector<ProcSet> sets;
  for (int p = 0; p < n(); ++p) sets.push_back(ProcSet::single(p));
  if (n() <= 4) {
    sets.push_back(ProcSet::first_n(n()));
    sets.push_back(ProcSet::first_n(n()).without(0));
    sets.push_back(ProcSet::first_n(n()).without(n() - 1));
  } else {
    // At n = 5 an everyone-query explores the full reachable space and
    // trips the 2M-config cap; stick to the |P| <= 3 sets the adversary's
    // lemma loops actually ask about.
    sets.push_back(ProcSet::single(0).with(1));
    sets.push_back(ProcSet::single(n() - 2).with(n() - 1));
    sets.push_back(ProcSet::single(0).with(1).with(2));
    sets.push_back(ProcSet::single(2).with(3).with(4));
  }

  for (int step_count = 0; step_count < 8; ++step_count) {
    for (const ProcSet p : sets) {
      for (Value v : {0, 1}) {
        const bool want = fresh.can_decide(c, p, v);
        ASSERT_EQ(shared.can_decide(c, p, v), want)
            << "verdict diverged at n=" << n() << " step=" << step_count
            << " P=" << p.to_string() << " v=" << v;
        if (!want) continue;
        // Both backends must also produce REPLAYABLE witnesses (they may
        // legitimately differ schedule-for-schedule).
        for (ValencyOracle* o : {&shared, &fresh}) {
          const auto w = o->deciding_schedule(c, p, v);
          ASSERT_TRUE(w.has_value());
          EXPECT_TRUE(
              sim::some_decided(proto, sim::run(proto, c, *w), v));
        }
      }
    }
    c = sim::step(proto, c, static_cast<int>(
                                rng.below(static_cast<std::uint64_t>(n()))));
  }
  EXPECT_FALSE(shared.ever_truncated());
  EXPECT_FALSE(fresh.ever_truncated());
  EXPECT_GT(shared.edges_reused(), 0u);
  EXPECT_EQ(fresh.edges_expanded(), 0u);
}

TEST_P(DifferentialTest, AdversaryCertifiesIdenticallyInBothModes) {
  BallotConsensus proto(n(), 3 * n());
  SpaceBoundAdversary::Options opts;
  opts.threads = threads();

  opts.reuse = true;
  const auto with_reuse = SpaceBoundAdversary(proto, opts).run();
  opts.reuse = false;
  const auto without = SpaceBoundAdversary(proto, opts).run();

  ASSERT_TRUE(with_reuse.ok) << with_reuse.error;
  ASSERT_TRUE(without.ok) << without.error;
  EXPECT_EQ(with_reuse.check.distinct_registers, n() - 1);
  EXPECT_EQ(without.check.distinct_registers, n() - 1);
  // The constructions walk the same lemma decision tree, so the verdict
  // stream — and with it the certificate — must agree exactly.
  EXPECT_EQ(with_reuse.certificate.schedule, without.certificate.schedule);
  EXPECT_EQ(with_reuse.certificate.covering, without.certificate.covering);
  EXPECT_EQ(with_reuse.valency_queries, without.valency_queries);
  EXPECT_GT(with_reuse.reach_reused, 0u);
  EXPECT_EQ(without.reach_expanded, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Ballot, DifferentialTest,
    ::testing::Combine(::testing::Values(3, 4, 5), ::testing::Values(1, 2)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "t" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tsb::bound
