// Out-of-core edge arrays: the reach graph's per-node successor ids,
// renamings, and decide flags spill to unlinked backing files alongside the
// node arena. The contract mirrors the arena's: spilling is a memory plan,
// not a semantics change —
//
//   * a forced-spill campaign produces the IDENTICAL verdict, certificate,
//     and expansion count as the fully-resident run, at any thread count;
//   * a checkpoint taken while edge segments are on disk restores into a
//     warm oracle that answers without re-exploration;
//   * a write failure on an edge-segment append degrades to
//     util::BudgetExhausted (the CLI's exit-4 path) and leaves no debris —
//     backing files are unlinked at creation, so a fault can strand nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "sim/engine.hpp"
#include "util/checkpoint.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"
#include "util/spill_store.hpp"

namespace tsb {
namespace {

namespace fs = std::filesystem;
using util::ckpt::SectionReader;
using util::ckpt::SectionWriter;

/// Fresh per-test scratch directory under gtest's temp root.
std::string tdir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "tsb_gspill_" + name;
  std::error_code ec;
  fs::remove_all(d, ec);
  fs::create_directories(d);
  return d;
}

std::size_t dir_entries(const std::string& d) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(d)) {
    (void)e;
    ++n;
  }
  return n;
}

bound::SpaceBoundAdversary::Result run_adversary(int n, int cap, int threads,
                                                 bool spill, bool graph_spill,
                                                 const std::string& dir) {
  consensus::BallotConsensus proto(n, cap);
  bound::SpaceBoundAdversary::Options opts;
  opts.threads = threads;
  if (spill) {
    opts.spill_dir = dir;
    // Threshold 1 byte + 64-record segments: every cold full segment of
    // every store leaves RAM at each quiescent point, on test-sized runs.
    opts.spill_threshold_bytes = 1;
    opts.spill_seg_configs = 64;
    opts.graph_spill = graph_spill;
  }
  bound::SpaceBoundAdversary adversary(proto, opts);
  return adversary.run();
}

void expect_same_certificate(const bound::SpaceBoundAdversary::Result& a,
                             const bound::SpaceBoundAdversary::Result& b) {
  EXPECT_EQ(a.certificate.protocol, b.certificate.protocol);
  EXPECT_EQ(a.certificate.inputs, b.certificate.inputs);
  EXPECT_EQ(a.certificate.schedule.steps(), b.certificate.schedule.steps());
  EXPECT_EQ(a.certificate.covering, b.certificate.covering);
  EXPECT_EQ(a.check.distinct_registers, b.check.distinct_registers);
  EXPECT_EQ(a.check.registers, b.check.registers);
}

// --- Differential: forced edge spilling ≡ fully resident --------------------

TEST(GraphSpill, ForcedEdgeSpillingMatchesResidentAtAnyThreadCount) {
  const std::pair<int, int> cases[] = {{3, 6}, {4, 8}, {5, 15}};
  for (const auto& [n, cap] : cases) {
    const auto resident = run_adversary(n, cap, 1, false, false, "");
    ASSERT_TRUE(resident.ok) << "n=" << n << ": " << resident.error;
    ASSERT_TRUE(resident.check.ok) << resident.check.error;
    EXPECT_EQ(resident.graph_spilled_bytes, 0u);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      const std::string dir = tdir("diff_n" + std::to_string(n) + "_t" +
                                   std::to_string(threads));
      const auto spilled = run_adversary(n, cap, threads, true, true, dir);
      ASSERT_TRUE(spilled.ok) << spilled.error;
      EXPECT_TRUE(spilled.check.ok) << spilled.check.error;
      expect_same_certificate(resident, spilled);
      // The engine's discovery order is bit-identical at any thread count,
      // so the expansion counter must match exactly, not approximately.
      EXPECT_EQ(spilled.reach_expanded, resident.reach_expanded);
      EXPECT_EQ(spilled.reach_reused, resident.reach_reused);
      // The test is vacuous unless edges actually left RAM.
      EXPECT_GT(spilled.graph_spilled_bytes, 0u);
      // Backing files are unlinked at creation: nothing may remain.
      EXPECT_EQ(dir_entries(dir), 0u);
    }
  }
}

TEST(GraphSpill, NoGraphSpillFlagKeepsEdgesResidentWithSameVerdict) {
  // --no-graph-spill reproduces the node-arena-only behaviour: the A/B
  // anchor for attributing wins to edge spilling specifically.
  const auto full = run_adversary(4, 8, 1, true, true, tdir("ab_full"));
  const auto arena_only =
      run_adversary(4, 8, 1, true, false, tdir("ab_arena"));
  ASSERT_TRUE(full.ok) << full.error;
  ASSERT_TRUE(arena_only.ok) << arena_only.error;
  expect_same_certificate(full, arena_only);
  EXPECT_EQ(arena_only.reach_expanded, full.reach_expanded);
  EXPECT_GT(full.graph_spilled_bytes, 0u);
  EXPECT_EQ(arena_only.graph_spilled_bytes, 0u);
}

// --- Checkpoint while edges are on disk -------------------------------------

bound::ValencyOracle::Options spill_opts(const std::string& dir,
                                         bool graph_spill = true) {
  bound::ValencyOracle::Options o;
  o.spill_dir = dir;
  o.spill_threshold_bytes = 1;
  o.spill_seg_configs = 64;
  o.graph_spill = graph_spill;
  return o;
}

TEST(GraphSpillCheckpoint, SaveWithEdgesOnDiskRestoresWarmAndSpilled) {
  consensus::BallotConsensus proto(4, 8);
  const sim::Config init = sim::initial_config(proto, {0, 1, 1, 1});
  const sim::ProcSet everyone = sim::ProcSet::first_n(4);

  bound::ValencyOracle a(proto, spill_opts(tdir("ckpt_a")));
  const bool biv = a.bivalent(init, everyone);
  const bool can0 = a.can_decide(init, everyone, 0);
  // The save must stream edge rows while some of them live on disk —
  // that is the case under test, not an incidental detail.
  ASSERT_GT(a.graph_spilled_bytes(), 0u)
      << "forced spill never engaged; the roundtrip would be vacuous";

  const std::string path = tdir("ckpt_state") + "/state.bin";
  {
    SectionWriter w(path);
    a.save_state(w);
    w.finish();
  }

  bound::ValencyOracle b(proto, spill_opts(tdir("ckpt_b")));
  {
    SectionReader r(path);
    b.restore_state(r);
    r.expect_end();
  }
  EXPECT_EQ(b.graph_nodes(), a.graph_nodes());
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
  EXPECT_EQ(b.edges_expanded(), a.edges_expanded());
  EXPECT_EQ(b.edges_reused(), a.edges_reused());
  // restore() re-applies the memory plan: the rebuilt stores spill straight
  // back down to the threshold rather than ballooning resident.
  EXPECT_GT(b.graph_spilled_bytes(), 0u);
  EXPECT_EQ(b.bivalent(init, everyone), biv);
  EXPECT_EQ(b.can_decide(init, everyone, 0), can0);
  EXPECT_EQ(b.explorations(), 0u)
      << "restored spilled state missed the memo and re-explored";
}

TEST(GraphSpillCheckpoint, SpilledStateRestoresIntoEdgeResidentOracle) {
  // graph_spill is a pure memory-plan knob, excluded from the fingerprint
  // (unlike spill_thresh/spill_seg, which shape the arena layout): a
  // campaign may checkpoint with edges on disk and resume with them
  // resident, e.g. for an A/B run on the same warm state.
  consensus::BallotConsensus proto(3, 6);
  const sim::Config init = sim::initial_config(proto, {0, 1, 1});
  const sim::ProcSet everyone = sim::ProcSet::first_n(3);

  bound::ValencyOracle spilled(proto, spill_opts(tdir("xr_a")));
  const bool biv = spilled.bivalent(init, everyone);

  const std::string path = tdir("xr_state") + "/state.bin";
  {
    SectionWriter w(path);
    spilled.save_state(w);
    w.finish();
  }

  // Same arena spill plan, edge spilling off.
  bound::ValencyOracle resident(proto,
                                spill_opts(tdir("xr_b"), /*graph_spill=*/false));
  EXPECT_EQ(resident.state_fingerprint(), spilled.state_fingerprint());
  {
    SectionReader r(path);
    resident.restore_state(r);
    r.expect_end();
  }
  EXPECT_EQ(resident.graph_nodes(), spilled.graph_nodes());
  EXPECT_EQ(resident.graph_spilled_bytes(), 0u)
      << "graph_spill=false restore still pushed edges to disk";
  EXPECT_EQ(resident.bivalent(init, everyone), biv);
  EXPECT_EQ(resident.explorations(), 0u);
}

// --- Hostile I/O ------------------------------------------------------------

class GraphSpillFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::iofault::disarm(); }
};

TEST_F(GraphSpillFaultTest, EnospcOnEdgeSegmentWriteThrowsBudgetExhausted) {
  // Unit-level: the fault lands on the edge store's own segment append,
  // not on a neighbouring arena write.
  const std::string dir = tdir("enospc_unit");
  util::spill::SpillStore<std::uint64_t> store;
  store.init("graph.test", 4, 0);
  ASSERT_TRUE(store.set_spill(dir, 64));
  store.ensure(512);
  for (std::size_t i = 0; i < 512; ++i) {
    std::uint64_t* row = store.write_ptr(i);
    for (std::size_t w = 0; w < 4; ++w) row[w] = i * 4 + w;
  }
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW(
      store.maybe_spill(0, std::numeric_limits<std::size_t>::max()),
      util::BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_EQ(store.spill_failures(), 1u);
  // The failed store keeps serving resident reads — the caller decides to
  // abort (exit 4), the data is never torn.
  EXPECT_EQ(store.read(100)[2], 100u * 4 + 2);
  // No .tmp (or any other) debris: backing files are unlinked at creation.
  EXPECT_EQ(dir_entries(dir), 0u);
}

TEST_F(GraphSpillFaultTest, WriteFaultDuringForcedSpillRunExitsViaBudget) {
  // Integration-level: any spill-write failure inside a forced-spill
  // campaign surfaces as BudgetExhausted (exit 4), never a crash or a
  // wrong verdict, and the spill directory ends empty.
  const std::string dir = tdir("enospc_run");
  consensus::BallotConsensus proto(4, 8);
  bound::ValencyOracle oracle(proto, spill_opts(dir));
  const sim::Config init = sim::initial_config(proto, {0, 1, 1, 1});
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW((void)oracle.bivalent(init, sim::ProcSet::first_n(4)),
               util::BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_EQ(dir_entries(dir), 0u);
}

}  // namespace
}  // namespace tsb
