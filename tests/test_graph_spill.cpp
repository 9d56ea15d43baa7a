// Out-of-core edge arrays: the reach graph's per-node successor ids,
// renamings, and decide flags spill to unlinked backing files alongside the
// node arena. The contract mirrors the arena's: spilling is a memory plan,
// not a semantics change —
//
//   * a forced-spill campaign produces the IDENTICAL verdict, certificate,
//     and expansion count as the fully-resident run, at any thread count
//     (the shared engine runs on one thread whatever `threads` says);
//   * a checkpoint taken while edge segments are on disk is byte-identical
//     to one taken fully resident, restores into a warm oracle that
//     answers without re-exploration, and resumes to the same certificate;
//   * a write failure on an edge-segment append degrades to
//     util::BudgetExhausted (the CLI's exit-4 path) and leaves no debris —
//     backing files are unlinked at creation, so a fault can strand nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "consensus/racing.hpp"
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
                                                 bool spill,
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
    const auto resident = run_adversary(n, cap, 1, false, "");
    ASSERT_TRUE(resident.ok) << "n=" << n << ": " << resident.error;
    ASSERT_TRUE(resident.check.ok) << resident.check.error;
    EXPECT_EQ(resident.graph_spilled_bytes, 0u);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      const std::string dir = tdir("diff_n" + std::to_string(n) + "_t" +
                                   std::to_string(threads));
      const auto spilled = run_adversary(n, cap, threads, true, dir);
      ASSERT_TRUE(spilled.ok) << spilled.error;
      EXPECT_TRUE(spilled.check.ok) << spilled.check.error;
      expect_same_certificate(resident, spilled);
      // `threads` never reaches the shared engine, so its discovery order
      // and both edge counters must match exactly, not approximately.
      EXPECT_EQ(spilled.reach_expanded, resident.reach_expanded);
      EXPECT_EQ(spilled.reach_reused, resident.reach_reused);
      // The test is vacuous unless edges actually left RAM.
      EXPECT_GT(spilled.graph_spilled_bytes, 0u);
      // Backing files are unlinked at creation: nothing may remain.
      EXPECT_EQ(dir_entries(dir), 0u);
    }
  }
}

// --- Checkpoint while edges are on disk -------------------------------------

bound::ValencyOracle::Options spill_opts(const std::string& dir) {
  bound::ValencyOracle::Options o;
  o.spill_dir = dir;
  o.spill_threshold_bytes = 1;
  o.spill_seg_configs = 64;
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

// --- Byte identity across spill states --------------------------------------

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

std::string save_to(const bound::ValencyOracle& oracle,
                    const std::string& path) {
  SectionWriter w(path);
  oracle.save_state(w);
  w.finish();
  return path;
}

/// A fixed query sequence: both-value queries for every prefix set along
/// a round-robin walk from a mixed-input initial configuration.
void drive(bound::ValencyOracle& oracle, const sim::Protocol& proto) {
  const int n = proto.num_processes();
  std::vector<sim::Value> inputs(static_cast<std::size_t>(n), 1);
  inputs[0] = 0;
  sim::Config c = sim::initial_config(proto, inputs);
  for (int step = 0; step < 3 * n; ++step) {
    for (int k = 1; k <= n; ++k) {
      (void)oracle.bivalent(c, sim::ProcSet::first_n(k));
    }
    c = sim::step(proto, c, step % n);
  }
}

TEST(GraphSpillCheckpoint, SpilledDumpIsByteIdenticalToResident) {
  // 64-record segments with a partial tail: the dump walks resident
  // segments in place, decodes spilled ones whole, and stops mid-segment.
  // Racing is symmetric, so its renaming store is dumped too.
  consensus::BallotConsensus ballot(4, 8);
  consensus::RacingConsensus racing(3);
  for (const sim::Protocol* proto :
       {static_cast<const sim::Protocol*>(&ballot),
        static_cast<const sim::Protocol*>(&racing)}) {
    SCOPED_TRACE(proto->name());
    bound::ValencyOracle resident(*proto);
    bound::ValencyOracle spilled(*proto, spill_opts(tdir("ident_spill")));
    drive(resident, *proto);
    drive(spilled, *proto);
    ASSERT_EQ(spilled.graph_nodes(), resident.graph_nodes());
    ASSERT_GT(spilled.graph_spilled_bytes(), 0u)
        << "forced spill never engaged; identity would be vacuous";
    ASSERT_NE(spilled.graph_nodes() % 64, 0u)
        << "no partial tail segment; pick a different query sequence";
    ASSERT_GT(spilled.graph_nodes(), 4u * 64) << "too few segments";
    const std::string dir = tdir("ident_files");
    const auto a = slurp(save_to(resident, dir + "/resident.bin"));
    const auto b = slurp(save_to(spilled, dir + "/spilled.bin"));
    EXPECT_EQ(a.size(), b.size());
    EXPECT_TRUE(a == b) << "spilled dump differs from the resident dump";

    // The spilled dump restores into a warm spilled oracle.
    bound::ValencyOracle back(*proto, spill_opts(tdir("ident_back")));
    {
      SectionReader r(dir + "/spilled.bin");
      back.restore_state(r);
      r.expect_end();
    }
    drive(back, *proto);
    EXPECT_EQ(back.explorations(), 0u) << "restored state re-explored";
  }
}

TEST(GraphSpillCheckpoint, SpilledCheckpointMatchesResidentAndResumes) {
  // The same through the adversary: a run stopped after a fixed number of
  // quiescent polls commits the same state file resident or spilled, and
  // the spilled one resumes to the uninterrupted run's certificate.
  consensus::BallotConsensus ballot(4, 8);
  consensus::RacingConsensus racing(
      3, consensus::RacingConsensus::AdoptRule::kAtLeast);
  auto& svc = util::ckpt::CheckpointService::global();
  for (const sim::Protocol* proto :
       {static_cast<const sim::Protocol*>(&ballot),
        static_cast<const sim::Protocol*>(&racing)}) {
    SCOPED_TRACE(proto->name());
    const auto run = [&](bool spill, const std::string& ckpt_dir, bool resume,
                         std::uint64_t stop_polls) {
      bound::SpaceBoundAdversary::Options opts;
      if (spill) {
        opts.spill_dir = tdir("resume_spill");
        opts.spill_threshold_bytes = 1;
        opts.spill_seg_configs = 64;
      }
      opts.checkpoint_dir = ckpt_dir;
      opts.resume = resume;
      svc.reset();
      svc.stop_after_polls(stop_polls);
      bound::SpaceBoundAdversary adversary(*proto, opts);
      auto result = adversary.run();
      svc.reset();
      return result;
    };
    const auto state_of = [](const std::string& dir) {
      const auto m = util::ckpt::Manifest::load(util::ckpt::manifest_path(dir));
      return util::ckpt::state_path(dir, m.get_u64("generation"));
    };
    const auto baseline = run(false, "", false, 0);
    ASSERT_TRUE(baseline.ok) << baseline.error;
    // Ten polls: about 2 000-3 000 graph nodes, dozens of 64-record
    // segments, partial tail included, well before either run finishes.
    const std::uint64_t polls = 10;
    const std::string res_dir = tdir("resume_res");
    const std::string spl_dir = tdir("resume_spl");
    ASSERT_TRUE(run(false, res_dir, false, polls).stopped);
    ASSERT_TRUE(run(true, spl_dir, false, polls).stopped);
    EXPECT_TRUE(slurp(state_of(res_dir)) == slurp(state_of(spl_dir)))
        << "spilled checkpoint differs from the resident one";
    {
      bound::ValencyOracle probe(*proto, spill_opts(tdir("resume_probe")));
      SectionReader r(state_of(spl_dir));
      probe.restore_state(r);
      EXPECT_GT(probe.graph_nodes(), 16u * 64) << "stopped too early";
      EXPECT_NE(probe.graph_nodes() % 64, 0u) << "no partial tail segment";
    }
    const auto resumed = run(true, spl_dir, true, 0);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    expect_same_certificate(baseline, resumed);
    EXPECT_EQ(resumed.reach_expanded, baseline.reach_expanded);
  }
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
