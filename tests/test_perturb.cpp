#include <gtest/gtest.h>

#include "perturb/counter.hpp"
#include "perturb/perturbation.hpp"
#include "perturb/snapshot.hpp"
#include "util/require.hpp"

namespace tsb::perturb {
namespace {

TEST(LongLivedEngine, CounterIncAndReadSequentially) {
  SwmrCounter counter(3);  // workers p0, p1; reader p2
  LLConfig c = ll_initial(counter);

  auto run0 = ll_run_ops(counter, c, 0, 3);
  ASSERT_TRUE(run0.has_value());
  EXPECT_EQ(run0->config.completed[0], 3);

  auto run1 = ll_run_ops(counter, run0->config, 1, 2);
  ASSERT_TRUE(run1.has_value());

  auto read = ll_run_ops(counter, run1->config, 2, 1);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->last_result, 5) << "read() must sum all completed incs";
}

TEST(LongLivedEngine, IncIsOneWrite) {
  SwmrCounter counter(2);
  LLConfig c = ll_initial(counter);
  sim::Trace trace;
  c = ll_step(counter, c, 0, &trace);  // the write
  c = ll_step(counter, c, 0, &trace);  // the completion
  EXPECT_EQ(c.completed[0], 1);
  ASSERT_EQ(trace.records.size(), 2u);
  EXPECT_TRUE(trace.records[0].op.is_write());
  EXPECT_EQ(trace.records[0].op.reg, 0);
  EXPECT_TRUE(trace.records[1].op.is_decide());
}

TEST(LongLivedEngine, RunOpsReportsCapExhaustion) {
  SwmrCounter counter(2);
  const LLConfig c = ll_initial(counter);
  EXPECT_FALSE(ll_run_ops(counter, c, 0, 1000, /*max_steps=*/5).has_value());
}

TEST(LongLivedEngine, CoveredRegisterTracksPoisedWrites) {
  SwmrCounter counter(2);
  LLConfig c = ll_initial(counter);
  EXPECT_EQ(ll_covered_register(counter, c, 0),
            std::optional<sim::RegId>(0));
  c = ll_step(counter, c, 0);  // write done; poised to complete
  EXPECT_FALSE(ll_covered_register(counter, c, 0).has_value());
}

/// Every process is forever poised to swap register 0: outside the
/// read/write model long-lived objects are defined for.
class SwapPoisedObject final : public LongLivedObject {
 public:
  std::string name() const override { return "swap-poised"; }
  int num_processes() const override { return 1; }
  int num_registers() const override { return 1; }
  sim::Value initial_register() const override { return 0; }
  sim::State initial_state(sim::ProcId) const override { return 0; }
  sim::PendingOp poised(sim::ProcId, sim::State) const override {
    return sim::PendingOp::swap(0, 1);
  }
  sim::State after_read(sim::ProcId, sim::State s,
                        sim::Value) const override {
    return s;
  }
  sim::State after_write(sim::ProcId, sim::State s) const override {
    return s;
  }
  sim::State after_complete(sim::ProcId, sim::State s) const override {
    return s;
  }
};

TEST(LongLivedEngine, SwapStepFailsLoudly) {
  // There is no after_swap to compute the successor state, so stepping a
  // swap must throw rather than silently leave the configuration as is.
  SwapPoisedObject obj;
  const LLConfig c = ll_initial(obj);
  EXPECT_THROW(ll_step(obj, c, 0), util::RequirementFailed);
  EXPECT_THROW(ll_run_ops(obj, c, 0, 1), util::RequirementFailed);
}

class SwmrCounterAdversary : public ::testing::TestWithParam<int> {};

TEST_P(SwmrCounterAdversary, CoversNMinusOneDistinctRegisters) {
  const int n = GetParam();
  SwmrCounter counter(n);
  PerturbationAdversary adversary(counter);
  const auto result = adversary.run();
  EXPECT_TRUE(result.covering_complete) << result.narrative;
  EXPECT_EQ(result.distinct_registers, n - 1);
  EXPECT_EQ(result.failed_stage, -1);
  EXPECT_EQ(result.invisible_squeezes, 0)
      << "a correct counter never loses squeezed increments";
  for (const auto& demo : result.demos) {
    EXPECT_TRUE(demo.visible);
    EXPECT_EQ(demo.observer_with - demo.observer_without, demo.squeezed_ops)
        << "every squeezed inc must be visible to the reader";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SwmrCounterAdversary,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(CyclicCounterAdversary, SpaceStarvedCounterGetsCaught) {
  // m = 2 registers for n = 5 processes: below the JTT bound of n-1 = 4.
  CyclicCounter counter(5, 2);
  PerturbationAdversary adversary(counter);
  const auto result = adversary.run();
  EXPECT_FALSE(result.covering_complete);
  EXPECT_EQ(result.distinct_registers, 2) << "covering stalls at m";
  EXPECT_EQ(result.failed_stage, 2);
  EXPECT_GT(result.invisible_squeezes, 0)
      << "the block write must obliterate some squeezed increments";
}

TEST(CyclicCounterAdversary, InvisibleSqueezeIsALostUpdate) {
  CyclicCounter counter(4, 1);  // every write lands in the one register
  PerturbationAdversary::Options opts;
  opts.squeeze_ops = 5;
  PerturbationAdversary adversary(counter, opts);
  const auto result = adversary.run();
  ASSERT_FALSE(result.demos.empty());
  bool lost = false;
  for (const auto& demo : result.demos) {
    if (!demo.visible) lost = true;
  }
  EXPECT_TRUE(lost);
}

TEST(CyclicCounter, WithEnoughRegistersCoversThem) {
  // m = n-1 exactly meets the bound; the adversary covers all of them.
  CyclicCounter counter(4, 3);
  PerturbationAdversary adversary(counter);
  const auto result = adversary.run();
  EXPECT_TRUE(result.covering_complete) << result.narrative;
  EXPECT_EQ(result.distinct_registers, 3);
}

TEST(Snapshot, SequentialUpdateScan) {
  SwmrSnapshot snap(3);  // updaters p0, p1; scanner p2
  LLConfig c = ll_initial(snap);
  auto u0 = ll_run_ops(snap, c, 0, 2);  // p0's component ends at 2
  ASSERT_TRUE(u0.has_value());
  auto u1 = ll_run_ops(snap, u0->config, 1, 5);  // p1's at 5
  ASSERT_TRUE(u1.has_value());
  auto scan = ll_run_ops(snap, u1->config, 2, 1);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->last_result, 7) << "digest = sum of component values";
}

TEST(Snapshot, DoubleCollectRetriesOnInterference) {
  SwmrSnapshot snap(2);  // updater p0, scanner p1
  LLConfig c = ll_initial(snap);
  // Scanner completes its first collect (1 read for n=2... n registers = 2:
  // reads R0, R1), then the updater writes, forcing a retry.
  c = ll_step(snap, c, 1);  // scanner reads R0 (first collect)
  c = ll_step(snap, c, 1);  // scanner reads R1 -> first collect done
  c = ll_step(snap, c, 0);  // updater writes R0
  // Scanner's second collect now differs; it must not complete this scan
  // with the stale view.
  auto scan = ll_run_ops(snap, c, 1, 1);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->last_result, 1) << "scan must reflect the completed update";
}

class SnapshotAdversary : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotAdversary, CoversNMinusOneDistinctRegisters) {
  const int n = GetParam();
  SwmrSnapshot snap(n);
  PerturbationAdversary::Options opts;
  opts.squeeze_ops = 2;
  PerturbationAdversary adversary(snap, opts);
  const auto result = adversary.run();
  EXPECT_TRUE(result.covering_complete) << result.narrative;
  EXPECT_EQ(result.distinct_registers, n - 1);
  EXPECT_EQ(result.invisible_squeezes, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SnapshotAdversary, ::testing::Values(2, 3, 5));

}  // namespace
}  // namespace tsb::perturb
