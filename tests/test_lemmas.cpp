#include <gtest/gtest.h>

#include "bound/lemmas.hpp"
#include "consensus/ballot.hpp"

namespace tsb::bound {
namespace {

using consensus::BallotConsensus;

struct Fixture {
  explicit Fixture(int n, int cap)
      : proto(n, cap), oracle(proto), lemmas(proto, oracle) {
    std::vector<sim::Value> inputs(static_cast<std::size_t>(n), 0);
    inputs[1] = 1;
    init = sim::initial_config(proto, inputs);
  }
  BallotConsensus proto;
  ValencyOracle oracle;
  LemmaToolkit lemmas;
  Config init;
};

TEST(Proposition2, ProducesBivalentInitialConfiguration) {
  Fixture f(3, 9);
  auto result = f.lemmas.proposition2();
  EXPECT_EQ(result.inputs[0], 0);
  EXPECT_EQ(result.inputs[1], 1);
  EXPECT_TRUE(f.oracle.bivalent(result.config, ProcSet::first_n(3)));
}

class Lemma1Test : public ::testing::TestWithParam<int> {};

TEST_P(Lemma1Test, PostconditionVerified) {
  const int n = GetParam();
  Fixture f(n, 3 * n);
  const ProcSet p = ProcSet::first_n(n);
  ASSERT_TRUE(f.oracle.bivalent(f.init, p));

  auto [phi, z] = f.lemmas.lemma1(f.init, p);
  EXPECT_TRUE(p.contains(z));
  EXPECT_TRUE(phi.only(p));
  const Config after = sim::run(f.proto, f.init, phi);
  EXPECT_TRUE(f.oracle.bivalent(after, p.without(z)))
      << "Lemma 1 postcondition: P - {z} must be bivalent from C-phi";
}

INSTANTIATE_TEST_SUITE_P(SmallSystems, Lemma1Test, ::testing::Values(3, 4));

TEST(SoloEscape, FindsUncoveredWriteFromInitial) {
  Fixture f(2, 6);
  auto esc = f.lemmas.solo_escape(f.init, 0, /*covered=*/{});
  ASSERT_TRUE(esc.found);
  // The ballot protocol's first pending operation is the prepare write to
  // the process's own register.
  EXPECT_EQ(esc.escape_reg, 0);
  EXPECT_EQ(esc.zeta_prime.size(), 0u);
}

TEST(SoloEscape, SkipsOverCoveredRegisters) {
  Fixture f(2, 6);
  // Cover p0's own register: its prepare/accept writes all target R0, so
  // p0 decides without ever escaping {R0} — found must be false.
  auto esc = f.lemmas.solo_escape(f.init, 0, {0});
  EXPECT_FALSE(esc.found);
}

TEST(SoloEscape, PrefixContainsOnlyCoveredWrites) {
  Fixture f(3, 9);
  auto esc = f.lemmas.solo_escape(f.init, 2, /*covered=*/{});
  ASSERT_TRUE(esc.found);
  sim::Trace trace;
  (void)sim::run(f.proto, f.init, esc.zeta_prime, &trace);
  EXPECT_TRUE(trace.registers_written().empty());
}

class Lemma3Test : public ::testing::TestWithParam<int> {};

TEST_P(Lemma3Test, PostconditionVerified) {
  const int n = GetParam();
  Fixture f(n, 3 * n);
  const ProcSet p = ProcSet::first_n(n);

  // Build a covering set: run p_{n-1} solo until poised at an uncovered
  // write (it starts poised at its own register).
  const sim::ProcId covering_proc = n - 1;
  ASSERT_TRUE(
      covered_register(f.proto, f.init, covering_proc).has_value());
  const ProcSet r = ProcSet::single(covering_proc);
  const ProcSet q = p - r;
  ASSERT_TRUE(f.oracle.bivalent(f.init, q));

  auto [phi, picked] = f.lemmas.lemma3(f.init, p, r);
  EXPECT_TRUE(q.contains(picked));
  EXPECT_TRUE(phi.only(q));

  const Schedule beta = block_write(r);
  const Config after = sim::run(f.proto, f.init, phi + beta);
  EXPECT_TRUE(f.oracle.bivalent(after, r.with(picked)))
      << "Lemma 3 postcondition: R u {q} bivalent from C-phi-beta";
}

// |Q| = |P| - |R| must be at least 2: singletons are never bivalent
// (their executions are a single deterministic solo run), so the
// lemma's precondition is unsatisfiable at n = 2 with non-empty R.
INSTANTIATE_TEST_SUITE_P(SmallSystems, Lemma3Test, ::testing::Values(3, 4));

class Lemma4Test : public ::testing::TestWithParam<int> {};

TEST_P(Lemma4Test, PostconditionVerified) {
  const int n = GetParam();
  Fixture f(n, 3 * n);
  const ProcSet p = ProcSet::first_n(n);

  auto result = f.lemmas.lemma4(f.init, p);
  EXPECT_TRUE(result.alpha.only(p));
  EXPECT_EQ(result.q.size(), 2);
  EXPECT_TRUE(result.q.subset_of(p));

  const Config c_alpha = sim::run(f.proto, f.init, result.alpha);
  EXPECT_TRUE(f.oracle.bivalent(c_alpha, result.q));
  EXPECT_TRUE(well_spread(f.proto, c_alpha, p - result.q));
  EXPECT_EQ(
      static_cast<int>(covered_registers(f.proto, c_alpha, p - result.q)
                           .size()),
      n - 2);
}

INSTANTIATE_TEST_SUITE_P(SmallSystems, Lemma4Test, ::testing::Values(2, 3, 4));

TEST(Covering, BasicPredicates) {
  Fixture f(3, 9);
  // Initially every ballot process is poised to write its own register.
  const ProcSet all = ProcSet::first_n(3);
  EXPECT_TRUE(is_covering_set(f.proto, f.init, all));
  EXPECT_TRUE(well_spread(f.proto, f.init, all));
  EXPECT_EQ(covered_registers(f.proto, f.init, all).size(), 3u);
  EXPECT_EQ(covered_register(f.proto, f.init, 1), std::optional<sim::RegId>(1));

  // The empty set is a valid covering set with an empty block write.
  EXPECT_TRUE(is_covering_set(f.proto, f.init, ProcSet::empty()));
  EXPECT_TRUE(well_spread(f.proto, f.init, ProcSet::empty()));
  EXPECT_TRUE(block_write(ProcSet::empty()).empty());

  // After its first write a process is collecting (reading), not covering.
  const Config after = sim::step(f.proto, f.init, 0);
  EXPECT_FALSE(covered_register(f.proto, after, 0).has_value());
  EXPECT_FALSE(is_covering_set(f.proto, after, all));
}

TEST(Covering, BlockWriteWritesExactlyCoveredRegisters) {
  Fixture f(3, 9);
  const ProcSet r = ProcSet::first_n(3);
  sim::Trace trace;
  (void)sim::run(f.proto, f.init, block_write(r), &trace);
  EXPECT_EQ(trace.registers_written(), covered_registers(f.proto, f.init, r));
}

TEST(LemmaStats, NarrativeAndCountersPopulate) {
  Fixture f(3, 9);
  f.lemmas.enable_narrative(true);
  (void)f.lemmas.proposition2();
  (void)f.lemmas.lemma4(f.init, ProcSet::first_n(3));
  EXPECT_GE(f.lemmas.stats().lemma4_calls, 1u);
  EXPECT_FALSE(f.lemmas.narrative().empty());
}

}  // namespace
}  // namespace tsb::bound
