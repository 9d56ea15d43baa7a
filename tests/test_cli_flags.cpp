// The CLI's flag parsing is pure (tools/tsb_flags.hpp): it classifies argv
// without opening sinks or toggling globals, which is what lets these tests
// exercise every parse path — notably --threads=0, which historically fell
// through to "bad flag" — without side effects.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "tsb_flags.hpp"

namespace tsb::cli {
namespace {

TEST(ParseArgs, ThreadsZeroMeansAllHardwareThreads) {
  const auto r = parse_args({"adversary", "--threads=0", "4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.threads, 0);
  EXPECT_EQ(r.args, (std::vector<std::string>{"adversary", "4"}));

  const int resolved = resolve_threads(r.flags.threads);
  EXPECT_GE(resolved, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(resolved, static_cast<int>(hw));
  }
}

TEST(ParseArgs, PositiveThreadsResolveToThemselves) {
  const auto r = parse_args({"--threads=3"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.threads, 3);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
}

TEST(ParseArgs, RejectsNegativeAndMalformedThreads) {
  for (const char* bad :
       {"--threads=-1", "--threads=", "--threads=two", "--threads=2x"}) {
    const auto r = parse_args({bad});
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_NE(r.error.find("--threads"), std::string::npos) << r.error;
  }
}

TEST(ParseArgs, FileFlagsLandInTheirFields) {
  const auto r = parse_args({"--trace=t.jsonl", "--stats=s.jsonl",
                             "--audit=a.jsonl", "--baseline=b.json",
                             "--metrics", "--progress"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.trace_file, "t.jsonl");
  EXPECT_EQ(r.flags.stats_file, "s.jsonl");
  EXPECT_EQ(r.flags.audit_file, "a.jsonl");
  EXPECT_EQ(r.flags.baseline_file, "b.json");
  EXPECT_TRUE(r.flags.metrics);
  EXPECT_TRUE(r.flags.progress);
  EXPECT_TRUE(r.args.empty());
}

TEST(ParseArgs, EmptyFileArgumentsAreErrors) {
  for (const char* bad : {"--trace=", "--stats=", "--audit=", "--baseline="}) {
    EXPECT_FALSE(parse_args({bad}).ok) << bad;
  }
}

TEST(ParseArgs, FlagsMayAppearAnywhereAmongPositionals) {
  const auto r =
      parse_args({"report", "run.jsonl", "--top=7", "audit.jsonl"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.top, 7);
  EXPECT_EQ(r.args,
            (std::vector<std::string>{"report", "run.jsonl", "audit.jsonl"}));
}

TEST(ParseArgs, ValencyCapAndTopValidation) {
  const auto ok = parse_args({"--valency-cap=5000", "--top=1"});
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.flags.valency_cap, 5000u);
  EXPECT_EQ(ok.flags.top, 1);
  EXPECT_FALSE(parse_args({"--valency-cap=0"}).ok);
  EXPECT_FALSE(parse_args({"--top=0"}).ok);
  EXPECT_FALSE(parse_args({"--top=-2"}).ok);
}

TEST(ParseArgs, UnknownFlagIsAnError) {
  const auto r = parse_args({"adversary", "--frobnicate"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--frobnicate"), std::string::npos) << r.error;
}

TEST(ParseArgs, DefaultsMatchTheDocumentedOnes) {
  const auto r = parse_args({});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flags.threads, 1);
  EXPECT_EQ(r.flags.top, 5);
  EXPECT_EQ(r.flags.valency_cap, 0u);
  EXPECT_FALSE(r.flags.metrics);
  EXPECT_FALSE(r.flags.progress);
  EXPECT_EQ(r.flags.runs, 100);
  EXPECT_EQ(r.flags.seed, 1u);
  EXPECT_EQ(r.flags.mix, "all");
  EXPECT_EQ(r.flags.targets, "all");
  EXPECT_EQ(r.flags.chaos_n, 4);
  EXPECT_EQ(r.flags.run_timeout_ms, 5'000u);
  EXPECT_EQ(r.flags.mem_budget, 0u);
  EXPECT_EQ(r.flags.time_budget_ms, 0u);
}

TEST(ParseArgs, ChaosFlagsAcceptBothForms) {
  // The chaos/budget flags take --flag=V and --flag V; both must parse to
  // the same result.
  const auto eq = parse_args({"chaos", "--runs=250", "--seed=9",
                              "--mix=crash,stall", "--targets=ballot,bakery",
                              "--n=6", "--run-timeout-ms=750",
                              "--out=c.jsonl"});
  const auto sp = parse_args({"chaos", "--runs", "250", "--seed", "9",
                              "--mix", "crash,stall", "--targets",
                              "ballot,bakery", "--n", "6", "--run-timeout-ms",
                              "750", "--out", "c.jsonl"});
  for (const auto* r : {&eq, &sp}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->flags.runs, 250);
    EXPECT_EQ(r->flags.seed, 9u);
    EXPECT_EQ(r->flags.mix, "crash,stall");
    EXPECT_EQ(r->flags.targets, "ballot,bakery");
    EXPECT_EQ(r->flags.chaos_n, 6);
    EXPECT_EQ(r->flags.run_timeout_ms, 750u);
    EXPECT_EQ(r->flags.chaos_file, "c.jsonl");
    EXPECT_EQ(r->args, (std::vector<std::string>{"chaos"}));
  }
}

TEST(ParseArgs, ChaosFlagValidation) {
  EXPECT_FALSE(parse_args({"--runs=0"}).ok);
  EXPECT_FALSE(parse_args({"--runs"}).ok);  // missing value
  EXPECT_FALSE(parse_args({"--n=1"}).ok);
  EXPECT_FALSE(parse_args({"--n=65"}).ok);
  EXPECT_FALSE(parse_args({"--out="}).ok);
  EXPECT_FALSE(parse_args({"--mix="}).ok);
  EXPECT_FALSE(parse_args({"--seed=abc"}).ok);
}

TEST(ParseBytes, SuffixesAndRejects) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_bytes("123", &v));
  EXPECT_EQ(v, 123u);
  EXPECT_TRUE(parse_bytes("64k", &v));
  EXPECT_EQ(v, 64u << 10);
  EXPECT_TRUE(parse_bytes("256M", &v));
  EXPECT_EQ(v, 256u << 20);
  EXPECT_TRUE(parse_bytes("2g", &v));
  EXPECT_EQ(v, 2ull << 30);
  EXPECT_FALSE(parse_bytes("", &v));
  EXPECT_FALSE(parse_bytes("k", &v));
  EXPECT_FALSE(parse_bytes("12q", &v));
  EXPECT_FALSE(parse_bytes("12kb", &v));
}

TEST(ParseArgs, BudgetFlags) {
  const auto r = parse_args({"adversary", "--mem-budget=512m",
                             "--time-budget-ms", "30000", "6"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.mem_budget, 512ull << 20);
  EXPECT_EQ(r.flags.time_budget_ms, 30'000u);
  EXPECT_EQ(r.args, (std::vector<std::string>{"adversary", "6"}));
  EXPECT_FALSE(parse_args({"--mem-budget=0"}).ok);
  EXPECT_FALSE(parse_args({"--mem-budget=lots"}).ok);
  EXPECT_FALSE(parse_args({"--time-budget-ms=0"}).ok);
}

TEST(ParseArgs, IntrospectionFlags) {
  const auto r = parse_args({"adversary", "--progress-interval-ms=250",
                             "--status-file", "st.json", "--flight=fl.jsonl",
                             "--profile", "--profile-hz=97", "5"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.progress_interval_ms, 250u);
  EXPECT_EQ(r.flags.status_file, "st.json");
  EXPECT_EQ(r.flags.flight_file, "fl.jsonl");
  EXPECT_TRUE(r.flags.profile);
  EXPECT_EQ(r.flags.profile_hz, 97);
  EXPECT_EQ(r.args, (std::vector<std::string>{"adversary", "5"}));
}

TEST(ParseArgs, IntrospectionDefaults) {
  const auto r = parse_args({"adversary"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flags.progress_interval_ms, 1'000u);
  EXPECT_TRUE(r.flags.status_file.empty());
  EXPECT_TRUE(r.flags.flight_file.empty());
  EXPECT_FALSE(r.flags.profile);
  EXPECT_EQ(r.flags.profile_hz, 200);
  EXPECT_FALSE(r.flags.once);
}

TEST(ParseArgs, IntrospectionValidation) {
  EXPECT_FALSE(parse_args({"--progress-interval-ms=0"}).ok);
  EXPECT_FALSE(parse_args({"--progress-interval-ms=fast"}).ok);
  EXPECT_FALSE(parse_args({"--status-file="}).ok);
  EXPECT_FALSE(parse_args({"--flight="}).ok);
  EXPECT_FALSE(parse_args({"--profile-hz=0"}).ok);
  EXPECT_FALSE(parse_args({"--profile-hz=20000"}).ok);
  EXPECT_FALSE(parse_args({"--status-file"}).ok);  // missing value
}

TEST(ParseArgs, SpillFlagsAcceptBothFormsAndByteSuffixes) {
  const auto eq = parse_args({"adversary", "--spill-threshold=2g",
                              "--spill-dir=/var/tmp", "--spill-seg-configs=512",
                              "7"});
  const auto sp = parse_args({"adversary", "--spill-threshold", "2g",
                              "--spill-dir", "/var/tmp", "--spill-seg-configs",
                              "512", "7"});
  for (const auto* r : {&eq, &sp}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->flags.spill_threshold, 2ull << 30);
    EXPECT_EQ(r->flags.spill_dir, "/var/tmp");
    EXPECT_EQ(r->flags.spill_seg_configs, 512u);
    EXPECT_EQ(r->args, (std::vector<std::string>{"adversary", "7"}));
  }
}

TEST(ParseArgs, SpillDefaultsAndValidation) {
  const auto r = parse_args({"adversary"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flags.spill_threshold, 0u);  // 0 = spilling off
  EXPECT_EQ(r.flags.spill_dir, ".");
  EXPECT_EQ(r.flags.spill_seg_configs, 0u);
  EXPECT_FALSE(parse_args({"--spill-threshold=0"}).ok);
  EXPECT_FALSE(parse_args({"--spill-threshold=big"}).ok);
  EXPECT_FALSE(parse_args({"--spill-threshold"}).ok);  // missing value
  EXPECT_FALSE(parse_args({"--spill-dir="}).ok);
  EXPECT_FALSE(parse_args({"--spill-seg-configs=0"}).ok);
}

TEST(ParseArgs, WorkStealingKnobs) {
  const auto r = parse_args({"adversary", "--chunk-configs=64",
                             "--parallel-threshold", "1024", "--no-reuse"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.chunk_configs, 64u);
  EXPECT_EQ(r.flags.parallel_threshold, 1024u);
  // Defaults: 0 = keep the explorer's built-in tuning.
  const auto d = parse_args({});
  EXPECT_EQ(d.flags.chunk_configs, 0u);
  EXPECT_EQ(d.flags.parallel_threshold, 0u);
  EXPECT_FALSE(parse_args({"--chunk-configs=0"}).ok);
  EXPECT_FALSE(parse_args({"--chunk-configs=many"}).ok);
  // --parallel-threshold=0 parses (explicit "keep the default").
  EXPECT_TRUE(parse_args({"--parallel-threshold=0"}).ok);
  EXPECT_FALSE(parse_args({"--parallel-threshold=soon"}).ok);
}

TEST(ParseArgs, TopSubcommandOnce) {
  const auto r = parse_args({"top", "st.json", "--once"});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.flags.once);
  EXPECT_EQ(r.args, (std::vector<std::string>{"top", "st.json"}));
}

TEST(ParseArgs, TelemetryFlagsAcceptBothForms) {
  const auto eq = parse_args({"adversary", "--telemetry=run.tsl", "6"});
  const auto sp = parse_args({"adversary", "--telemetry", "run.tsl", "6"});
  for (const auto* r : {&eq, &sp}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->flags.telemetry_file, "run.tsl");
    EXPECT_EQ(r->args, (std::vector<std::string>{"adversary", "6"}));
  }
  const auto d = parse_args({"adversary"});
  EXPECT_TRUE(d.flags.telemetry_file.empty());
  EXPECT_FALSE(parse_args({"--telemetry="}).ok);
  EXPECT_FALSE(parse_args({"--telemetry"}).ok);  // missing value
}

TEST(ParseArgs, CompareAndTolerance) {
  const auto r = parse_args(
      {"report", "--compare", "a.tsl", "b.tsl", "--tolerance=10.5"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.flags.compare);
  EXPECT_DOUBLE_EQ(r.flags.tolerance, 10.5);
  EXPECT_EQ(r.args, (std::vector<std::string>{"report", "a.tsl", "b.tsl"}));
  const auto d = parse_args({"report", "x.jsonl"});
  ASSERT_TRUE(d.ok);
  EXPECT_FALSE(d.flags.compare);
  EXPECT_DOUBLE_EQ(d.flags.tolerance, 25.0);
  EXPECT_FALSE(parse_args({"--tolerance=-3"}).ok);
  EXPECT_FALSE(parse_args({"--tolerance=loose"}).ok);
  EXPECT_FALSE(parse_args({"--tolerance="}).ok);
  EXPECT_FALSE(parse_args({"--tolerance"}).ok);  // missing value
}

}  // namespace
}  // namespace tsb::cli
