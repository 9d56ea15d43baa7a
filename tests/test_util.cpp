#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>

#include "util/huge_pages.hpp"
#include "util/interner.hpp"
#include "util/packing.hpp"
#include "util/proc_set.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace tsb::util {
namespace {

// --- huge-page allocation helper --------------------------------------------

/// True while [p, p + len) is entirely mapped: msync fails with ENOMEM on
/// any unmapped page.
bool mapped(const void* p, std::size_t len) {
  return ::msync(const_cast<void*>(p), len, MS_ASYNC) == 0;
}

TEST(HugePages, BigBlockSizesRoundUpToWholeBasePages) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  EXPECT_EQ(kHugePageBytes, 2 * kMiB);
  EXPECT_EQ(huge_alloc_size(0), 0u);
  EXPECT_EQ(huge_alloc_size(4097), 4097u);                 // below: as is
  EXPECT_EQ(huge_alloc_size(2 * kMiB - 1), 2 * kMiB - 1);
  EXPECT_EQ(huge_alloc_size(2 * kMiB), 2 * kMiB);
  EXPECT_EQ(huge_alloc_size(2 * kMiB + 1), 2 * kMiB + page);
  EXPECT_EQ(huge_alloc_size(5 * kMiB), 5 * kMiB);  // no slack to a huge page
  EXPECT_EQ(huge_alloc_size(6 * kMiB), 6 * kMiB);
}

TEST(HugePages, BigBlocksAreAlignedZeroedAndUnmappedOnRelease) {
  const std::size_t bytes = 3 * kHugePageBytes + 12345;
  const std::size_t len = huge_alloc_size(bytes);
  auto* p = static_cast<std::uint8_t*>(huge_alloc(bytes));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes, 0u);
  // The whole page-rounded length is mapped and zero-filled, including the
  // slack past the requested size.
  ASSERT_TRUE(mapped(p, len));
  for (std::size_t off = 0; off < len; off += 4096) EXPECT_EQ(p[off], 0);
  EXPECT_EQ(p[bytes - 1], 0);
  EXPECT_EQ(p[len - 1], 0);
  std::memset(p, 0xAB, bytes);  // writable end to end
  EXPECT_EQ(p[bytes - 1], 0xAB);
  huge_free(p, bytes);
  EXPECT_FALSE(mapped(p, len));
  EXPECT_EQ(errno, ENOMEM);
}

TEST(HugePages, SmallBlocksFallBackToZeroedHeapMemory) {
  const std::size_t bytes = kHugePageBytes - 1;
  auto* p = static_cast<std::uint8_t*>(huge_alloc(bytes));
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(std::all_of(p, p + bytes, [](std::uint8_t b) { return b == 0; }));
  std::memset(p, 0x5A, bytes);
  huge_free(p, bytes);  // free(), not munmap: ASan flags a mismatch
  auto* tiny = static_cast<std::uint8_t*>(huge_alloc(16));
  EXPECT_TRUE(std::all_of(tiny, tiny + 16, [](std::uint8_t b) { return b == 0; }));
  huge_free(tiny, 16);
  huge_free(nullptr, 16);  // no-op
}

TEST(HugePages, ArrayOwnsZeroedElementsAndMovesOwnership) {
  HugeArray<std::uint64_t> a(kHugePageBytes / sizeof(std::uint64_t) + 1);
  ASSERT_TRUE(a);
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](std::uint64_t v) { return v == 0; }));
  a[a.size() - 1] = 42;
  const std::uint64_t* data = a.data();
  HugeArray<std::uint64_t> b(std::move(a));
  EXPECT_FALSE(a);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b[b.size() - 1], 42u);
  a = std::move(b);
  EXPECT_EQ(a.data(), data);
  a.reset();
  EXPECT_FALSE(a);
  EXPECT_EQ(a.size(), 0u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be the identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng root(11);
  Rng a = root.split(1);
  Rng b = root.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Packing, PairRoundTrips) {
  for (std::int32_t hi : {-1, 0, 1, 123456, -987654, INT32_MAX, INT32_MIN}) {
    for (std::int32_t lo : {-1, 0, 7, -42, INT32_MAX, INT32_MIN}) {
      const std::int64_t packed = pack_pair(hi, lo);
      EXPECT_EQ(unpack_hi(packed), hi);
      EXPECT_EQ(unpack_lo(packed), lo);
    }
  }
}

TEST(Packing, QuadRoundTrips) {
  const std::int64_t q = pack_quad(1, 2, 3, 65535);
  EXPECT_EQ(quad_a(q), 1);
  EXPECT_EQ(quad_b(q), 2);
  EXPECT_EQ(quad_c(q), 3);
  EXPECT_EQ(quad_d(q), 65535);
}

TEST(ProcSet, BasicSetAlgebra) {
  const ProcSet p = ProcSet::first_n(5);
  EXPECT_EQ(p.size(), 5);
  EXPECT_TRUE(p.contains(0));
  EXPECT_TRUE(p.contains(4));
  EXPECT_FALSE(p.contains(5));

  const ProcSet q = p.without(2);
  EXPECT_EQ(q.size(), 4);
  EXPECT_FALSE(q.contains(2));
  EXPECT_TRUE(q.subset_of(p));
  EXPECT_FALSE(p.subset_of(q));
  EXPECT_EQ((p - q), ProcSet::single(2));
  EXPECT_EQ((q | ProcSet::single(2)), p);
  EXPECT_EQ((p & q), q);
}

TEST(ProcSet, MinAndVector) {
  ProcSet s = ProcSet::single(3).with(7).with(1);
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.to_vector(), (std::vector<int>{1, 3, 7}));
  EXPECT_EQ(s.to_string(), "{p1,p3,p7}");
}

TEST(ProcSet, ForEachVisitsAscending) {
  ProcSet s = ProcSet::first_n(6).without(2);
  std::vector<int> seen;
  s.for_each([&](int p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 3, 4, 5}));
}

TEST(Interner, RoundTripAndStability) {
  StateInterner interner;
  const auto a = interner.intern("alpha");
  const auto b = interner.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("alpha"), a);
  EXPECT_EQ(interner.lookup(a), "alpha");
  EXPECT_EQ(interner.lookup(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_TRUE(interner.contains("alpha"));
  EXPECT_FALSE(interner.contains("gamma"));
}

TEST(Interner, ByteWriterReaderRoundTrip) {
  ByteWriter w;
  w.put_i64(-123456789012345);
  w.put_i32(42);
  w.put_u8(255);
  ByteReader r(w.str());
  EXPECT_EQ(r.get_i64(), -123456789012345);
  EXPECT_EQ(r.get_i32(), 42);
  EXPECT_EQ(r.get_u8(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Table, RendersAlignedText) {
  Table t({"name", "value"});
  t.row("alpha", 1).row("b", 22);
  const std::string text = t.to_text("demo");
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"a", "b"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Stats, WelfordMatchesDirect) {
  Summary s;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 16.0);
  EXPECT_EQ(s.count(), xs.size());
}

TEST(Stats, FitRecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.5 * i);
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, Log2Factorial) {
  EXPECT_DOUBLE_EQ(log2_factorial(1), 0.0);
  EXPECT_NEAR(log2_factorial(4), std::log2(24.0), 1e-9);
  EXPECT_NEAR(log2_factorial(10), std::log2(3628800.0), 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

}  // namespace
}  // namespace tsb::util
