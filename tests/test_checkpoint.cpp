// Crash-safe campaigns: the checkpoint state-file format, the durable
// commit protocol, the hostile-I/O fault matrix, and resume soundness.
// The contract under test is three-sided:
//
//   * every write failure degrades to util::BudgetExhausted (the CLI's
//     exit-4 path), never a crash or a half-committed checkpoint;
//   * every read/validation failure — corruption, truncation, version or
//     fingerprint drift, a torn manifest — is refused with
//     util::CheckpointInvalid, never resumed from;
//   * a resumed run replays the deterministic adversary over the warm
//     state and produces the IDENTICAL verdict and certificate that the
//     uninterrupted run produces, at any thread count, even after a
//     SIGKILL that lands mid-write.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "consensus/racing.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "sim/reach_graph.hpp"
#include "util/checkpoint.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"

namespace tsb {
namespace {

namespace fs = std::filesystem;
using util::BudgetExhausted;
using util::CheckpointInvalid;
using util::CheckpointStop;
using util::ckpt::CheckpointService;
using util::ckpt::Manifest;
using util::ckpt::SectionReader;
using util::ckpt::SectionWriter;

/// Fresh per-test scratch directory under gtest's temp root.
std::string tdir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "tsb_ckpt_" + name;
  std::error_code ec;
  fs::remove_all(d, ec);
  fs::create_directories(d);
  return d;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void flip_byte(const std::string& path, std::size_t off) {
  auto bytes = slurp(path);
  ASSERT_LT(off, bytes.size());
  bytes[off] ^= 0x01;
  spit(path, bytes);
}

/// One "data" section holding bytes 0..63. File layout (all offsets fixed
/// by the format): magic+version = 12, section header = 4 + 4 + 12 = 20,
/// payload at 32..95, END sentinel = 16 bytes at 96..111.
constexpr std::size_t kSamplePayloadOff = 32;
constexpr std::size_t kSamplePayloadLen = 64;
constexpr std::size_t kSampleSentinelLen = 16;

void write_sample(const std::string& path) {
  SectionWriter w(path);
  w.begin("data");
  std::uint8_t buf[kSamplePayloadLen];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  w.put_bytes(buf, sizeof(buf));
  w.end();
  w.finish();
}

// --- CRC-32 ----------------------------------------------------------------

TEST(Crc32, KnownAnswerAndSeedChaining) {
  // The IEEE 802.3 check value every CRC-32 implementation must reproduce.
  const char* check = "123456789";
  EXPECT_EQ(util::ckpt::crc32(check, 9), 0xCBF43926u);
  // Seed continuation: folding in two halves equals one pass — the writer
  // streams payloads through exactly this property.
  const std::uint32_t half = util::ckpt::crc32(check, 4);
  EXPECT_EQ(util::ckpt::crc32(check + 4, 5, half),
            util::ckpt::crc32(check, 9));
  EXPECT_EQ(util::ckpt::crc32("", 0), 0u);
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
/// sliced implementation must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBitwiseAtEveryLengthAndAlignment) {
  // Lengths 0..257 cover the empty input, every tail length after the
  // 8-byte main loop, and several whole words; start offsets 0..7 cover
  // every alignment of those words.
  std::vector<std::uint8_t> buf(8 + 257);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t want = crc32_bitwise(p, len);
      ASSERT_EQ(util::ckpt::crc32(p, len), want)
          << "offset " << off << " length " << len;
      // Seed chaining is what the writer's per-put folding relies on:
      // every split point must give the one-pass value.
      for (std::size_t cut = 0; cut <= len; ++cut) {
        ASSERT_EQ(util::ckpt::crc32(p + cut, len - cut,
                                    util::ckpt::crc32(p, cut)),
                  want)
            << "offset " << off << " length " << len << " split " << cut;
      }
    }
  }
}

// --- Section file format ---------------------------------------------------

TEST(SectionFile, RoundtripAllPutGetKinds) {
  const std::string path = tdir("roundtrip") + "/state.bin";
  {
    SectionWriter w(path);
    w.begin("numbers");
    w.put_u8(0xAB);
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_i64(-42);
    w.end();
    w.begin("text");
    w.put_str("covering certificate");
    w.put_str("");  // empty strings roundtrip too
    w.end();
    w.finish();
    EXPECT_GT(w.bytes_written(), 0u);
  }
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file must not survive";
  SectionReader r(path);
  r.expect("numbers");
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  r.done();
  r.expect("text");
  EXPECT_EQ(r.get_str(), "covering certificate");
  EXPECT_EQ(r.get_str(), "");
  r.done();
  r.expect_end();
}

TEST(SectionFile, MissingFileIsRefused) {
  EXPECT_THROW(SectionReader r(tdir("missing") + "/nope.bin"),
               CheckpointInvalid);
}

TEST(SectionFile, CorruptPayloadByteIsRefused) {
  const std::string path = tdir("corrupt") + "/state.bin";
  write_sample(path);
  flip_byte(path, kSamplePayloadOff + kSamplePayloadLen / 2);
  SectionReader r(path);
  EXPECT_THROW(r.expect("data"), CheckpointInvalid);
}

TEST(SectionFile, TruncatedPayloadIsRefused) {
  const std::string path = tdir("trunc") + "/state.bin";
  write_sample(path);
  fs::resize_file(path, kSamplePayloadOff + kSamplePayloadLen / 2);
  SectionReader r(path);
  EXPECT_THROW(r.expect("data"), CheckpointInvalid);
}

TEST(SectionFile, MissingEndSentinelIsRefused) {
  // Truncation exactly at a section boundary: the payload itself reads
  // back clean, so only the END sentinel distinguishes "complete file"
  // from "crashed mid-append". The reader must refuse.
  const std::string path = tdir("sentinel") + "/state.bin";
  write_sample(path);
  fs::resize_file(path, fs::file_size(path) - kSampleSentinelLen);
  SectionReader r(path);
  EXPECT_NO_THROW(r.expect("data"));
  EXPECT_THROW(r.expect_end(), CheckpointInvalid);
}

TEST(SectionFile, WrongMagicIsRefused) {
  const std::string path = tdir("magic") + "/state.bin";
  write_sample(path);
  flip_byte(path, 0);
  EXPECT_THROW(SectionReader r(path), CheckpointInvalid);
}

TEST(SectionFile, WrongFormatVersionIsRefused) {
  const std::string path = tdir("version") + "/state.bin";
  write_sample(path);
  flip_byte(path, 8);  // LSB of the little-endian u32 format version
  EXPECT_THROW(SectionReader r(path), CheckpointInvalid);
}

TEST(SectionFile, WrongSectionNameIsRefused) {
  const std::string path = tdir("name") + "/state.bin";
  write_sample(path);
  SectionReader r(path);
  EXPECT_THROW(r.expect("graph"), CheckpointInvalid);
}

TEST(SectionFile, OverreadAndUnderconsumeAreRefused) {
  const std::string path = tdir("cursor") + "/state.bin";
  write_sample(path);
  {
    // Reading past the payload end must throw, not return garbage.
    SectionReader r(path);
    r.expect("data");
    r.get_bytes(kSamplePayloadLen - 4);
    EXPECT_THROW(r.get_u64(), CheckpointInvalid);
  }
  {
    // Leaving bytes unconsumed is a format drift; done() fails loudly.
    SectionReader r(path);
    r.expect("data");
    r.get_u32();
    EXPECT_THROW(r.done(), CheckpointInvalid);
  }
}

// --- Manifest --------------------------------------------------------------

TEST(Manifest, RoundtripPreservesKeys) {
  const std::string path = tdir("manifest") + "/manifest.tsb";
  Manifest m;
  m.set_u64("format", util::ckpt::kFormatVersion);
  m.set_u64("generation", 7);
  m.set("fingerprint", "proto=ballot n=4 cap=8");
  m.set("why", "interval");
  m.save(path);
  const Manifest back = Manifest::load(path);
  EXPECT_EQ(back.kv, m.kv);
  EXPECT_EQ(back.get_u64("generation"), 7u);
  EXPECT_TRUE(back.has("why"));
  EXPECT_FALSE(back.has("absent"));
  EXPECT_THROW(back.get("absent"), std::exception);
}

TEST(Manifest, CorruptTruncatedAndMissingAreRefused) {
  const std::string dir = tdir("manifest_bad");
  const std::string path = dir + "/manifest.tsb";
  Manifest m;
  m.set_u64("generation", 1);
  m.set("fingerprint", "fp");
  m.save(path);

  EXPECT_THROW(Manifest::load(dir + "/never-written.tsb"), CheckpointInvalid);

  const auto pristine = slurp(path);
  flip_byte(path, pristine.size() / 2);
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);

  spit(path, pristine);
  EXPECT_NO_THROW(Manifest::load(path));  // restored copy is valid again
  fs::resize_file(path, pristine.size() - 4);  // tear off part of the CRC
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);
}

// --- Hostile-I/O fault matrix ----------------------------------------------

class IoFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::iofault::disarm(); }
};

TEST(SectionWriterErrors, RenameFailureLeavesNoTmpDebris) {
  // rename() onto an existing directory fails with EISDIR — a stand-in
  // for any commit-time rename failure. The error contract says "no .tmp
  // debris": finish() must unlink the fully written tmp file itself,
  // because by then it has already closed the fd and the destructor's
  // cleanup no longer fires.
  const std::string dir = tdir("rename_fail");
  const std::string path = dir + "/state.bin";
  fs::create_directories(path);  // occupy the final name with a directory
  EXPECT_THROW(write_sample(path), BudgetExhausted);
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp must be cleaned up";
}

TEST_F(IoFaultTest, EnospcFailsWriterWithBudgetExhausted) {
  const std::string path = tdir("enospc") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW(write_sample(path), BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_FALSE(fs::exists(path)) << "failed write must not commit";
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp must be cleaned up";
}

TEST_F(IoFaultTest, ShortWriteDeviceFailsWriterWithBudgetExhausted) {
  // The dying-disk model: one legal short write, then nothing. A correct
  // retry loop makes progress once and must then report the device dead
  // instead of spinning.
  const std::string path = tdir("short") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kShortWrite, 1);
  EXPECT_THROW(write_sample(path), BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
}

TEST_F(IoFaultTest, FaultOnABufferedFlushFailsCleanly) {
  // The writer buffers, so its write-shaped syscalls are the flushes. For
  // write_sample: #1 is the flush before end()'s backpatch, #2 the
  // backpatch pwrite, #3 the flush before finish()'s fsync. For a payload
  // larger than the buffer, #1 is the flush of the full buffer. A fault on
  // any of them must throw BudgetExhausted and leave neither the state
  // file nor its .tmp.
  const auto write_big = [](const std::string& path) {
    SectionWriter w(path);
    w.begin("big");
    const std::vector<std::uint8_t> chunk(4096, 0xA5);
    for (std::size_t put = 0; put < 3 * SectionWriter::kBufferBytes;
         put += chunk.size()) {
      w.put_bytes(chunk.data(), chunk.size());
    }
    w.end();
    w.finish();
  };
  struct Case {
    const char* what;
    int countdown;
    bool big;
  };
  const Case cases[] = {{"flush in end()", 1, false},
                        {"flush in finish()", 3, false},
                        {"flush of a full buffer", 1, true}};
  for (const util::iofault::Kind kind :
       {util::iofault::Kind::kEnospc, util::iofault::Kind::kShortWrite}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(util::iofault::kind_name(kind)) + " on the " +
                   c.what);
      const std::string path = tdir("flush_fault") + "/state.bin";
      util::iofault::arm(kind, c.countdown);
      if (c.big) {
        EXPECT_THROW(write_big(path), BudgetExhausted);
      } else {
        EXPECT_THROW(write_sample(path), BudgetExhausted);
      }
      EXPECT_GE(util::iofault::fired(), 1u);
      util::iofault::disarm();
      EXPECT_FALSE(fs::exists(path)) << "failed write must not commit";
      EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp must be cleaned up";
    }
  }
  // The countdowns above land where the comment says: with the fault
  // disarmed, exactly three write-shaped calls make the whole sample file.
  const std::string path = tdir("flush_count") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kEintr, 4);
  write_sample(path);
  EXPECT_EQ(util::iofault::fired(), 0u) << "sample made more than 3 writes";
  util::iofault::disarm();
  util::iofault::arm(util::iofault::Kind::kEintr, 3);
  write_sample(path);
  EXPECT_EQ(util::iofault::fired(), 1u) << "sample made fewer than 3 writes";
}

TEST_F(IoFaultTest, EintrIsRetriedToSuccess) {
  // EINTR is transient by contract: it injects once and the retry loop
  // must absorb it with no externally visible effect at all.
  const std::string path = tdir("eintr") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kEintr, 2);
  EXPECT_NO_THROW(write_sample(path));
  EXPECT_EQ(util::iofault::fired(), 1u);
  util::iofault::disarm();
  SectionReader r(path);
  r.expect("data");
  EXPECT_EQ(r.get_bytes(1)[0], 0u);
}

TEST_F(IoFaultTest, BitflipIsCaughtByCrc) {
  const std::string path = tdir("bitflip") + "/state.bin";
  write_sample(path);
  // First read loads magic+version; a mid-buffer flip there is refused at
  // construction. A flip landing in the payload is refused by its CRC.
  // Either way: CheckpointInvalid, never silently corrupt state.
  util::iofault::arm(util::iofault::Kind::kBitflip, 1);
  EXPECT_THROW(
      {
        SectionReader r(path);
        r.expect("data");
      },
      CheckpointInvalid);
}

TEST_F(IoFaultTest, TornRenameStateFileIsRefusedOnLoad) {
  // A crash between "tmp written" and "rename durable", modelled as the
  // renamed file carrying only half its bytes: the writer reports success
  // (the crash is AFTER its syscalls), so only read-side validation can
  // refuse the torn file.
  const std::string path = tdir("torn_state") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kTornRename, 1);
  EXPECT_NO_THROW(write_sample(path));
  EXPECT_EQ(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_THROW(
      {
        SectionReader r(path);
        r.expect("data");
        r.expect_end();
      },
      CheckpointInvalid);
}

TEST_F(IoFaultTest, TornRenameManifestIsRefusedOnLoad) {
  const std::string path = tdir("torn_manifest") + "/manifest.tsb";
  Manifest m;
  m.set_u64("generation", 3);
  m.set("fingerprint", "fp");
  util::iofault::arm(util::iofault::Kind::kTornRename, 1);
  EXPECT_NO_THROW(m.save(path));
  util::iofault::disarm();
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);
}

TEST_F(IoFaultTest, SpillWriteFailureIsBudgetExhausted) {
  // The arena spill writer shares the wrapped-syscall layer and the same
  // degradation contract: a dead disk mid-spill is a clean budget failure
  // upstream (exit 4 at the CLI), never an abort or silent RAM overrun.
  sim::ConfigArena arena(4, 4);
  ASSERT_TRUE(arena.set_spill(tdir("spill"), 0, 64));
  const std::size_t w = arena.words_per_config();
  std::vector<sim::Value> words(w);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      words[j] = static_cast<sim::Value>((i * 31 + j * 7) & 0x3F);
    }
    arena.append_words(words.data());
  }
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW(arena.maybe_spill(sim::kNoConfig), BudgetExhausted);
}

// --- CheckpointService orchestration ---------------------------------------

class CheckpointServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { CheckpointService::global().reset(); }
  void TearDown() override {
    CheckpointService::global().reset();
    util::iofault::disarm();
  }

  static void set_trivial_writer() {
    CheckpointService::global().set_writer([](SectionWriter& w) {
      w.begin("trivial");
      w.put_u64(0x5EED);
      w.end();
    });
  }
};

TEST_F(CheckpointServiceTest, WorkCadenceCountsParallelAddWork) {
  auto& svc = CheckpointService::global();
  svc.configure(tdir("cadence"), 0, /*every_work=*/100, "fp");
  set_trivial_writer();
  EXPECT_TRUE(svc.enabled());
  EXPECT_FALSE(svc.due());
  // add_work is the parallel workers' non-quiescent feed: accumulation
  // alone must make the cadence due, with the write deferred to a
  // rendezvoused quiescent point.
  svc.add_work(50);
  EXPECT_FALSE(svc.due());
  svc.add_work(60);
  EXPECT_TRUE(svc.due());
  svc.write_now("interval");
  EXPECT_FALSE(svc.due()) << "write_now must reset the work accumulator";
  EXPECT_EQ(svc.checkpoints_written(), 1u);
  EXPECT_GT(svc.bytes_written(), 0u);
  EXPECT_GE(svc.seconds_since_last_write(), 0);
}

TEST_F(CheckpointServiceTest, GenerationsCommitAndCleanUp) {
  const std::string dir = tdir("gens");
  auto& svc = CheckpointService::global();
  svc.configure(dir, 0, 0, "fp");
  set_trivial_writer();
  svc.write_now("interval");
  svc.write_now("interval");
  // Generation 2 is committed; generation 1's state file is garbage after
  // the commit point and must be gone.
  EXPECT_TRUE(fs::exists(util::ckpt::state_path(dir, 2)));
  EXPECT_FALSE(fs::exists(util::ckpt::state_path(dir, 1)));
  const Manifest m = Manifest::load(util::ckpt::manifest_path(dir));
  EXPECT_EQ(m.get_u64("generation"), 2u);
  EXPECT_EQ(m.get("fingerprint"), "fp");
  EXPECT_EQ(m.get_u64("format"), util::ckpt::kFormatVersion);

  // Reconfiguring over an existing valid checkpoint (the resume path)
  // continues the numbering: the next write must never clobber the state
  // file the manifest still commits to.
  svc.reset();
  svc.configure(dir, 0, 0, "fp");
  set_trivial_writer();
  svc.write_now("interval");
  EXPECT_TRUE(fs::exists(util::ckpt::state_path(dir, 3)));
  EXPECT_FALSE(fs::exists(util::ckpt::state_path(dir, 2)));
  EXPECT_EQ(Manifest::load(util::ckpt::manifest_path(dir)).get_u64(
                "generation"),
            3u);
}

TEST_F(CheckpointServiceTest, StopAfterPollsWritesFinalCheckpointAndThrows) {
  const std::string dir = tdir("stop");
  auto& svc = CheckpointService::global();
  svc.configure(dir, 0, 0, "fp");
  set_trivial_writer();
  svc.stop_after_polls(3);
  EXPECT_NO_THROW(svc.poll(1));
  EXPECT_NO_THROW(svc.poll(1));
  EXPECT_THROW(svc.poll(1), CheckpointStop);
  EXPECT_TRUE(svc.stop_requested());
  EXPECT_EQ(svc.checkpoints_written(), 1u);
  EXPECT_TRUE(fs::exists(util::ckpt::manifest_path(dir)));
}

TEST_F(CheckpointServiceTest, StopWithoutDirectoryStillStopsGracefully) {
  // SIGTERM with no --checkpoint-dir: the run still stops at a quiescent
  // point (instead of dying mid-expansion); there is just nothing to
  // persist.
  auto& svc = CheckpointService::global();
  svc.stop_after_polls(1);
  EXPECT_THROW(svc.poll(1), CheckpointStop);
  EXPECT_EQ(svc.checkpoints_written(), 0u);
}

TEST_F(CheckpointServiceTest, SerializerMayPollWithoutDeadlockOrRecursion) {
  // A serializer whose save_state walks engine code that itself contains
  // quiescent-point hooks (poll/add_work/due) must hit the in_write_
  // reentrancy guard, not deadlock on the service mutex or recurse into a
  // nested write. The write runs with the mutex released, so all three
  // calls return immediately.
  auto& svc = CheckpointService::global();
  svc.configure(tdir("reenter"), 0, /*every_work=*/1, "fp");
  svc.set_writer([&svc](SectionWriter& w) {
    w.begin("reenter");
    EXPECT_NO_THROW(svc.poll(1000));  // due by work count, but in_write_
    EXPECT_FALSE(svc.due());
    svc.add_work(1000);
    w.put_u64(1);
    w.end();
  });
  svc.poll(1);  // work cadence of 1: immediately due, triggers the write
  EXPECT_EQ(svc.checkpoints_written(), 1u)
      << "exactly one write: the serializer's own poll must not nest";
}

// --- Oracle state roundtrip ------------------------------------------------

TEST(OracleState, SaveRestoreRoundtripPreservesVerdictsWarm) {
  consensus::BallotConsensus proto(3, 6);
  const sim::Config init = sim::initial_config(proto, {0, 1, 1});
  const sim::ProcSet everyone = sim::ProcSet::first_n(3);

  bound::ValencyOracle a(proto);
  const bool biv = a.bivalent(init, everyone);
  const bool can0 = a.can_decide(init, everyone, 0);
  ASSERT_GT(a.queries(), 0u);

  const std::string path = tdir("oracle") + "/state.bin";
  {
    SectionWriter w(path);
    a.save_state(w);
    w.finish();
  }

  bound::ValencyOracle b(proto);
  {
    SectionReader r(path);
    b.restore_state(r);
    r.expect_end();
  }
  EXPECT_EQ(b.graph_nodes(), a.graph_nodes());
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
  // The restored memo answers the same queries without a single fresh
  // reachability pass: that warm-ness is what makes resume's replay of the
  // deterministic adversary cheap AND exact.
  EXPECT_EQ(b.bivalent(init, everyone), biv);
  EXPECT_EQ(b.can_decide(init, everyone, 0), can0);
  EXPECT_EQ(b.explorations(), 0u)
      << "restored state missed the memo and re-explored";
}

TEST(OracleState, RestoreIntoWrongShapeIsRefused) {
  consensus::BallotConsensus p3(3, 6);
  consensus::BallotConsensus p4(4, 8);
  bound::ValencyOracle a(p3);
  const sim::Config init = sim::initial_config(p3, {0, 1, 1});
  (void)a.bivalent(init, sim::ProcSet::first_n(3));

  const std::string path = tdir("oracle_shape") + "/state.bin";
  {
    SectionWriter w(path);
    a.save_state(w);
    w.finish();
  }
  bound::ValencyOracle wrong(p4);
  SectionReader r(path);
  EXPECT_THROW(wrong.restore_state(r), CheckpointInvalid);
}

TEST(OracleState, FingerprintCoversVerdictAffectingOptions) {
  consensus::BallotConsensus p3(3, 6);
  consensus::BallotConsensus p4(4, 8);
  bound::ValencyOracle base(p3);
  bound::ValencyOracle other_shape(p4);
  bound::ValencyOracle no_reuse(p3, {.reuse = false});
  // Threads are deliberately NOT part of the fingerprint: results are
  // thread-independent, so a campaign may resume with a different count.
  bound::ValencyOracle more_threads(p3, {.threads = 4});
  EXPECT_NE(base.state_fingerprint(), other_shape.state_fingerprint());
  EXPECT_NE(base.state_fingerprint(), no_reuse.state_fingerprint());
  EXPECT_EQ(base.state_fingerprint(), more_threads.state_fingerprint());
}

// --- Adversary-level resume ------------------------------------------------

bound::SpaceBoundAdversary::Result run_adversary(
    int n, int cap, int threads, const std::string& checkpoint_dir,
    bool resume, std::uint64_t checkpoint_every, bool reuse = true) {
  consensus::BallotConsensus proto(n, cap);
  bound::SpaceBoundAdversary::Options opts;
  opts.threads = threads;
  opts.reuse = reuse;
  opts.checkpoint_dir = checkpoint_dir;
  opts.checkpoint_every = checkpoint_every;
  opts.resume = resume;
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

/// Run n=3 with a tight work cadence to completion, leaving a committed
/// checkpoint behind for the refusal tests to mutilate.
std::string make_completed_checkpoint(const std::string& tag) {
  const std::string dir = tdir(tag);
  CheckpointService::global().reset();
  const auto result = run_adversary(3, 6, 1, dir, false, /*every=*/100);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(fs::exists(util::ckpt::manifest_path(dir)))
      << "cadence never fired on the n=3 run";
  CheckpointService::global().reset();
  return dir;
}

class AdversaryResumeTest : public ::testing::Test {
 protected:
  void SetUp() override { CheckpointService::global().reset(); }
  void TearDown() override { CheckpointService::global().reset(); }
};

TEST_F(AdversaryResumeTest, ResumeWithoutDirectoryIsRefused) {
  EXPECT_THROW(run_adversary(3, 6, 1, "", /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, ResumeFromEmptyDirectoryIsRefused) {
  EXPECT_THROW(run_adversary(3, 6, 1, tdir("empty"), /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, FingerprintMismatchIsRefused) {
  const std::string dir = make_completed_checkpoint("fp_mismatch");
  // Wrong process count: resuming would silently change the campaign.
  EXPECT_THROW(run_adversary(4, 8, 1, dir, /*resume=*/true, 0),
               CheckpointInvalid);
  CheckpointService::global().reset();
  // Wrong engine flag (reuse off): same refusal, the state layout and the
  // verdict provenance both differ.
  EXPECT_THROW(
      run_adversary(3, 6, 1, dir, /*resume=*/true, 0, /*reuse=*/false),
      CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, FutureFormatVersionIsRefused) {
  const std::string dir = make_completed_checkpoint("format_drift");
  const std::string mpath = util::ckpt::manifest_path(dir);
  Manifest m = Manifest::load(mpath);
  m.set_u64("format", util::ckpt::kFormatVersion + 1);
  m.save(mpath);
  EXPECT_THROW(run_adversary(3, 6, 1, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, VersionOneStateFileIsRefused) {
  // Version 1 "graph" sections carried the retired fact map. A state file
  // (and manifest) from that format must be refused up front — exit 6 at
  // the CLI — never handed to the version-2 section parser.
  ASSERT_EQ(util::ckpt::kFormatVersion, 2u);
  const std::string dir = make_completed_checkpoint("format_v1");
  const std::string mpath = util::ckpt::manifest_path(dir);
  const std::string spath = dir + "/" + Manifest::load(mpath).get("state");
  // Header: 8 magic bytes, then the little-endian u32 format version.
  auto bytes = slurp(spath);
  ASSERT_GT(bytes.size(), 12u);
  ASSERT_EQ(bytes[8], 2);
  bytes[8] = 1;
  spit(spath, bytes);
  try {
    SectionReader r(spath);
    ADD_FAILURE() << "version-1 state file opened";
  } catch (const CheckpointInvalid& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
  // Manifest still says version 2: the state-file header alone refuses.
  EXPECT_THROW(run_adversary(3, 6, 1, dir, /*resume=*/true, 0),
               CheckpointInvalid);
  // A whole version-1 checkpoint (manifest too) is refused as well.
  CheckpointService::global().reset();
  Manifest m = Manifest::load(mpath);
  m.set_u64("format", 1);
  m.save(mpath);
  EXPECT_THROW(run_adversary(3, 6, 1, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, CorruptStateFileIsRefused) {
  const std::string dir = make_completed_checkpoint("state_rot");
  const Manifest m = Manifest::load(util::ckpt::manifest_path(dir));
  const std::string spath = dir + "/" + m.get("state");
  ASSERT_TRUE(fs::exists(spath));
  flip_byte(spath, fs::file_size(spath) / 2);
  EXPECT_THROW(run_adversary(3, 6, 1, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

/// Byte offset of the u64 length field of the first section named `name`
/// in a state file image (walks the section headers from the 12-byte file
/// header: u32 name length, name, u64 payload length, u32 CRC, payload).
std::size_t section_len_offset(const std::vector<std::uint8_t>& bytes,
                               const std::string& name) {
  std::size_t off = 12;
  while (off + 4 <= bytes.size()) {
    std::uint32_t name_len = 0;
    std::memcpy(&name_len, bytes.data() + off, 4);
    const std::string got(reinterpret_cast<const char*>(bytes.data()) + off + 4,
                          name_len);
    const std::size_t len_off = off + 4 + name_len;
    if (got == name) return len_off;
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + len_off, 8);
    off = len_off + 12 + static_cast<std::size_t>(len);
  }
  ADD_FAILURE() << "no section named " << name;
  return 0;
}

TEST_F(AdversaryResumeTest, HostileSectionLengthIsRefusedNotAllocated) {
  // Bit 40 of the oracle section's length asks for ~1 TiB. The reader must
  // refuse it against the file's size (exit 6), not hand it to resize()
  // (std::bad_alloc, an abort at the CLI).
  const std::string dir = make_completed_checkpoint("hostile_len");
  const Manifest m = Manifest::load(util::ckpt::manifest_path(dir));
  const std::string spath = dir + "/" + m.get("state");
  auto bytes = slurp(spath);
  const std::size_t len_off = section_len_offset(bytes, "oracle");
  ASSERT_GT(len_off, 0u);
  bytes[len_off + 5] ^= 0x01;  // bit 40 of the little-endian u64
  spit(spath, bytes);
  {
    SectionReader r(spath);
    try {
      r.expect("oracle");
      ADD_FAILURE() << "a 1 TiB section length was accepted";
    } catch (const CheckpointInvalid& e) {
      EXPECT_NE(std::string(e.what()).find("runs past the end of the file"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(run_adversary(3, 6, 1, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST(OracleState, HostileMemoWitnessLengthIsRefused) {
  // A CRC-valid memo section whose witness claims 2^32 - 1 steps: the
  // section itself is well formed, so only the schema-level bound stands
  // between it and a 16 GiB reserve().
  const std::string path = tdir("hostile_memo") + "/state.bin";
  {
    SectionWriter w(path);
    w.begin("oracle");
    w.put_u8(1);  // reuse
    w.put_u8(0);  // no graph section
    w.end();
    w.begin("roots");
    w.put_u64(0);
    w.end();
    w.begin("memo");
    w.put_u64(1);           // one memo entry
    w.put_u32(0);           // key.root
    w.put_u64(0b111);       // key.pbits
    w.put_u8(1);            // can[0]
    w.put_u32(0);           // witness_id[0]
    w.put_u32(0xFFFFFFFFu); // witness length, with no steps behind it
    w.end();
    w.finish();
  }
  consensus::BallotConsensus proto(3, 6);
  bound::ValencyOracle oracle(proto);
  SectionReader r(path);
  try {
    oracle.restore_state(r);
    ADD_FAILURE() << "a 2^32 - 1 step witness was accepted";
  } catch (const CheckpointInvalid& e) {
    // Refused by the length bound itself, not by the overread that
    // follows a reserve() the machine happened to grant.
    EXPECT_NE(std::string(e.what()).find("witness length"), std::string::npos)
        << e.what();
  }
}

/// A CRC-valid one-node "graph" section for `proto`: zero node words, no
/// decide flags, the given successor row and (symmetric engines only)
/// renaming row.
std::string write_one_node_graph(const std::string& name,
                                 const sim::Protocol& proto,
                                 const std::vector<std::uint32_t>& succ,
                                 const std::vector<std::uint64_t>& perm) {
  const std::string path = tdir(name) + "/state.bin";
  const int n = proto.num_processes();
  const std::size_t words =
      static_cast<std::size_t>(n + proto.num_registers());
  SectionWriter w(path);
  w.begin("graph");
  w.put_u32(static_cast<std::uint32_t>(n));
  w.put_u32(static_cast<std::uint32_t>(words));
  w.put_u8(perm.empty() ? 0 : 1);
  w.put_u64(1);
  const std::vector<sim::Value> node(words, 0);
  w.put_bytes(node.data(), words * sizeof(sim::Value));
  w.put_u8(0);
  w.put_bytes(succ.data(), succ.size() * sizeof(std::uint32_t));
  w.put_bytes(perm.data(), perm.size() * sizeof(std::uint64_t));
  w.put_u64(0);
  w.put_u64(0);
  w.end();
  w.finish();
  return path;
}

void expect_graph_refused(const sim::Protocol& proto, const std::string& path,
                          const std::string& why) {
  sim::ReachGraph graph(proto, {});
  SectionReader r(path);
  try {
    graph.restore(r);
    ADD_FAILURE() << "a graph section with " << why << " was accepted";
  } catch (const CheckpointInvalid& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(GraphState, HostileSuccessorIdIsRefused) {
  // Successor ids index the edge stores and the walk's visited marks: one
  // past the node count (and not a sentinel) must stop at restore, not
  // reach a multi-GiB resize or an index past the segment directory.
  consensus::BallotConsensus proto(3, 6);
  const std::string path = write_one_node_graph(
      "hostile_succ", proto, {0xFFFFFFF0u, 0xFFFFFFFEu, sim::kNoConfig}, {});
  expect_graph_refused(proto, path, "successor id");
}

TEST(GraphState, HostileEdgeRenamingIsRefused) {
  // A renaming byte >= n would make ProcPerm::inverse() shift by 8 * 255.
  consensus::RacingConsensus proto(
      3, consensus::RacingConsensus::AdoptRule::kAtLeast);
  const std::uint64_t identity = sim::ProcPerm::identity().packed();
  const std::string path = write_one_node_graph(
      "hostile_perm", proto, {0xFFFFFFFEu, 0xFFFFFFFEu, 0xFFFFFFFEu},
      {(identity & ~0xFFull) | 0xFF, identity, identity});
  expect_graph_refused(proto, path, "renaming");
}

TEST_F(AdversaryResumeTest, TornManifestIsRefused) {
  const std::string dir = make_completed_checkpoint("manifest_tear");
  const std::string mpath = util::ckpt::manifest_path(dir);
  fs::resize_file(mpath, fs::file_size(mpath) - 4);
  EXPECT_THROW(run_adversary(3, 6, 1, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

// --- Differential resume soundness -----------------------------------------

TEST_F(AdversaryResumeTest, InterruptedRunResumesToIdenticalCertificate) {
  // The tentpole's acceptance bar: interrupt at a deterministic quiescent
  // point (the test hook stands in for SIGTERM), resume, and require the
  // verdict and certificate to be IDENTICAL to an uninterrupted run — for
  // n = 3..5, at 1 and 4 threads. The shared engine runs on one thread
  // whatever `threads` says, so both legs stop at the same poll and must
  // report identical edge counters.
  const std::pair<int, int> cases[] = {{3, 6}, {4, 8}, {5, 15}};
  for (const auto& [n, cap] : cases) {
    CheckpointService::global().reset();
    const auto baseline = run_adversary(n, cap, 1, "", false, 0);
    ASSERT_TRUE(baseline.ok) << "n=" << n << ": " << baseline.error;
    std::uint64_t reused_t1 = 0;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      const std::string dir = tdir("diff_n" + std::to_string(n) + "_t" +
                                   std::to_string(threads));
      auto& svc = CheckpointService::global();
      svc.reset();
      svc.stop_after_polls(8);
      const auto stopped = run_adversary(n, cap, threads, dir, false, 0);
      ASSERT_TRUE(stopped.stopped)
          << "hook did not interrupt (ok=" << stopped.ok
          << " error=" << stopped.error << ")";
      ASSERT_FALSE(stopped.ok);
      ASSERT_TRUE(fs::exists(util::ckpt::manifest_path(dir)))
          << "stop did not commit a final checkpoint";

      svc.reset();
      const auto resumed = run_adversary(n, cap, threads, dir, true, 0);
      ASSERT_TRUE(resumed.ok) << resumed.error;
      EXPECT_TRUE(resumed.check.ok) << resumed.check.error;
      expect_same_certificate(baseline, resumed);
      // Warm-replay exactness, not just verdict equality: restored
      // counter plus replay expansions equals the uninterrupted total.
      EXPECT_EQ(resumed.reach_expanded, baseline.reach_expanded);
      // The replayed in-flight query re-walks its restored edges, so
      // reused may exceed the baseline, but never by thread count.
      if (threads == 1) {
        reused_t1 = resumed.reach_reused;
      } else {
        EXPECT_EQ(resumed.reach_reused, reused_t1);
      }
    }
  }
}

TEST_F(AdversaryResumeTest, ResumeIsSoundOnTheNoReuseBackendToo) {
  // reuse = false exercises the Explorer/ParallelExplorer quiescent points
  // and the memo-only (graphless) state file. n = 5 is the smallest
  // instance whose per-pass BFS exceeds the explorers' 4096-expansion poll
  // granularity — smaller no-reuse runs legitimately finish between polls.
  CheckpointService::global().reset();
  const auto baseline = run_adversary(5, 15, 1, "", false, 0, /*reuse=*/false);
  ASSERT_TRUE(baseline.ok) << baseline.error;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = tdir("noreuse_t" + std::to_string(threads));
    auto& svc = CheckpointService::global();
    svc.reset();
    svc.stop_after_polls(2);
    const auto stopped =
        run_adversary(5, 15, threads, dir, false, 0, /*reuse=*/false);
    ASSERT_TRUE(stopped.stopped) << stopped.error;
    svc.reset();
    const auto resumed =
        run_adversary(5, 15, threads, dir, true, 0, /*reuse=*/false);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    expect_same_certificate(baseline, resumed);
  }
}

// --- Crash recovery (SIGKILL, no unwinding at all) -------------------------

TEST_F(AdversaryResumeTest, SigkillMidRunResumesToIdenticalCertificate) {
  // n = 5 runs long enough (seconds) that SIGKILL reliably lands while the
  // child is still exploring — a genuine mid-campaign crash, not a kill of
  // an already-finished process.
  const std::string dir = tdir("sigkill");
  const auto baseline = run_adversary(5, 15, 1, "", false, 0);
  ASSERT_TRUE(baseline.ok) << baseline.error;

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1) << std::strerror(errno);
  if (pid == 0) {
    // Child: checkpoint on a tight cadence until SIGKILL lands. No gtest
    // machinery here — a killed child must not run parent teardown.
    CheckpointService::global().reset();
    (void)run_adversary(5, 15, 1, dir, false, /*every=*/20000);
    ::_exit(0);
  }
  // Parent: wait for the first committed manifest, then kill without any
  // warning — the hardest crash there is. Whatever instant the kill lands
  // (mid-serialize, mid-rename, between generations), the directory must
  // hold a complete committed checkpoint.
  const std::string manifest = util::ckpt::manifest_path(dir);
  for (int i = 0; i < 20000 && ::access(manifest.c_str(), F_OK) != 0; ++i) {
    ::usleep(1000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_EQ(::access(manifest.c_str(), F_OK), 0)
      << "child never committed a checkpoint";

  CheckpointService::global().reset();
  const auto resumed = run_adversary(5, 15, 1, dir, true, 0);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_TRUE(resumed.check.ok) << resumed.check.error;
  expect_same_certificate(baseline, resumed);
  EXPECT_EQ(resumed.reach_expanded, baseline.reach_expanded);
}

}  // namespace
}  // namespace tsb
