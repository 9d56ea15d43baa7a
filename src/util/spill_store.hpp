#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/huge_pages.hpp"
#include "util/require.hpp"

namespace tsb::util::spill {

/// Records per delta group in a spilled block: the first is stored raw (a
/// random-access checkpoint), the rest as deltas against their predecessor.
/// 64 keeps worst-case decode at 63 delta applications while amortizing the
/// raw checkpoint to under an eighth of the group.
inline constexpr std::size_t kGroupRecords = 64;

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  int shift = 0;
  while (*p & 0x80) {
    v |= static_cast<std::uint64_t>(*p++ & 0x7f) << shift;
    shift += 7;
  }
  v |= static_cast<std::uint64_t>(*p++) << shift;
  return v;
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::size_t page_size();

inline std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// Delta/varint/zigzag block codec behind every SpillStore (Value words for
/// ConfigArena, u8 / u32 / u64 words for the edge stores). A block holds
/// `nrecs` fixed-stride records in groups of kGroupRecords: per group the
/// first record is raw, the rest are (changed-word count, then per change a
/// varint word index and a zigzag-varint value delta) against their
/// predecessor. A per-group u32 offset table up front gives random access
/// at group granularity. Deltas are computed mod 2^64, so the encoding is
/// bit-exact for any unsigned or two's-complement word width. `nrecs` must
/// be a multiple of kGroupRecords and `stride` must fit the one-byte
/// changed-word count.
template <class W>
void encode_block(const W* recs, std::size_t nrecs, std::size_t stride,
                  std::vector<std::uint8_t>& block) {
  const std::size_t ngroups = nrecs / kGroupRecords;
  std::vector<std::uint8_t> payload;
  payload.reserve(nrecs * 2);
  std::vector<std::uint32_t> offsets(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    offsets[g] = static_cast<std::uint32_t>(payload.size());
    const W* prev = nullptr;
    for (std::size_t c = 0; c < kGroupRecords; ++c) {
      const W* cur = recs + (g * kGroupRecords + c) * stride;
      if (prev == nullptr) {
        const std::size_t at = payload.size();
        payload.resize(at + stride * sizeof(W));
        std::memcpy(payload.data() + at, cur, stride * sizeof(W));
      } else {
        std::uint8_t nchanged = 0;
        for (std::size_t i = 0; i < stride; ++i) nchanged += cur[i] != prev[i];
        payload.push_back(nchanged);
        for (std::size_t i = 0; i < stride; ++i) {
          if (cur[i] == prev[i]) continue;
          put_varint(payload, i);
          put_varint(payload,
                     zigzag(static_cast<std::int64_t>(
                         static_cast<std::uint64_t>(cur[i]) -
                         static_cast<std::uint64_t>(prev[i]))));
        }
      }
      prev = cur;
    }
  }
  block.clear();
  block.reserve(4 + 4 * ngroups + payload.size());
  put_u32(block, static_cast<std::uint32_t>(ngroups));
  for (std::uint32_t off : offsets) put_u32(block, off);
  block.insert(block.end(), payload.begin(), payload.end());
}

/// Decode one record (index `local` within the block) into `out`
/// (`stride` words).
template <class W>
void decode_record(const std::uint8_t* block, std::size_t local,
                   std::size_t stride, W* out) {
  const std::size_t ngroups = get_u32(block);
  const std::size_t g = local / kGroupRecords;
  TSB_REQUIRE(g < ngroups, "spill codec: record index out of block range");
  const std::uint8_t* p = block + 4 + 4 * ngroups + get_u32(block + 4 + 4 * g);
  std::memcpy(out, p, stride * sizeof(W));
  p += stride * sizeof(W);
  const std::size_t upto = local % kGroupRecords;
  for (std::size_t c = 1; c <= upto; ++c) {
    const std::uint8_t nchanged = *p++;
    for (std::uint8_t j = 0; j < nchanged; ++j) {
      const std::size_t slot = get_varint(p);
      const std::uint64_t delta =
          static_cast<std::uint64_t>(unzigzag(get_varint(p)));
      out[slot] =
          static_cast<W>(static_cast<std::uint64_t>(out[slot]) + delta);
    }
  }
}

/// Decode every record of the block into `out` (`nrecs * stride` words):
/// the fault-in path when a spilled segment must become writable again.
template <class W>
void decode_all(const std::uint8_t* block, std::size_t nrecs,
                std::size_t stride, W* out) {
  const std::size_t ngroups = get_u32(block);
  TSB_REQUIRE(ngroups == nrecs / kGroupRecords,
              "spill codec: block group count mismatch");
  for (std::size_t g = 0; g < ngroups; ++g) {
    const std::uint8_t* p =
        block + 4 + 4 * ngroups + get_u32(block + 4 + 4 * g);
    W* rec = out + g * kGroupRecords * stride;
    std::memcpy(rec, p, stride * sizeof(W));
    p += stride * sizeof(W);
    for (std::size_t c = 1; c < kGroupRecords; ++c) {
      W* cur = rec + c * stride;
      std::memcpy(cur, cur - stride, stride * sizeof(W));
      const std::uint8_t nchanged = *p++;
      for (std::uint8_t j = 0; j < nchanged; ++j) {
        const std::size_t slot = get_varint(p);
        const std::uint64_t delta =
            static_cast<std::uint64_t>(unzigzag(get_varint(p)));
        cur[slot] =
            static_cast<W>(static_cast<std::uint64_t>(cur[slot]) + delta);
      }
    }
  }
}

/// The unlinked backing file behind a spilling SpillStore. The file is
/// unlinked the moment it exists: the fd keeps the space alive, the name
/// never leaks past a crash, and the memory ledger (not the filesystem) is
/// the interface for "how much is spilled". Blocks append at page-aligned
/// offsets so they can be mapped read-only directly; release() unmaps and
/// (best effort) punches a hole so a re-spilled segment's superseded block
/// returns its disk space. Writes go through the iofault wrapper, so the
/// CI fault matrix can inject ENOSPC/short-write/EINTR on any spill write.
class BackingFile {
 public:
  struct Block {
    std::uint8_t* map = nullptr;  ///< mmap'd compressed block (read-only)
    std::size_t map_len = 0;      ///< mapped length (page-aligned)
    std::size_t bytes = 0;        ///< compressed payload bytes
    std::uint64_t file_off = 0;   ///< block start within the backing file
  };

  BackingFile() = default;
  ~BackingFile() { close(); }
  BackingFile(const BackingFile&) = delete;
  BackingFile& operator=(const BackingFile&) = delete;

  /// Create the unlinked O_EXCL backing file under `dir`. Returns false
  /// (and leaves the object invalid) if the directory is unusable.
  bool open(const std::string& dir);
  bool valid() const { return fd_ >= 0; }

  /// Append `len` bytes at the next page-aligned offset and map them
  /// read-only. Returns false with errno set on write/mmap failure; the
  /// caller owns the consequence (SpillStore treats it as a budget
  /// failure, not a shrug).
  bool append(const std::uint8_t* data, std::size_t len, Block& out);

  /// Unmap a block and, best effort, punch a hole over its file range so a
  /// superseded block's disk space returns to the filesystem.
  void release(Block& b);

  /// Back to an empty file (all blocks must be released first).
  void truncate();
  void close();

  std::uint64_t end_offset() const { return end_; }

 private:
  int fd_ = -1;
  std::uint64_t end_ = 0;
};

/// The one segmented array of the engines: fixed-stride records of
/// `stride` words of W, in power-of-two segments of ~4 MB allocated flat on
/// huge_alloc storage (util/huge_pages.hpp). ConfigArena keeps its packed
/// configuration words in one (stride = words per configuration), the reach
/// graph its per-node edge data (successor ids, renamings, decide flags),
/// and the parallel explorer its (parent id, via) records.
///
/// Concurrency contract, the same for every instance:
///  * ensure(), read() and write_ptr() on a resident record may run
///    concurrently: the store grows while other threads read published
///    records and write distinct ones. ensure() is one acquire load while
///    capacity suffices; growth takes a mutex, publishes fully initialized
///    segments, and doubles the directory when it fills. Old directories
///    are retired, not freed, until destruction, so a reader holding a
///    stale snapshot never touches freed memory (doubling bounds the
///    retired total at one extra copy of the final directory). A reader
///    can only reach a record it was handed after the record's segment was
///    published, because the id handoff happens-after the publication.
///  * maybe_spill(), clear(), for_each_run() and write_ptr() on a spilled
///    record (fault-in) run at quiescent points only: no other thread
///    touches the store.
///
/// A directory entry holds the resident data pointer itself (null once the
/// segment is spilled), so a resident read is two dependent loads.
///
/// Out of core (set_spill): maybe_spill() delta/varint-compresses cold FULL
/// segments, lowest record ids first, appends each block to the unlinked
/// BackingFile, maps it read-only and frees the resident array. read() of a
/// spilled record decodes it into a thread-local buffer, valid until this
/// thread's next read() of a spilled record in any SpillStore<W>; it never
/// faults anything in. write_ptr() of a spilled record faults the whole
/// segment back to resident (decoding it and hole-punching its stale block)
/// for the next quiescent spill to re-encode: reach-graph edge records
/// change after they are first written.
template <class W>
class SpillStore {
 public:
  SpillStore() = default;
  ~SpillStore() {
    for (auto& s : segs_) file_.release(s->blk);
  }
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// `name` labels failure messages; `fill` is the value records of a new
  /// segment read as (kUnexpanded for successor ids).
  void init(std::string name, std::size_t stride, W fill) {
    TSB_REQUIRE(segs_.empty() && stride >= 1,
                "SpillStore::init needs an empty store and a stride >= 1");
    name_ = std::move(name);
    stride_ = stride;
    fill_ = fill;
    // ~4 MB segments: big enough to amortize the spill syscalls, small
    // enough to be a meaningful spill quantum for CI-sized budgets.
    std::size_t recs = kGroupRecords;
    while (recs * stride_ * sizeof(W) < (4u << 20) && recs < (1u << 22)) {
      recs <<= 1;
    }
    set_geometry(recs);
  }

  /// Enable spilling to an unlinked backing file under `dir`.
  /// `seg_recs_hint` (0 = keep the ~4 MB default) shrinks segments so tiny
  /// test runs still cross segment boundaries. Must be called before the
  /// first ensure(). Returns false if the directory is unusable.
  bool set_spill(const std::string& dir, std::size_t seg_recs_hint) {
    TSB_REQUIRE(segs_.empty(), "SpillStore::set_spill on a non-empty store");
    TSB_REQUIRE(stride_ <= 255,
                "spill delta encoding stores word counts in one byte");
    if (seg_recs_hint != 0) {
      std::size_t recs = kGroupRecords;
      while (recs < seg_recs_hint) recs <<= 1;
      set_geometry(recs);
    }
    return file_.open(dir);
  }

  bool spill_enabled() const { return file_.valid(); }
  std::size_t segment_records() const { return seg_recs_; }

  /// Make records [0, nrecs) exist; records of a new segment read as
  /// `fill`. Lock-free while capacity suffices.
  void ensure(std::size_t nrecs) {
    if (cap_.load(std::memory_order_acquire) < nrecs) grow(nrecs);
  }

  /// Read access to one record: a direct pointer when resident, else the
  /// thread-local decode buffer.
  const W* read(std::size_t idx) const {
    const Slot& s = dir_.load(std::memory_order_acquire)[idx >> shift_];
    const W* d = s.data.load(std::memory_order_acquire);
    if (d != nullptr) [[likely]] return d + (idx & mask_) * stride_;
    return decode_tls(*s.seg, idx & mask_);
  }

  /// Visit records [0, count) in id order, one call f(recs, nrecs) per
  /// segment with `nrecs` whole records of `stride` words each. A resident
  /// segment is handed over in place; a spilled one is decoded once, whole,
  /// into a scratch buffer (valid until the next call) and stays spilled.
  /// The checkpoint dump path: one sequential pass, no per-record decode.
  /// Quiescent points only.
  template <class F>
  void for_each_run(std::size_t count, F&& f) const {
    TSB_REQUIRE(count <= cap_.load(std::memory_order_acquire),
                "SpillStore::for_each_run past the published records");
    const Slot* dir = dir_.load(std::memory_order_acquire);
    std::vector<W> scratch;
    for (std::size_t i = 0, at = 0; at < count; ++i, at += seg_recs_) {
      const W* recs = dir[i].data.load(std::memory_order_acquire);
      if (recs == nullptr) {
        scratch.resize(seg_recs_ * stride_);
        decode_all<W>(dir[i].seg->blk.map, seg_recs_, stride_, scratch.data());
        recs = scratch.data();
      }
      f(recs, std::min(seg_recs_, count - at));
    }
  }

  /// Writable pointer to a record; faults its segment in if it was spilled
  /// (the record is about to change, so the on-disk copy is stale).
  W* write_ptr(std::size_t idx) {
    W* d = dir_.load(std::memory_order_acquire)[idx >> shift_].data.load(
        std::memory_order_acquire);
    if (d == nullptr) d = fault_in(idx >> shift_);
    return d + (idx & mask_) * stride_;
  }

  /// True when resident bytes exceed `resident_target` and a full segment
  /// below record `cur_size` may still be resident. O(1); any thread.
  bool spill_needed(std::size_t resident_target, std::size_t cur_size) const {
    return file_.valid() && resident_bytes() > resident_target &&
           first_resident_.load(std::memory_order_relaxed) <
               cur_size >> shift_;
  }

  /// Spill resident full segments lying wholly below record `spill_below`,
  /// lowest first, until resident bytes drop to `resident_target`. Callers
  /// pass their record count (the partial tail is still being written) or
  /// a lower pin floor (the hot frontier stays pointer-direct). Quiescent
  /// points only. Returns bytes released. A write/mmap failure throws
  /// util::BudgetExhausted after recording a flight event: the operator's
  /// memory plan can no longer be kept, and quietly staying resident would
  /// trade a clean exit 4 for an OOM-kill later.
  std::size_t maybe_spill(std::size_t resident_target, std::size_t spill_below);

  /// Drop every record but keep the segments for reuse: spilled segments
  /// are re-armed resident (reading as `fill`), the backing file is
  /// truncated, and resident records keep stale words until rewritten.
  /// Quiescent points only.
  void clear();

  std::size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t mapped_bytes() const {
    return mapped_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t spilled_segments() const { return spilled_segments_; }
  std::size_t faulted_in() const { return faulted_in_; }
  std::size_t spill_failures() const { return spill_failures_; }

 private:
  struct Seg {
    HugeArray<W> data;       ///< flat resident array (empty once spilled)
    BackingFile::Block blk;  ///< compressed block once spilled
  };
  /// Directory entry: the resident data pointer (null once spilled) and
  /// the segment it belongs to (for decoding a spilled record).
  struct Slot {
    std::atomic<W*> data{nullptr};
    Seg* seg = nullptr;
  };

  void set_geometry(std::size_t recs) {
    seg_recs_ = recs;
    mask_ = recs - 1;
    shift_ = 0;
    for (std::size_t s = recs; s > 1; s >>= 1) ++shift_;
  }
  std::size_t seg_bytes() const { return seg_recs_ * stride_ * sizeof(W); }

  /// Allocate a segment's resident array at `fill` and publish it in the
  /// directory entry `i`.
  void arm(std::size_t i) {
    Seg& s = *segs_[i];
    s.data = HugeArray<W>(seg_recs_ * stride_);  // zero-filled already
    if (fill_ != W{}) std::fill(s.data.begin(), s.data.end(), fill_);
    resident_bytes_.fetch_add(seg_bytes(), std::memory_order_relaxed);
    dir_.load(std::memory_order_relaxed)[i].data.store(
        s.data.data(), std::memory_order_release);
  }

  void grow(std::size_t nrecs);
  W* fault_in(std::size_t i);

  const W* decode_tls(const Seg& s, std::size_t local) const {
    static thread_local std::vector<W> buf;
    if (buf.size() < stride_) buf.resize(stride_);
    decode_record<W>(s.blk.map, local, stride_, buf.data());
    return buf.data();
  }

  std::string name_;
  std::size_t stride_ = 0;
  W fill_{};
  std::size_t seg_recs_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 0;

  std::atomic<Slot*> dir_{nullptr};
  std::atomic<std::size_t> cap_{0};  ///< records in published segments
  std::mutex grow_mu_;               ///< serializes growth (slow path)
  std::vector<std::unique_ptr<Slot[]>> dirs_;  ///< current + retired
  std::size_t dir_cap_ = 0;
  std::vector<std::unique_ptr<Seg>> segs_;     ///< stable Seg addresses

  BackingFile file_;
  /// Every segment below this index is spilled; lowered by fault_in.
  std::atomic<std::size_t> first_resident_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::size_t> spilled_bytes_{0};
  std::atomic<std::size_t> mapped_bytes_{0};
  std::size_t spilled_segments_ = 0;
  std::size_t faulted_in_ = 0;
  std::size_t spill_failures_ = 0;
};

/// Out-of-line spill failure path shared by every SpillStore instantiation.
[[noreturn]] void throw_spill_failure(const std::string& name, int err,
                                      std::size_t resident_bytes,
                                      std::size_t resident_target);

template <class W>
void SpillStore<W>::grow(std::size_t nrecs) {
  std::lock_guard<std::mutex> lk(grow_mu_);
  while (segs_.size() * seg_recs_ < nrecs) {
    const std::size_t i = segs_.size();
    if (i == dir_cap_) {
      dir_cap_ = dir_cap_ == 0 ? 64 : dir_cap_ * 2;
      auto fresh = std::make_unique<Slot[]>(dir_cap_);
      const Slot* old = dir_.load(std::memory_order_relaxed);
      for (std::size_t j = 0; j < i; ++j) {
        fresh[j].data.store(old[j].data.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        fresh[j].seg = old[j].seg;
      }
      dir_.store(fresh.get(), std::memory_order_release);
      dirs_.push_back(std::move(fresh));
    }
    segs_.push_back(std::make_unique<Seg>());
    dir_.load(std::memory_order_relaxed)[i].seg = segs_.back().get();
    arm(i);
  }
  cap_.store(segs_.size() * seg_recs_, std::memory_order_release);
}

template <class W>
W* SpillStore<W>::fault_in(std::size_t i) {
  Seg& s = *segs_[i];
  HugeArray<W> fresh(seg_recs_ * stride_);
  decode_all<W>(s.blk.map, seg_recs_, stride_, fresh.data());
  spilled_bytes_.fetch_sub(s.blk.bytes, std::memory_order_relaxed);
  mapped_bytes_.fetch_sub(s.blk.map_len, std::memory_order_relaxed);
  file_.release(s.blk);
  s.data = std::move(fresh);
  resident_bytes_.fetch_add(seg_bytes(), std::memory_order_relaxed);
  ++faulted_in_;
  if (i < first_resident_.load(std::memory_order_relaxed)) {
    first_resident_.store(i, std::memory_order_relaxed);
  }
  dir_.load(std::memory_order_relaxed)[i].data.store(
      s.data.data(), std::memory_order_release);
  return s.data.data();
}

template <class W>
std::size_t SpillStore<W>::maybe_spill(std::size_t resident_target,
                                       std::size_t spill_below) {
  if (!file_.valid()) return 0;
  const std::size_t limit = std::min(spill_below >> shift_, segs_.size());
  Slot* dir = dir_.load(std::memory_order_relaxed);
  std::size_t released = 0;
  std::vector<std::uint8_t> block;
  std::size_t i = first_resident_.load(std::memory_order_relaxed);
  for (; i < limit && resident_bytes() > resident_target; ++i) {
    Seg& s = *segs_[i];
    if (!s.data) continue;
    encode_block<W>(s.data.data(), seg_recs_, stride_, block);
    if (!file_.append(block.data(), block.size(), s.blk)) {
      ++spill_failures_;
      const int err = errno;
      file_.close();
      throw_spill_failure(name_, err, resident_bytes(), resident_target);
    }
    dir[i].data.store(nullptr, std::memory_order_relaxed);
    s.data.reset();
    resident_bytes_.fetch_sub(seg_bytes(), std::memory_order_relaxed);
    spilled_bytes_.fetch_add(s.blk.bytes, std::memory_order_relaxed);
    mapped_bytes_.fetch_add(s.blk.map_len, std::memory_order_relaxed);
    ++spilled_segments_;
    released += seg_bytes();
  }
  first_resident_.store(i, std::memory_order_relaxed);
  return released;
}

template <class W>
void SpillStore<W>::clear() {
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    Seg& s = *segs_[i];
    if (s.data) continue;
    mapped_bytes_.fetch_sub(s.blk.map_len, std::memory_order_relaxed);
    file_.release(s.blk);
    arm(i);
  }
  if (file_.end_offset() != 0) file_.truncate();
  first_resident_.store(0, std::memory_order_relaxed);
  spilled_bytes_.store(0, std::memory_order_relaxed);
  spilled_segments_ = 0;
}

}  // namespace tsb::util::spill
