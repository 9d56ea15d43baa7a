#pragma once

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Delta/varint/zigzag block codec shared by ConfigArena (Value words) and
/// the reach graph's edge stores (u8 / u32 / u64 words). A block holds
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

/// The unlinked backing file behind every spill consumer. The file is
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
    std::size_t skip = 0;         ///< offset of the block within the map
    std::size_t bytes = 0;        ///< compressed payload bytes
    std::uint64_t file_off = 0;   ///< block start within the backing file
    bool valid() const { return map != nullptr; }
  };

  BackingFile() = default;
  ~BackingFile() { close(); }
  BackingFile(const BackingFile&) = delete;
  BackingFile& operator=(const BackingFile&) = delete;

  /// Create the unlinked O_EXCL backing file under `dir`. Returns false
  /// (and leaves the object invalid) if the directory is unusable.
  bool open(const std::string& dir);
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Append `len` bytes at the next page-aligned offset and map them
  /// read-only. Returns false with errno set on write/mmap failure; the
  /// caller owns the consequence (the spill consumers treat it as a budget
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

/// A segmented, spillable array of fixed-stride records: the reach graph's
/// per-node edge data (successor ids, per-edge renamings, decide flags)
/// each live in one of these. Records are `stride` words of W, stored in
/// power-of-two segments allocated flat on huge_alloc storage (see
/// util/huge_pages.hpp); cold full segments compress into
/// the BackingFile at quiescent points and decode on demand.
///
/// Unlike ConfigArena's immutable configuration words, edge records MUTATE
/// after they are first written (a later query with a different ProcSet
/// expands a previously unexpanded edge at an old node), so write_ptr() on
/// a spilled record faults the whole segment back to resident — decoding
/// it, releasing the stale disk block (hole-punched), and letting the next
/// quiescent spill re-encode it. read() on a spilled record decodes into a
/// thread-local buffer and never faults anything in.
///
/// Thread safety: none — callers are externally synchronized (the reach
/// graph touches its edge stores only from the query thread; its worker
/// pool reads the ConfigArena, never these).
template <class W>
class SpillStore {
 public:
  /// `name` labels ledger attributions and failure messages; `fill` is the
  /// value new records are initialized to (kUnexpanded for successor ids).
  void init(std::string name, std::size_t stride, W fill) {
    TSB_REQUIRE(segs_.empty(), "SpillStore::init on a non-empty store");
    TSB_REQUIRE(stride >= 1 && stride <= 255,
                "spill delta encoding stores word counts in one byte");
    name_ = std::move(name);
    stride_ = stride;
    fill_ = fill;
    // Segments target ~4 MB each, like the arena: big enough to amortize
    // the spill syscalls, small enough to be a meaningful spill quantum.
    seg_recs_ = kGroupRecords;
    while (seg_recs_ * stride_ * sizeof(W) < (4u << 20) &&
           seg_recs_ < (1u << 22)) {
      seg_recs_ <<= 1;
    }
    recompute_geometry();
  }

  /// Enable spilling to an unlinked backing file under `dir`.
  /// `seg_recs_hint` (0 = keep the ~4 MB default) shrinks segments so tiny
  /// test runs still cross segment boundaries. Must be called while the
  /// store is empty. Returns false if the directory is unusable.
  bool set_spill(const std::string& dir, std::size_t seg_recs_hint) {
    TSB_REQUIRE(size_ == 0, "SpillStore::set_spill on a non-empty store");
    if (seg_recs_hint != 0) {
      std::size_t sr = kGroupRecords;
      while (sr < seg_recs_hint) sr <<= 1;
      seg_recs_ = sr;
      recompute_geometry();
    }
    return file_.open(dir);
  }

  bool spill_enabled() const { return file_.valid(); }
  std::size_t size() const { return size_; }
  std::size_t stride() const { return stride_; }
  std::size_t segment_records() const { return seg_recs_; }
  const std::string& name() const { return name_; }

  /// Grow to at least `nrecs` records; new records read as `fill`.
  void ensure(std::size_t nrecs) {
    if (nrecs <= cap_) {
      if (nrecs > size_) size_ = nrecs;
      return;
    }
    while (cap_ < nrecs) {
      segs_.emplace_back();
      alloc_seg(segs_.back());
      cap_ += seg_recs_;
    }
    size_ = nrecs;
  }

  /// Read access to one record. Resident segments return a direct pointer;
  /// spilled segments decode into a thread-local buffer valid until this
  /// thread's next read() of a spilled record in any SpillStore<W>.
  const W* read(std::size_t idx) const {
    const Seg& s = segs_[idx >> shift_];
    if (s.data) return s.data.data() + (idx & mask_) * stride_;
    return decode_tls(s, idx & mask_);
  }

  /// Writable pointer to a record. Faults the segment back to resident if
  /// it was spilled (the record is about to change, so the on-disk copy is
  /// stale either way).
  W* write_ptr(std::size_t idx) {
    Seg& s = segs_[idx >> shift_];
    if (!s.data) fault_in(s);
    return s.data.data() + (idx & mask_) * stride_;
  }

  /// True when resident bytes exceed `resident_target` and a cold full
  /// segment exists to release. Cheap.
  bool spill_needed(std::size_t resident_target) const {
    if (!file_.valid() || resident_bytes_ <= resident_target) return false;
    const std::size_t full = size_ >> shift_;
    for (std::size_t i = 0; i < full; ++i) {
      if (segs_[i].data) return true;
    }
    return false;
  }

  /// Spill cold full segments (lowest record ids first) until resident
  /// bytes drop to `resident_target` or only pinned/partial/spilled
  /// segments remain. Records >= pin_floor never spill (callers pin the
  /// hot frontier). Caller guarantees quiescence. Returns bytes released.
  /// A write/mmap failure throws util::BudgetExhausted after recording a
  /// flight event — the operator's memory plan can no longer be kept, and
  /// pretending otherwise would trade a clean exit 4 for an OOM-kill later.
  std::size_t maybe_spill(std::size_t resident_target, std::size_t pin_floor);

  std::size_t resident_bytes() const {
    // The TLS decode buffer is shared across stores and bounded by one
    // record; charge the segment arrays only.
    return resident_bytes_;
  }
  std::size_t spilled_bytes() const { return spilled_bytes_; }
  std::size_t mapped_bytes() const { return mapped_bytes_; }
  std::size_t spilled_segments() const { return spilled_segments_; }
  std::size_t faulted_in() const { return faulted_in_; }
  std::size_t spill_failures() const { return spill_failures_; }

 private:
  struct Seg {
    HugeArray<W> data;       ///< flat resident array (empty once spilled)
    BackingFile::Block blk;     ///< compressed block once spilled
  };

  void recompute_geometry() {
    mask_ = seg_recs_ - 1;
    shift_ = 0;
    for (std::size_t s = seg_recs_; s > 1; s >>= 1) ++shift_;
  }

  void alloc_seg(Seg& s) {
    const std::size_t n = seg_recs_ * stride_;
    s.data = HugeArray<W>(n);  // zero-filled: a zero fill costs nothing
    if (fill_ != W{}) std::fill_n(s.data.data(), n, fill_);
    resident_bytes_ += n * sizeof(W);
  }

  void fault_in(Seg& s) {
    const std::size_t n = seg_recs_ * stride_;
    HugeArray<W> fresh(n);
    decode_all<W>(s.blk.map + s.blk.skip, seg_recs_, stride_, fresh.data());
    spilled_bytes_ -= s.blk.bytes;
    mapped_bytes_ -= s.blk.map_len;
    file_.release(s.blk);
    s.data = std::move(fresh);
    resident_bytes_ += n * sizeof(W);
    ++faulted_in_;
  }

  const W* decode_tls(const Seg& s, std::size_t local) const {
    static thread_local std::vector<W> buf;
    if (buf.size() < stride_) buf.resize(stride_);
    decode_record<W>(s.blk.map + s.blk.skip, local, stride_, buf.data());
    return buf.data();
  }

  std::string name_;
  std::size_t stride_ = 0;
  W fill_{};
  std::size_t seg_recs_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 0;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::vector<Seg> segs_;
  BackingFile file_;
  std::size_t resident_bytes_ = 0;
  std::size_t spilled_bytes_ = 0;
  std::size_t mapped_bytes_ = 0;
  std::size_t spilled_segments_ = 0;
  std::size_t faulted_in_ = 0;
  std::size_t spill_failures_ = 0;
};

/// Out-of-line spill failure path shared by every SpillStore instantiation.
[[noreturn]] void throw_spill_failure(const std::string& name, int err,
                                      std::size_t resident_bytes,
                                      std::size_t resident_target);

template <class W>
std::size_t SpillStore<W>::maybe_spill(std::size_t resident_target,
                                       std::size_t pin_floor) {
  if (!file_.valid()) return 0;
  const std::size_t seg_bytes = seg_recs_ * stride_ * sizeof(W);
  // Only FULL segments spill (the partial tail is still being appended
  // to), and never one at or above the pin floor.
  const std::size_t full = size_ >> shift_;
  const std::size_t pinned = pin_floor >> shift_;
  const std::size_t limit = full < pinned ? full : pinned;
  std::size_t released = 0;
  std::vector<std::uint8_t> block;
  for (std::size_t i = 0; i < limit; ++i) {
    if (resident_bytes_ <= resident_target) break;
    Seg& s = segs_[i];
    if (!s.data) continue;
    encode_block<W>(s.data.data(), seg_recs_, stride_, block);
    BackingFile::Block blk;
    if (!file_.append(block.data(), block.size(), blk)) {
      ++spill_failures_;
      const int err = errno;
      file_.close();
      throw_spill_failure(name_, err, resident_bytes_, resident_target);
    }
    s.blk = blk;
    s.data.reset();
    resident_bytes_ -= seg_bytes;
    spilled_bytes_ += blk.bytes;
    mapped_bytes_ += blk.map_len;
    ++spilled_segments_;
    released += seg_bytes;
  }
  return released;
}

}  // namespace tsb::util::spill
