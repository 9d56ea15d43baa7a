#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "util/huge_pages.hpp"
#include "util/spill_store.hpp"

namespace tsb::sim {

/// Dense identifier of a configuration interned in a ConfigArena. Ids are
/// assigned consecutively from 0 in insertion order, so the BFS explorers
/// use the id sequence itself as the frontier: level k is a contiguous id
/// range and no separate queue is needed.
using ConfigId = std::uint32_t;
inline constexpr ConfigId kNoConfig = 0xFFFFFFFFu;

/// Zero-copy read access to one interned configuration: `states` and `regs`
/// point directly into the arena's resident segment (or, for a spilled
/// segment, into a thread-local decode buffer that the next words()/view()
/// call on the same thread overwrites). Visitors that need to retain a
/// configuration call materialize().
struct ConfigView {
  ConfigId id = kNoConfig;
  const Value* states = nullptr;
  const Value* regs = nullptr;
  int num_states = 0;
  int num_regs = 0;

  Config materialize() const {
    Config c;
    c.states.assign(states, states + num_states);
    c.regs.assign(regs, regs + num_regs);
    return c;
  }
};

/// decision_of over a view, without materializing a Config.
inline std::optional<Value> decision_of(const Protocol& proto,
                                        const ConfigView& c, ProcId p) {
  const PendingOp op = proto.poised(p, c.states[p]);
  if (op.is_decide()) return op.value;
  return std::nullopt;
}

/// Packed, interned, out-of-core configuration storage.
///
/// A configuration of an (n, m) protocol is exactly n state words followed
/// by m register words. The arena stores them back to back in fixed-size
/// SEGMENTS (a power-of-two number of configurations each, sized to a few
/// MB) allocated flat — the geas Vec idiom: no per-configuration
/// allocation, no reallocation copying, and word pointers stay stable for
/// the lifetime of a segment's residency. Segments and the dedup table sit
/// on huge_alloc storage (util/huge_pages.hpp), so where transparent huge
/// pages are available the random probes of a table of hundreds of MB do
/// not also miss the TLB on every access. Deduplication goes through an
/// open-addressing hash table of 8-byte slots (a 32-bit hash tag plus the
/// id), so a probe touches the word data only on a tag match and the table
/// stays half the size a full-hash layout would need. Growth re-derives
/// each slot's bucket by rehashing its words from the store.
///
/// Out-of-core operation (set_spill): when resident word bytes exceed the
/// spill threshold, maybe_spill() takes cold FULL segments (lowest ids
/// first — in BFS id order those are the oldest levels), delta/varint
/// compresses them against the previous configuration in the segment (most
/// successors differ from a neighbour in one or two slots), appends the
/// compressed block to an unlinked backing file in the spill directory,
/// maps it read-only, and frees the resident array. words() on a spilled
/// id decodes the configuration into a thread-local buffer. Spilling only
/// happens inside maybe_spill(), which callers invoke at quiescent points
/// (level boundaries, or the parallel explorer's stop-the-world
/// rendezvous), so readers never race a segment teardown.
///
/// Thread safety: interning and spilling are single-threaded (externally
/// synchronized). Concurrent READERS (words/view) plus concurrent WRITERS
/// to distinct reserved ids are safe between spills: the segment directory
/// is an atomic snapshot array and ensure_capacity() publishes fully
/// initialized segments before exposing them.
///
/// Usage: build the next configuration's words in scratch(), then
/// intern_scratch(). The id space is dense and insertion-ordered.
class ConfigArena {
 public:
  ConfigArena(int num_states, int num_regs);
  ~ConfigArena();

  ConfigArena(const ConfigArena&) = delete;
  ConfigArena& operator=(const ConfigArena&) = delete;

  int num_states() const { return n_; }
  int num_regs() const { return m_; }
  std::size_t words_per_config() const { return words_; }
  std::size_t size() const { return count_; }

  /// Drop all configurations but keep the allocations for reuse. Unmaps
  /// spilled blocks and truncates the backing file.
  void clear();

  /// Staging buffer for the configuration about to be interned
  /// (words_per_config() words: states then regs).
  Value* scratch() { return scratch_.data(); }

  /// Pack a Config's words into dst (words_per_config() words).
  void pack(const Config& c, Value* dst) const;

  /// Hash of a packed word sequence; the same function the dedup table
  /// stores, exposed so sharded tables (parallel explorer) agree with it.
  std::uint64_t hash_words(const Value* w) const;

  struct Interned {
    ConfigId id;
    bool inserted;  ///< false: already present, id is the prior copy's
  };
  /// Intern the scratch buffer's configuration.
  Interned intern_scratch() { return intern_words(scratch_.data()); }

  /// Intern an externally staged word sequence (words_per_config() words).
  /// `w` must not alias the arena's own word store. The reachability
  /// engine interns its projected query roots, and re-interns checkpointed
  /// node words on restore, through this.
  Interned intern_words(const Value* w);

  /// intern_words with the hash precomputed (must be hash_words(w)). Pair
  /// with prefetch(): callers that stage several configurations before
  /// interning any of them can overlap the table's cache misses, which
  /// dominate interning once the table outgrows the cache.
  Interned intern_prehashed(const Value* w, std::uint64_t h);

  /// Hint the CPU to pull the hash's home slot into cache ahead of
  /// intern_prehashed / find on the same hash. Never faults.
  void prefetch(std::uint64_t h) const {
    __builtin_prefetch(table_.data() + (h >> shift_));
  }

  /// Lookup without insertion; kNoConfig if absent.
  ConfigId find(const Value* w) const;

  /// Append words as a new configuration WITHOUT consulting the dedup
  /// table. For callers that own deduplication themselves (the parallel
  /// explorer's sharded visited sets).
  ConfigId append_words(const Value* w);

  /// Read access to one configuration's packed words. Resident segments
  /// return a direct pointer; spilled segments decode into a thread-local
  /// buffer valid until this thread's next words() call on a spilled id.
  const Value* words(ConfigId id) const {
    const Seg* s = dir_.load(std::memory_order_acquire)[id >> seg_shift_].load(
        std::memory_order_acquire);
    const Value* d = s->data.data();
    if (d != nullptr) {
      return d + (static_cast<std::size_t>(id) & seg_mask_) * words_;
    }
    return decode_spilled(*s, static_cast<std::size_t>(id) & seg_mask_);
  }
  ConfigView view(ConfigId id) const {
    const Value* w = words(id);
    return ConfigView{id, w, w + n_, n_, m_};
  }
  Config materialize(ConfigId id) const { return view(id).materialize(); }

  bool words_equal(const Value* a, const Value* b) const {
    return std::memcmp(a, b, words_ * sizeof(Value)) == 0;
  }

  // --- concurrent-append support (the work-stealing explorer) -----------

  /// Make segments for every id < up_to exist and be resident. Safe to
  /// call concurrently with readers and with writers to other ids;
  /// internally serialized against other ensure_capacity calls.
  void ensure_capacity(std::size_t up_to);

  /// Writable pointer to a reserved (ensure_capacity'd) id's word slot.
  /// The caller owns the id exclusively until it is published.
  Value* slot_ptr(ConfigId id) {
    Seg* s = dir_.load(std::memory_order_acquire)[id >> seg_shift_].load(
        std::memory_order_acquire);
    return s->data.data() + (static_cast<std::size_t>(id) & seg_mask_) * words_;
  }

  /// Publish the final count after a phase of concurrent slot_ptr writes.
  /// (The dedup table is NOT updated; concurrent appenders own dedup.)
  void set_size(std::size_t count) { count_ = count; }

  // --- out-of-core ------------------------------------------------------

  /// Enable spilling: cold full segments move to an unlinked backing file
  /// under `dir` once resident word bytes exceed `threshold_bytes`.
  /// `seg_configs_hint` (power of two, 0 = default ~4 MB segments) is for
  /// tests that need multiple segments within tiny runs. Must be called
  /// while the arena is empty. Returns false if the directory is unusable
  /// (spilling stays disabled).
  bool set_spill(const std::string& dir, std::size_t threshold_bytes,
                 std::size_t seg_configs_hint = 0);

  bool spill_enabled() const { return spill_file_.valid(); }
  std::size_t spill_threshold() const { return spill_threshold_; }

  /// True when resident word bytes exceed the spill threshold and at least
  /// one full cold segment could be released. `cur_size` is the caller's
  /// view of how many configurations exist (the work-stealing explorer's
  /// id counter runs ahead of size()). Cheap; any thread.
  bool spill_needed(std::size_t cur_size) const {
    return spill_file_.valid() &&
           resident_words_bytes_.load(std::memory_order_relaxed) >
               spill_threshold_ &&
           first_resident_seg_ < cur_size >> seg_shift_;
  }

  /// Spill cold full segments (lowest ids first) until resident word bytes
  /// drop to the threshold or only pinned/partial segments remain. Ids >=
  /// pin_floor are never spilled (callers pin the unexpanded frontier so
  /// the hot read path stays pointer-direct). Caller guarantees no
  /// concurrent arena access (quiescent point). Returns bytes released.
  /// A write/mmap failure (ENOSPC, short write that retries don't clear)
  /// throws util::BudgetExhausted after recording a flight event: the
  /// operator's memory plan can no longer be kept, and pretending
  /// otherwise by quietly staying resident would trade a clean exit 4 for
  /// an OOM-kill hours later.
  std::size_t maybe_spill(ConfigId pin_floor);

  std::size_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t mapped_bytes() const {
    return mapped_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t spilled_segments() const { return spilled_segments_; }
  std::size_t spill_failures() const { return spill_failures_; }

  /// Capacity of the dedup table (power of two; 0 before first insertion).
  /// Every interned configuration owns exactly one slot, so occupancy is
  /// size() / table_slots() — the load factor the stats records report.
  std::size_t table_slots() const { return table_.size(); }

  /// Resident heap bytes held by the arena (word segments + dedup table +
  /// scratch). Spilled bytes live in the (unlinked) backing file and
  /// mmap'd blocks are clean file-backed pages the kernel can drop, so
  /// neither counts against the RAM budget; they get their own ledger
  /// accounts (arena.spill / arena.mapped).
  std::size_t words_bytes() const {
    return resident_words_bytes_.load(std::memory_order_relaxed) +
           scratch_.capacity() * sizeof(Value);
  }
  std::size_t table_bytes() const { return table_.size() * sizeof(Slot); }
  std::size_t memory_bytes() const { return words_bytes() + table_bytes(); }

  std::size_t segment_configs() const { return seg_configs_; }

 private:
  /// Buckets are the hash's top log2(table size) bits — a prefix of the
  /// stored tag — so growth re-derives every bucket from tags alone: one
  /// sequential read pass, no rehashing of word data. (Holds while the
  /// table has <= 2^32 slots; the 32-bit id space runs out first.)
  ///
  /// The id is stored complemented so an all-zero slot is the empty one
  /// (id kNoConfig): fresh huge_alloc memory is zero, and growing the
  /// table needs no initialization pass.
  struct Slot {
    std::uint32_t tag;   ///< top 32 hash bits; full equality is by words
    std::uint32_t nid;   ///< ~id (0 = empty)
    ConfigId id() const { return ~nid; }
    bool empty() const { return nid == 0; }
  };

  /// One fixed-size segment of seg_configs_ configurations. `data` is the
  /// flat resident array (empty once spilled); `blk` describes the
  /// compressed block in the backing file after a spill.
  struct Seg {
    util::HugeArray<Value> data;
    util::spill::BackingFile::Block blk;
  };

  void grow_table();
  const Value* decode_spilled(const Seg& s, std::size_t local) const;
  bool spill_segment(Seg& s);
  void release_map(Seg& s);
  void add_segment();
  void alloc_seg_data(Seg& s);
  std::size_t seg_bytes() const { return seg_configs_ * words_ * sizeof(Value); }

  int n_;
  int m_;
  std::size_t words_;
  std::size_t count_ = 0;
  std::size_t seg_configs_ = 0;  ///< configs per segment (power of two)
  std::size_t seg_mask_ = 0;     ///< seg_configs_ - 1
  int seg_shift_ = 0;            ///< log2(seg_configs_)

  std::vector<std::unique_ptr<Seg>> segs_;  ///< stable Seg addresses
  /// segs_.size() mirrored for the lock-free ensure_capacity fast path.
  std::atomic<std::size_t> seg_count_{0};
  std::mutex grow_mu_;  ///< serializes segment growth (slow path only)

  /// Lock-free segment directory: an array of atomic Seg pointers,
  /// republished (capacity-doubled) when it fills. Old arrays are retired
  /// (kept until destruction) so a reader holding a stale snapshot never
  /// touches freed memory; doubling bounds the retired total at one extra
  /// copy of the final directory. A reader can only hold a snapshot at
  /// least as new as the publication of any id it was handed, because id
  /// handoff (shard lock / deque steal) happens-after the entry store.
  using DirEntry = std::atomic<Seg*>;
  std::atomic<DirEntry*> dir_{nullptr};
  std::vector<std::unique_ptr<DirEntry[]>> dir_store_;
  std::size_t dir_cap_ = 0;

  std::vector<Value> scratch_;  ///< words_ staging words
  util::HugeArray<Slot> table_;  ///< open addressing, power-of-two size
  std::size_t mask_ = 0;        ///< table size - 1 (probe wrap)
  int shift_ = 0;               ///< 64 - log2(table size) (bucket index)

  // Spill state. resident_words_bytes_ is atomic because the parallel
  // explorer's budget checks read it from worker threads while another
  // worker's flush is growing the arena.
  util::spill::BackingFile spill_file_;
  std::size_t spill_threshold_ = 0;
  std::size_t first_resident_seg_ = 0;
  std::size_t spilled_segments_ = 0;
  std::size_t spill_failures_ = 0;
  std::atomic<std::size_t> resident_words_bytes_{0};
  std::atomic<std::size_t> spilled_bytes_{0};
  std::atomic<std::size_t> mapped_bytes_{0};
};

}  // namespace tsb::sim
