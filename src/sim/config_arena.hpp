#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
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
/// segment, into a thread-local decode buffer that the next read of a
/// spilled configuration on the same thread overwrites). Visitors that
/// need to retain a configuration call materialize().
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
/// by m register words. The arena keeps them in one util::spill::SpillStore
/// of stride n + m (util/spill_store.hpp): flat ~4 MB segments on
/// huge_alloc storage, no per-configuration allocation, no reallocation
/// copying, word pointers stable while a segment is resident, and the
/// store's spill format, directory and concurrency contract. The arena
/// itself is the dedup index: an open-addressing hash table of 8-byte slots
/// (a 32-bit hash tag plus the id) on huge_alloc storage, so where
/// transparent huge pages are available the random probes of a table of
/// hundreds of MB do not also miss the TLB on every access. A probe touches
/// the word data only on a tag match, and the table stays half the size a
/// full-hash layout would need.
///
/// Out-of-core operation (set_spill): once resident word bytes exceed the
/// spill threshold, maybe_spill() moves cold FULL segments (lowest ids
/// first: in BFS id order those are the oldest levels) to disk; most
/// successors differ from their neighbour in one or two slots, so the
/// store's delta codec compresses them well. words() on a spilled id
/// decodes into a thread-local buffer. Callers spill only at quiescent
/// points (level boundaries, or the parallel explorer's stop-the-world
/// rendezvous), so readers never race a segment teardown.
///
/// Thread safety: interning and spilling are single-threaded (externally
/// synchronized). Concurrent READERS (words/view) plus concurrent WRITERS
/// to distinct reserved ids (ensure_capacity + slot_ptr) are safe between
/// spills: the store's contract.
///
/// Usage: build the next configuration's words in scratch(), then
/// intern_scratch(). The id space is dense and insertion-ordered.
class ConfigArena {
 public:
  ConfigArena(int num_states, int num_regs);

  ConfigArena(const ConfigArena&) = delete;
  ConfigArena& operator=(const ConfigArena&) = delete;

  int num_states() const { return n_; }
  int num_regs() const { return m_; }
  std::size_t words_per_config() const { return words_; }
  std::size_t size() const { return count_; }

  /// Drop all configurations but keep the allocations for reuse. Re-arms
  /// spilled segments and truncates the backing file.
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

  /// Read access to one configuration's packed words: a direct pointer
  /// into a resident segment, or the thread-local decode buffer of a
  /// spilled one (valid until this thread's next read of a spilled id).
  const Value* words(ConfigId id) const { return store_.read(id); }
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
  /// call concurrently with readers and with writers to other ids.
  void ensure_capacity(std::size_t up_to) { store_.ensure(up_to); }

  /// Writable pointer to a reserved (ensure_capacity'd) id's word slot.
  /// The caller owns the id exclusively until it is published.
  Value* slot_ptr(ConfigId id) { return store_.write_ptr(id); }

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
                 std::size_t seg_configs_hint = 0) {
    spill_threshold_ = threshold_bytes;
    return store_.set_spill(dir, seg_configs_hint);
  }

  /// True when resident word bytes exceed the spill threshold and a full
  /// cold segment may be releasable. `cur_size` is the caller's view of
  /// how many configurations exist (the work-stealing explorer's id
  /// counter runs ahead of size()). Cheap; any thread.
  bool spill_needed(std::size_t cur_size) const {
    return store_.spill_needed(spill_threshold_, cur_size);
  }

  /// Spill cold full segments (lowest ids first) until resident word bytes
  /// drop to the threshold. Ids >= pin_floor are never spilled (callers
  /// pin the unexpanded frontier so the hot read path stays
  /// pointer-direct). Quiescent points only; returns bytes released. A
  /// write failure throws util::BudgetExhausted (see SpillStore).
  std::size_t maybe_spill(ConfigId pin_floor) {
    return store_.maybe_spill(spill_threshold_,
                              std::min<std::size_t>(count_, pin_floor));
  }

  /// The word store: spill counters (spilled/mapped bytes, segments,
  /// failures) and geometry.
  const util::spill::SpillStore<Value>& store() const { return store_; }

  /// Set the arena.spill / arena.mapped ledger accounts once spilling is
  /// armed or has happened.
  void report_spill() const;

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
    return store_.resident_bytes() + scratch_.capacity() * sizeof(Value);
  }
  std::size_t table_bytes() const { return table_.size() * sizeof(Slot); }
  std::size_t memory_bytes() const { return words_bytes() + table_bytes(); }

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

  void grow_table();

  int n_;
  int m_;
  std::size_t words_;
  std::size_t count_ = 0;
  util::spill::SpillStore<Value> store_;  ///< words_ words per id

  std::vector<Value> scratch_;  ///< words_ staging words
  util::HugeArray<Slot> table_;  ///< open addressing, power-of-two size
  std::size_t mask_ = 0;        ///< table size - 1 (probe wrap)
  int shift_ = 0;               ///< 64 - log2(table size) (bucket index)
  std::size_t spill_threshold_ = 0;
};

}  // namespace tsb::sim
