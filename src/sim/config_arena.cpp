#include "sim/config_arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>

#include "obs/flight.hpp"
#include "obs/memledger.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"

namespace tsb::sim {

namespace {
constexpr std::size_t kInitialSlots = 1u << 10;

/// Configurations per delta group in a spilled block (the shared codec's
/// group size — see util/spill_store.hpp for the format).
constexpr std::size_t kGroup = util::spill::kGroupRecords;

// splitmix64 finalizer: one full-avalanche pass over the accumulated
// hash. The per-word step is a single xor-multiply (FNV-ish) — one mul of
// latency per word instead of three — and this finalizer restores
// avalanche in both the low bits (bucket index) and the high bits (slot
// tag). Interning is the engines' single hottest function; the hash runs
// once per protocol step ever taken.
inline std::uint64_t finalize(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

ConfigArena::ConfigArena(int num_states, int num_regs)
    : n_(num_states),
      m_(num_regs),
      words_(static_cast<std::size_t>(num_states) +
             static_cast<std::size_t>(num_regs)),
      scratch_(words_, 0),
      table_(kInitialSlots),
      mask_(kInitialSlots - 1) {
  assert(num_states > 0 && num_regs >= 0);
  shift_ = 64;
  for (std::size_t s = kInitialSlots; s > 1; s >>= 1) --shift_;
  // Segments target ~4 MB of words each: big enough that the directory
  // stays tiny and spill blocks amortize their syscalls, small enough
  // that one segment is a meaningful spill quantum for CI-sized budgets.
  seg_configs_ = kGroup;
  while (seg_configs_ * words_ * sizeof(Value) < (4u << 20) &&
         seg_configs_ < (1u << 20)) {
    seg_configs_ <<= 1;
  }
  seg_mask_ = seg_configs_ - 1;
  seg_shift_ = 0;
  for (std::size_t s = seg_configs_; s > 1; s >>= 1) ++seg_shift_;
}

ConfigArena::~ConfigArena() {
  for (auto& s : segs_) release_map(*s);
}

void ConfigArena::alloc_seg_data(Seg& s) {
  // Flat block (geas Vec idiom) whose pages are first touched by the
  // thread that writes configurations into them, which on a NUMA box
  // places each shard-flush's output near the worker that produced it.
  s.data = util::HugeArray<Value>(seg_configs_ * words_);
  resident_words_bytes_.fetch_add(seg_bytes(), std::memory_order_relaxed);
}

void ConfigArena::add_segment() {
  auto seg = std::make_unique<Seg>();
  alloc_seg_data(*seg);
  const std::size_t idx = segs_.size();
  if (idx >= dir_cap_) {
    const std::size_t cap = dir_cap_ == 0 ? 64 : dir_cap_ * 2;
    auto fresh = std::make_unique<DirEntry[]>(cap);
    DirEntry* old = dir_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < idx; ++i) {
      fresh[i].store(old[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    dir_.store(fresh.get(), std::memory_order_release);
    dir_store_.push_back(std::move(fresh));
    dir_cap_ = cap;
  }
  dir_.load(std::memory_order_relaxed)[idx].store(seg.get(),
                                                  std::memory_order_release);
  segs_.push_back(std::move(seg));
  seg_count_.store(segs_.size(), std::memory_order_release);
}

void ConfigArena::ensure_capacity(std::size_t up_to) {
  if (seg_count_.load(std::memory_order_acquire) * seg_configs_ >= up_to) {
    return;
  }
  std::lock_guard<std::mutex> lk(grow_mu_);
  while (segs_.size() * seg_configs_ < up_to) add_segment();
}

void ConfigArena::clear() {
  count_ = 0;
  std::memset(table_.data(), 0, table_bytes());
  if (spilled_segments_ != 0 || spill_file_.end_offset() != 0) {
    for (auto& s : segs_) {
      release_map(*s);
      if (!s->data) alloc_seg_data(*s);  // was spilled; re-arm
    }
    spill_file_.truncate();
    first_resident_seg_ = 0;
    spilled_segments_ = 0;
    spilled_bytes_.store(0, std::memory_order_relaxed);
  }
}

void ConfigArena::pack(const Config& c, Value* dst) const {
  assert(static_cast<int>(c.states.size()) == n_);
  assert(static_cast<int>(c.regs.size()) == m_);
  std::memcpy(dst, c.states.data(),
              static_cast<std::size_t>(n_) * sizeof(Value));
  std::memcpy(dst + n_, c.regs.data(),
              static_cast<std::size_t>(m_) * sizeof(Value));
}

std::uint64_t ConfigArena::hash_words(const Value* w) const {
  std::uint64_t h = 0x5bd1e995u;
  for (std::size_t i = 0; i < words_; ++i) {
    h = (h ^ static_cast<std::uint64_t>(w[i])) * 0x100000001b3ull;
  }
  return finalize(h);
}

void ConfigArena::grow_table() {
  // High-bit bucket indexing makes growth a single sequential pass: each
  // entry's new bucket is a prefix of its stored tag, so nothing is
  // rehashed and the word store is never touched. The only random access
  // is the destination write, which the lookahead prefetch below covers.
  util::HugeArray<Slot> bigger(table_.size() * 2);  // zero = all empty
  const std::size_t mask = bigger.size() - 1;
  const int shift = shift_ - 1;
  const int tag_shift = shift - 32;  // >= 0 while the table has < 2^32 slots
  const std::size_t nslots = table_.size();
  constexpr std::size_t kAhead = 8;
  for (std::size_t j = 0; j < nslots; ++j) {
    if (j + kAhead < nslots) {
      const Slot& a = table_[j + kAhead];
      if (!a.empty()) {
        __builtin_prefetch(
            bigger.data() + (static_cast<std::size_t>(a.tag) >> tag_shift), 1);
      }
    }
    const Slot& s = table_[j];
    if (s.empty()) continue;
    std::size_t i = static_cast<std::size_t>(s.tag) >> tag_shift;
    while (!bigger[i].empty()) i = (i + 1) & mask;
    bigger[i] = s;
  }
  table_ = std::move(bigger);
  mask_ = mask;
  shift_ = shift;
}

ConfigId ConfigArena::append_words(const Value* w) {
  assert(count_ < kNoConfig);
  const ConfigId id = static_cast<ConfigId>(count_);
  ensure_capacity(count_ + 1);
  std::memcpy(slot_ptr(id), w, words_ * sizeof(Value));
  ++count_;
  return id;
}

ConfigArena::Interned ConfigArena::intern_words(const Value* w) {
  return intern_prehashed(w, hash_words(w));
}

ConfigArena::Interned ConfigArena::intern_prehashed(const Value* w,
                                                    std::uint64_t h) {
  // Keep the load factor below 0.7 (growth check before the probe so slot
  // references stay valid through the insertion).
  if ((count_ + 1) * 10 >= table_.size() * 7) grow_table();
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = h >> shift_;
  while (true) {
    Slot& s = table_[i];
    if (s.empty()) {
      const ConfigId id = append_words(w);
      s.tag = tag;
      s.nid = ~id;
      return {id, true};
    }
    if (s.tag == tag && words_equal(words(s.id()), w)) return {s.id(), false};
    i = (i + 1) & mask_;
  }
}

ConfigId ConfigArena::find(const Value* w) const {
  const std::uint64_t h = hash_words(w);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = h >> shift_;
  while (true) {
    const Slot& s = table_[i];
    if (s.empty()) return kNoConfig;
    if (s.tag == tag && words_equal(words(s.id()), w)) return s.id();
    i = (i + 1) & mask_;
  }
}

// --- out-of-core --------------------------------------------------------

bool ConfigArena::set_spill(const std::string& dir,
                            std::size_t threshold_bytes,
                            std::size_t seg_configs_hint) {
  TSB_REQUIRE(count_ == 0,
              "ConfigArena::set_spill requires an empty arena");
  TSB_REQUIRE(words_ <= 255,
              "spill delta encoding stores slot counts in one byte");
  spill_file_.close();
  // Segment geometry may change below; drop any allocations from a prior
  // run (set_spill is a per-run reconfiguration, not a hot path).
  for (auto& s : segs_) release_map(*s);
  segs_.clear();
  seg_count_.store(0, std::memory_order_relaxed);
  resident_words_bytes_.store(0, std::memory_order_relaxed);
  spilled_bytes_.store(0, std::memory_order_relaxed);
  first_resident_seg_ = 0;
  spilled_segments_ = 0;
  if (seg_configs_hint != 0) {
    std::size_t sc = kGroup;
    while (sc < seg_configs_hint) sc <<= 1;
    seg_configs_ = sc;
    seg_mask_ = sc - 1;
    seg_shift_ = 0;
    for (std::size_t s = sc; s > 1; s >>= 1) ++seg_shift_;
  }
  if (!spill_file_.open(dir)) return false;
  spill_threshold_ = threshold_bytes;
  return true;
}

void ConfigArena::release_map(Seg& s) {
  if (s.blk.valid()) {
    mapped_bytes_.fetch_sub(s.blk.map_len, std::memory_order_relaxed);
    spill_file_.release(s.blk);
  }
}

bool ConfigArena::spill_segment(Seg& s) {
  // Encode through the shared codec (see util/spill_store.hpp for the
  // block format), then append at a page-aligned offset so the block can
  // be mapped directly. The write goes through the iofault wrapper (so the
  // CI fault matrix can inject ENOSPC/short-write/EINTR here); pwrite_full
  // owns the EINTR and short-write retry loop.
  std::vector<std::uint8_t> block;
  util::spill::encode_block<Value>(s.data.data(), seg_configs_, words_, block);
  util::spill::BackingFile::Block blk;
  if (!spill_file_.append(block.data(), block.size(), blk)) {
    ++spill_failures_;
    return false;
  }
  s.blk = blk;
  s.data.reset();
  resident_words_bytes_.fetch_sub(seg_bytes(), std::memory_order_relaxed);
  spilled_bytes_.fetch_add(blk.bytes, std::memory_order_relaxed);
  mapped_bytes_.fetch_add(blk.map_len, std::memory_order_relaxed);
  ++spilled_segments_;
  return true;
}

std::size_t ConfigArena::maybe_spill(ConfigId pin_floor) {
  if (!spill_file_.valid()) return 0;
  // Only FULL segments spill (the partial tail is still being appended
  // to), and never one at or above the pin floor: callers pin the
  // unexpanded frontier so its reads stay pointer-direct.
  const std::size_t full = count_ >> seg_shift_;
  const std::size_t pinned = static_cast<std::size_t>(pin_floor) >> seg_shift_;
  const std::size_t limit = full < pinned ? full : pinned;
  std::size_t released = 0;
  for (std::size_t i = first_resident_seg_; i < limit; ++i) {
    if (resident_words_bytes_.load(std::memory_order_relaxed) <=
        spill_threshold_) {
      break;
    }
    Seg& s = *segs_[i];
    if (!s.data) continue;
    if (!spill_segment(s)) {
      const int err = errno;
      spill_file_.close();
      util::spill::throw_spill_failure(
          "arena", err,
          resident_words_bytes_.load(std::memory_order_relaxed),
          spill_threshold_);
    }
    first_resident_seg_ = i + 1;
    released += seg_bytes();
  }
  return released;
}

const Value* ConfigArena::decode_spilled(const Seg& s,
                                         std::size_t local) const {
  static thread_local std::vector<Value> buf;
  if (buf.size() < words_) buf.resize(words_);
  util::spill::decode_record<Value>(s.blk.map + s.blk.skip, local, words_,
                                    buf.data());
  return buf.data();
}

}  // namespace tsb::sim
