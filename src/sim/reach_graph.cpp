#include "sim/reach_graph.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/flight.hpp"
#include "obs/memledger.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "util/checkpoint.hpp"
#include "util/require.hpp"

namespace tsb::sim {

namespace {

/// A stored edge renaming permutes processes [0, n) and fixes the slots
/// above n, as every canonicalize_states() composition does.
bool is_renaming(ProcPerm pi, int n) {
  unsigned seen = 0;
  for (int p = 0; p < ProcPerm::kMaxProcs; ++p) {
    const int img = pi(p);
    if (p < n ? img >= n : img != p) return false;
    seen |= 1u << img;
  }
  return seen == 0xFFu;
}

/// Records [0, count) of `store` (`stride` words each) as raw payload bytes.
template <class W>
void put_records(util::ckpt::SectionWriter& w,
                 const util::spill::SpillStore<W>& store, std::size_t count,
                 std::size_t stride) {
  store.for_each_run(count, [&](const W* recs, std::size_t nrecs) {
    w.put_bytes(recs, nrecs * stride * sizeof(W));
  });
}

}  // namespace

// -------------------------------------------------------------- ReachGraph

ReachGraph::ReachGraph(const Protocol& proto, Options opts)
    : proto_(proto),
      opts_(opts),
      n_(proto.num_processes()),
      words_(static_cast<std::size_t>(proto.num_processes()) +
             static_cast<std::size_t>(proto.num_registers())),
      sym_(proto.symmetric() && proto.num_processes() <= ProcPerm::kMaxProcs),
      arena_(proto.num_processes(), proto.num_registers()),
      stage_(words_, 0),
      exp_words_(words_ * static_cast<std::size_t>(proto.num_processes()), 0) {
  flags_.init("graph.flags", 1, 0);
  succ_.init("graph.succ", static_cast<std::size_t>(n_), kUnexpanded);
  if (sym_) {
    perm_.init("graph.perm", static_cast<std::size_t>(n_),
               ProcPerm::identity().packed());
  }
  if (opts_.spill_threshold_bytes != 0 && !opts_.spill_dir.empty()) {
    arena_.set_spill(opts_.spill_dir, opts_.spill_threshold_bytes,
                     opts_.spill_seg_configs);
    // The edge stores share the arena's segment-size hint so CI smoke
    // runs that shrink segments to force spilling force it everywhere.
    edge_spill_on_ =
        flags_.set_spill(opts_.spill_dir, opts_.spill_seg_configs) &&
        succ_.set_spill(opts_.spill_dir, opts_.spill_seg_configs) &&
        (!sym_ || perm_.set_spill(opts_.spill_dir, opts_.spill_seg_configs));
  }
}

std::size_t ReachGraph::memory_bytes() const {
  return arena_.memory_bytes() + edge_resident_bytes() + query_bytes();
}

std::size_t ReachGraph::query_bytes() const {
  return entries_.capacity() * sizeof(Entry) +
         entry_perm_.capacity() * sizeof(ProcPerm) +
         mark_epoch_.capacity() * sizeof(std::uint32_t);
}

void ReachGraph::update_ledger() const {
  // Accounts mirror memory_bytes() exactly, so the exit-4 budget report
  // attributes 100% of the graph's tracked bytes to named subsystems.
  obs::MemLedger& ledger = obs::MemLedger::global();
  ledger.set(obs::MemAccount::kReachNodes, arena_.memory_bytes());
  ledger.set(obs::MemAccount::kReachEdges, edge_resident_bytes());
  ledger.set(obs::MemAccount::kReachQuery, query_bytes());
  arena_.report_spill();
  if (edge_spill_on_ || edge_spilled_bytes() != 0) {
    ledger.set(obs::MemAccount::kGraphSpill, edge_spilled_bytes());
    ledger.set(obs::MemAccount::kGraphMapped, edge_mapped_bytes());
  }
}

void ReachGraph::check_budget() {
  // The budget poll doubles as the ledger refresh and a flight-recorder
  // breadcrumb: every 256 BFS steps, current tracked bytes vs budget.
  update_ledger();
  const std::size_t bytes = memory_bytes();
  obs::flight::record(obs::flight::Ev::kBudgetCheck,
                      static_cast<std::int64_t>(bytes),
                      static_cast<std::int64_t>(opts_.max_arena_bytes));
  if (opts_.max_arena_bytes != 0 && bytes >= opts_.max_arena_bytes) {
    obs::flight::record(obs::flight::Ev::kBudgetTrip,
                        static_cast<std::int64_t>(bytes),
                        static_cast<std::int64_t>(opts_.max_arena_bytes));
    throw util::BudgetExhausted(
        "reachability engine memory budget exhausted (" +
        std::to_string(opts_.max_arena_bytes) +
        " bytes; the shared graph is cumulative across queries) after " +
        std::to_string(arena_.size()) + " graph nodes; ledger: " +
        obs::MemLedger::global().attribution(3));
  }
  if (deadline_ != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline_) {
    obs::flight::record(obs::flight::Ev::kBudgetTrip,
                        static_cast<std::int64_t>(bytes), 0);
    throw util::BudgetExhausted(
        "valency wall-clock budget exhausted during a shared-graph query; "
        "ledger: " +
        obs::MemLedger::global().attribution(3));
  }
}

void ReachGraph::save(util::ckpt::SectionWriter& w) const {
  w.begin("graph");
  w.put_u32(static_cast<std::uint32_t>(n_));
  w.put_u32(static_cast<std::uint32_t>(words_));
  w.put_u8(sym_ ? 1 : 0);
  const std::size_t count = arena_.size();
  w.put_u64(count);
  // Each store's records [0, count) in id order, one put per segment.
  // Spilled segments decode to the words read() would return, so the
  // checkpoint is independent of which segments sit on disk at write time:
  // a dump with segments spilled is byte-identical to one taken resident.
  put_records(w, arena_.store(), count, words_);
  put_records(w, flags_, count, 1);
  put_records(w, succ_, count, static_cast<std::size_t>(n_));
  if (sym_) put_records(w, perm_, count, static_cast<std::size_t>(n_));
  w.put_u64(edges_expanded_);
  w.put_u64(edges_reused_);
  w.end();
}

void ReachGraph::restore(util::ckpt::SectionReader& r) {
  TSB_REQUIRE(arena_.size() == 0,
              "ReachGraph::restore requires a freshly constructed engine");
  r.expect("graph");
  if (r.get_u32() != static_cast<std::uint32_t>(n_) ||
      r.get_u32() != static_cast<std::uint32_t>(words_) ||
      r.get_u8() != (sym_ ? 1 : 0)) {
    throw util::CheckpointInvalid(
        "checkpoint graph section disagrees with the protocol's shape "
        "(process count, word count, or symmetry mode)");
  }
  const std::uint64_t count = r.get_u64();
  // Re-intern in id order: the arena's dedup table (and any spill
  // segmentation) rebuilds itself, and ids are stable because interning
  // order defines them.
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t* p = r.get_bytes(words_ * sizeof(Value));
    std::memcpy(stage_.data(), p, words_ * sizeof(Value));
    const auto [id, inserted] = arena_.intern_words(stage_.data());
    if (!inserted || static_cast<std::uint64_t>(id) != i) {
      throw util::CheckpointInvalid(
          "checkpoint graph section re-interned to a different id (node " +
          std::to_string(i) + " -> " + std::to_string(id) +
          "): duplicate or reordered node words");
    }
  }
  // Bulk-load flags and edges without register_config: the stored
  // values already carry its decide scan. Everything lands resident
  // (restore runs on a fresh engine); the trailing maybe_spill_edges()
  // re-establishes the memory plan before the first query.
  const std::size_t edge_count = count * static_cast<std::size_t>(n_);
  flags_.ensure(count);
  succ_.ensure(count);
  if (sym_) perm_.ensure(count);
  if (count != 0) {
    const std::uint8_t* fb = r.get_bytes(count);
    for (std::uint64_t i = 0; i < count; ++i) *flags_.write_ptr(i) = fb[i];
    // The CRC only proves the bytes are the ones written, not that a
    // writer was honest: every successor id and renaming is checked before
    // a walk can index past the stores or shift by a wild process number.
    const std::uint8_t* sb = r.get_bytes(edge_count * sizeof(ConfigId));
    for (std::uint64_t i = 0; i < count; ++i) {
      ConfigId* row = succ_.write_ptr(i);
      std::memcpy(row, sb + i * static_cast<std::size_t>(n_) * sizeof(ConfigId),
                  static_cast<std::size_t>(n_) * sizeof(ConfigId));
      for (int q = 0; q < n_; ++q) {
        if (row[q] < count || row[q] == kUnexpanded || row[q] == kNoConfig) {
          continue;
        }
        throw util::CheckpointInvalid(
            "checkpoint graph section: node " + std::to_string(i) +
            " has successor id " + std::to_string(row[q]) + " beyond its " +
            std::to_string(count) + " nodes");
      }
    }
    if (sym_) {
      const std::uint8_t* pb = r.get_bytes(edge_count * sizeof(std::uint64_t));
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t* row = perm_.write_ptr(i);
        std::memcpy(row,
                    pb + i * static_cast<std::size_t>(n_) * sizeof(std::uint64_t),
                    static_cast<std::size_t>(n_) * sizeof(std::uint64_t));
        for (int q = 0; q < n_; ++q) {
          if (is_renaming(ProcPerm(row[q]), n_)) continue;
          throw util::CheckpointInvalid(
              "checkpoint graph section: node " + std::to_string(i) +
              " has an edge renaming that does not permute its " +
              std::to_string(n_) + " processes");
        }
      }
    }
  }
  edges_expanded_ = r.get_u64();
  edges_reused_ = r.get_u64();
  r.done();
  maybe_spill_edges();
  update_ledger();
}

void ReachGraph::register_config(ConfigId id) {
  flags_.ensure(arena_.size());
  succ_.ensure(arena_.size());
  if (sym_) perm_.ensure(arena_.size());
  // Decide scan happens once per configuration ever (the fresh-BFS oracle
  // pays it once per visit per pass); decided processes get their "no edge"
  // marker now so expansion never re-derives it. Masked slots are frozen
  // processes outside the projection's P — their (query-constant) decide
  // contribution is query_ambient_, not a per-node flag. A fresh id always
  // lands in the resident tail segment, so these write_ptrs never fault.
  const Value* st = arena_.words(id);
  ConfigId* srow = succ_.write_ptr(id);
  std::uint8_t flags = 0;
  for (int q = 0; q < n_; ++q) {
    if (st[q] == kMaskedState) continue;
    const PendingOp op = proto_.poised(q, st[q]);
    if (!op.is_decide()) continue;
    if (op.value == 0 || op.value == 1) {
      flags |= static_cast<std::uint8_t>(1u << op.value);
    }
    srow[q] = kNoConfig;
  }
  *flags_.write_ptr(id) = flags;
}

ReachGraph::Node ReachGraph::intern_node(const Config& c, ProcSet p,
                                         ProcPerm* perm_out) {
  arena_.pack(c, stage_.data());
  // Project: ambient decide bits from the frozen processes, then mask
  // their state slots so nodes are shared by every query whose root agrees
  // on (P-states, registers) — the whole of what P-only dynamics see.
  std::uint8_t ambient = 0;
  for (int q = 0; q < n_; ++q) {
    if (p.contains(q)) continue;
    const PendingOp op = proto_.poised(q, stage_[static_cast<std::size_t>(q)]);
    if (op.is_decide() && (op.value == 0 || op.value == 1)) {
      ambient |= static_cast<std::uint8_t>(1u << op.value);
    }
    stage_[static_cast<std::size_t>(q)] = kMaskedState;
  }
  ProcPerm pi;
  std::uint64_t pbits = p.bits();
  if (sym_) {
    const ProcPerm rho = canonicalize_states(stage_.data(), n_);
    ProcSet pc;
    const ProcPerm tau = refine_procset(stage_.data(), n_, rho.apply(p), &pc);
    pi = ProcPerm::compose(rho, tau);
    pbits = pc.bits();
  }
  const auto [id, inserted] = arena_.intern_words(stage_.data());
  if (inserted) register_config(id);
  if (perm_out) *perm_out = pi;
  return Node{id, pbits, ambient};
}

void ReachGraph::compute_successor(ConfigId id, int q, Value* out,
                                   ProcPerm* sigma) const {
  std::memcpy(out, arena_.words(id), words_ * sizeof(Value));
  // register_config() pre-marked decided processes kNoConfig, so the op
  // here is never a decide.
  const PendingOp op = proto_.poised(q, out[q]);
  apply_op(proto_, op, q, out, out + n_);
  *sigma = sym_ ? canonicalize_states(out, n_) : ProcPerm::identity();
}

void ReachGraph::ensure_marks(ConfigId id) {
  if (static_cast<std::size_t>(id) < mark_epoch_.size()) return;
  // Geometric growth: ids arrive in insertion order, so growing to the
  // arena's size exactly would mean one resize call per new configuration.
  const std::size_t ns = std::max(arena_.size(), mark_epoch_.size() * 2);
  mark_epoch_.resize(ns, 0);
}

void ReachGraph::maybe_spill_edges() {
  if (!edge_spill_on_) return;
  const std::size_t target = opts_.spill_threshold_bytes;
  std::size_t resident = edge_resident_bytes();
  if (resident <= target) return;
  std::size_t over = resident - target;
  std::size_t released = 0;
  // Coldest stores first: renamings (largest per record, read only when an
  // edge is reused in symmetric mode), then successor rows, then the decide
  // flags last — one byte per node but touched on every dequeue. Each store
  // spills down only by the remaining overshoot, so a hot flags store stays
  // resident while perm/succ can cover the plan. No pin: the shared graph
  // has no cold-prefix structure, and the drain pass never spills.
  const auto spill_one = [&](auto& store) {
    if (over == 0) return;
    const std::size_t cur = store.resident_bytes();
    const std::size_t want = cur > over ? cur - over : 0;
    const std::size_t rel = store.maybe_spill(want, arena_.size());
    released += rel;
    over -= rel < over ? rel : over;
  };
  spill_one(perm_);
  spill_one(succ_);
  spill_one(flags_);
  if (released != 0) {
    obs::flight::record(obs::flight::Ev::kSpill,
                        static_cast<std::int64_t>(released),
                        static_cast<std::int64_t>(edge_spilled_bytes()));
  }
}


ReachGraph::QueryResult ReachGraph::query(const Config& c, ProcSet p,
                                          ProcPerm* perm_out) {
  obs::Span span("valency.query");
  check_budget();
  QueryResult res;
  ProcPerm pi0;
  const Node root = intern_node(c, p, &pi0);
  obs::flight::record(obs::flight::Ev::kReachQuery,
                      static_cast<std::int64_t>(root.id),
                      static_cast<std::int64_t>(root.pbits));
  if (perm_out) *perm_out = pi0;
  query_pbits_ = root.pbits;
  query_ambient_ = root.ambient;

  entries_.clear();
  entry_perm_.clear();
  if (sym_) {
    visited_.clear();
  } else if (++epoch_ == 0) {
    std::fill(mark_epoch_.begin(), mark_epoch_.end(), 0);
    epoch_ = 1;
  }

  // Enter a node occurrence, deduplicating per query. Entry perms are
  // relative to the *canonical root* (identity there), so witnesses come
  // out in the canonical frame and memoize cleanly; callers translate via
  // pi0^-1.
  auto enter = [&](ConfigId id, std::uint8_t pb, std::uint32_t parent,
                   std::uint8_t via, ProcPerm perm) {
    if (sym_) {
      if (!visited_.insert((static_cast<std::uint64_t>(id) << 8) | pb).second) {
        return;
      }
    } else {
      ensure_marks(id);
      if (mark_epoch_[id] == epoch_) return;
      mark_epoch_[id] = epoch_;
    }
    entries_.push_back(Entry{id, parent, via, pb});
    if (sym_) entry_perm_.push_back(perm);
    ++res.visited;
  };

  enter(root.id, static_cast<std::uint8_t>(sym_ ? root.pbits : 0), kNoEntry, 0,
        ProcPerm::identity());

  std::uint32_t found[2] = {kNoEntry, kNoEntry};
  obs::Heartbeat hb("valency.reach");

  std::size_t head = 0;
  std::uint64_t steps = 0;
  while (head < entries_.size()) {
    if ((++steps & 0xFF) == 1) {
      check_budget();
      // Quiescent point: every arena read in the loop body copies or
      // probes synchronously, so cold full segments can be compressed out
      // to disk here, and the whole engine state is consistent for a
      // checkpoint (per-query scratch excluded — resume replays the
      // in-flight query over the restored edges). No pin — the shared
      // graph has no cold-prefix structure, so the oldest full segments
      // go first.
      util::ckpt::CheckpointService::global().poll(256);
      if (arena_.spill_needed(arena_.size())) {
        const std::size_t released = arena_.maybe_spill(kNoConfig);
        if (released != 0) {
          obs::flight::record(obs::flight::Ev::kSpill,
                              static_cast<std::int64_t>(released),
                              static_cast<std::int64_t>(
                                  arena_.store().spilled_bytes()));
        }
      }
      maybe_spill_edges();
      hb.beat(
          [&] {
            return "nodes=" + std::to_string(arena_.size()) +
                   " entries=" + std::to_string(entries_.size());
          },
          [&](obs::StatusSnapshot& s) {
            s.frontier = static_cast<std::int64_t>(entries_.size() - head);
            s.visited = static_cast<std::int64_t>(arena_.size());
            s.cap = static_cast<std::int64_t>(opts_.max_configs);
          });
    }
    const std::uint32_t cur = static_cast<std::uint32_t>(head++);
    const Entry e = entries_[cur];  // copy: entries_ grows below

    // First deciding configuration in discovery order — the fresh-BFS
    // explorers' witness choice. Ambient bits count as decisions at every
    // node (frozen processes stay poised throughout the P-only subgraph).
    const std::uint8_t df =
        static_cast<std::uint8_t>(*flags_.read(e.id) | query_ambient_);
    for (int v = 0; v < 2; ++v) {
      if (found[v] == kNoEntry && ((df >> v) & 1)) found[v] = cur;
    }
    if (found[0] != kNoEntry && found[1] != kNoEntry) break;

    if (entries_.size() >= opts_.max_configs) {
      res.truncated = true;
      break;
    }

    const std::uint64_t pb = sym_ ? e.pbits : query_pbits_;
    const ProcPerm eperm = sym_ ? entry_perm_[cur] : ProcPerm::identity();
    // Snapshot this entry's successor (and renaming) row into locals: a
    // spilled row decodes into a thread-local buffer that later store reads
    // would clobber, and the interning below can grow the stores. Edge
    // writes go through lazily fetched write pointers — write_ptr faults a
    // spilled segment back resident, and the heap row it returns is stable
    // across store growth (segments never move).
    ConfigId srow[64];
    std::memcpy(srow, succ_.read(e.id),
                static_cast<std::size_t>(n_) * sizeof(ConfigId));
    std::uint64_t prow[64];
    if (sym_) {
      std::memcpy(prow, perm_.read(e.id),
                  static_cast<std::size_t>(n_) * sizeof(std::uint64_t));
    }
    ConfigId* wrow = nullptr;
    std::uint64_t* pwrow = nullptr;
    // Expansion is two-phase: first compute, hash and prefetch every
    // unexpanded successor of this entry, then intern them. The dedup
    // table dwarfs the cache at adversary scale, so overlapping up to |P|
    // probe misses (instead of paying them serially) is worth more than
    // any saving inside a single intern.
    ProcPerm pend_sigma[64];
    std::uint64_t pend_h[64];
    int npend = 0;
    ProcSet(pb).for_each([&](int q) {
      const ConfigId s = srow[q];
      if (s == kUnexpanded) {
        Value* buf =
            exp_words_.data() + static_cast<std::size_t>(npend) * words_;
        compute_successor(e.id, q, buf, &pend_sigma[npend]);
        pend_h[npend] = arena_.hash_words(buf);
        arena_.prefetch(pend_h[npend]);
        ++npend;
      } else if (s != kNoConfig && !sym_ &&
                 static_cast<std::size_t>(s) < mark_epoch_.size()) {
        __builtin_prefetch(&mark_epoch_[s]);
      }
    });
    int pend = 0;
    ProcSet(pb).for_each([&](int q) {
      ConfigId s = srow[q];
      if (s == kNoConfig) return;  // q decided here: no edge
      ProcPerm sigma;
      if (s == kUnexpanded) {
        const Value* buf =
            exp_words_.data() + static_cast<std::size_t>(pend) * words_;
        sigma = pend_sigma[pend];
        const auto [sid, inserted] =
            arena_.intern_prehashed(buf, pend_h[pend]);
        ++pend;
        if (inserted) register_config(sid);
        if (!wrow) wrow = succ_.write_ptr(e.id);
        wrow[q] = sid;
        if (sym_) {
          if (!pwrow) pwrow = perm_.write_ptr(e.id);
          pwrow[q] = sigma.packed();
        }
        ++edges_expanded_;
        s = sid;
        ++res.expanded;
      } else {
        ++res.reused;
        ++edges_reused_;
        if (sym_) sigma = ProcPerm(prow[q]);
      }
      if (sym_) {
        ProcSet cpbs;
        const ProcPerm tau = refine_procset(
            arena_.words(s), n_, sigma.apply(ProcSet(pb)), &cpbs);
        const ProcPerm cperm =
            ProcPerm::compose(ProcPerm::compose(eperm, sigma), tau);
        enter(s, static_cast<std::uint8_t>(cpbs.bits()), cur,
              static_cast<std::uint8_t>(q), cperm);
      } else {
        enter(s, 0, cur, static_cast<std::uint8_t>(q), ProcPerm::identity());
      }
    });
  }

  // Witness: the path from the canonical root to the deciding entry, in
  // the canonical frame.
  for (int v = 0; v < 2; ++v) {
    if (found[v] == kNoEntry) continue;
    res.can[v] = true;
    res.witness_id[v] = entries_[found[v]].id;
    std::vector<ProcId> steps_out;
    for (std::uint32_t t = found[v]; entries_[t].parent != kNoEntry;) {
      const Entry& et = entries_[t];
      steps_out.push_back(sym_ ? entry_perm_[et.parent].inverse()(et.via)
                               : static_cast<ProcId>(et.via));
      t = et.parent;
    }
    std::reverse(steps_out.begin(), steps_out.end());
    res.witness[v] = Schedule(std::move(steps_out));
  }
  return res;
}

}  // namespace tsb::sim
