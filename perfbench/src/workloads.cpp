#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bound/certificate.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using tsb::obs::MemAccount;
using tsb::obs::MemLedger;
using tsb::sim::Value;

namespace {

const std::vector<Spec>& specs() {
  using K = Spec::Kind;
  static const std::vector<Spec> all = [] {
    std::vector<Spec> v;
    // `tsb adversary 6` as users run it: ballot cap 28 and the CLI's
    // valency cap for n = 6, one thread, everything resident.
    v.push_back({.name = "adversary-6", .kind = K::kAdversary, .n = 6,
                 .ballot_cap = 28, .valency_cap = 40'000'000});
    // Work-stealing enumeration of ballot n = 5 (the bench_explore cap)
    // truncated at a fixed 8M configurations on 4 threads.
    v.push_back({.name = "explore-5", .kind = K::kExplore, .n = 5,
                 .ballot_cap = 15, .explore_cap = 8'000'000, .threads = 4});
    // adversary-6 out of core: 24 MiB spill threshold (clear of the thrash
    // cliff below 16 MiB) and a cadence past half of the ~13.8M walk steps
    // the reach graph polls in total, so exactly one checkpoint (~0.9 GB)
    // lands mid-walk. A second one would add ~30 s of serialization to
    // every run.
    v.push_back({.name = "campaign-6", .kind = K::kAdversary, .n = 6,
                 .ballot_cap = 28, .valency_cap = 40'000'000,
                 .spill_threshold = std::size_t{24} << 20,
                 .checkpoint_every = 7'500'000});
    // Sub-second smoke variants at n = 4 for the benchmark's own tests.
    v.push_back({.name = "adversary-4", .kind = K::kAdversary, .n = 4,
                 .ballot_cap = 8, .valency_cap = 2'000'000});
    v.push_back({.name = "explore-4", .kind = K::kExplore, .n = 4,
                 .ballot_cap = 8, .explore_cap = 200'000, .threads = 4});
    v.push_back({.name = "campaign-4", .kind = K::kAdversary, .n = 4,
                 .ballot_cap = 8, .valency_cap = 2'000'000,
                 .spill_threshold = std::size_t{256} << 10,
                 .spill_seg_configs = 512,
                 .checkpoint_every = 4'500});
    return v;
  }();
  return all;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

std::vector<Value> inputs_from_seed(int n, std::uint64_t seed) {
  tsb::util::Rng rng(seed);
  std::vector<Value> in(static_cast<std::size_t>(n));
  for (Value& v : in) v = rng.coin() ? 1 : 0;
  return in;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over the certificate's inputs, schedule and covering claim.
std::uint64_t certificate_digest(const tsb::bound::CoveringCertificate& c) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (Value v : c.inputs) mix(v);
  mix(-1);
  for (int p : c.schedule.steps()) mix(p);
  mix(-1);
  for (const auto& [p, r] : c.covering) {
    mix(p);
    mix(r);
  }
  return h;
}

}  // namespace

void Gate::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Prepared prepare(const Spec& spec) {
  Prepared p;
  p.proto = std::make_unique<tsb::consensus::BallotConsensus>(spec.n,
                                                              spec.ballot_cap);
  if (spec.kind == Spec::Kind::kExplore) {
    p.explorer = std::make_unique<tsb::sim::ParallelExplorer>(
        *p.proto, tsb::sim::ParallelExplorer::Options{
                      .max_configs = spec.explore_cap,
                      .threads = spec.threads});
  }
  return p;
}

JobResult run_job(const Spec& spec, Prepared& prep, std::uint64_t seed,
                  const std::string& work_dir) {
  tsb::obs::Registry& reg = tsb::obs::Registry::global();
  reg.reset();
  MemLedger::global().reset();
  JobResult out;

  if (spec.kind == Spec::Kind::kExplore) {
    out.root = tsb::sim::initial_config(*prep.proto,
                                        inputs_from_seed(spec.n, seed));
    const double c0 = cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    out.explore = prep.explorer->explore(
        out.root, tsb::sim::ProcSet::first_n(spec.n),
        [](const tsb::sim::ConfigView&) { return true; });
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.cpu_s = cpu_seconds() - c0;
    out.configs = out.explore.visited;
    out.explore_stats = prep.explorer->last_run();
    out.dedup_hits = reg.counter("sim.explore.dedup_hits").value();
  } else {
    tsb::bound::SpaceBoundAdversary::Options o;
    o.narrative = true;  // as the CLI runs it
    o.valency_max_configs = spec.valency_cap;
    o.threads = spec.threads;
    const std::string campaign_dir = work_dir + "/campaign";
    const std::string spill_dir = campaign_dir + "/spill";
    const std::string ckpt_dir = campaign_dir + "/checkpoint";
    tsb::util::ckpt::CheckpointService& ckpt =
        tsb::util::ckpt::CheckpointService::global();
    ckpt.reset();
    if (spec.campaign()) {
      fs::remove_all(campaign_dir);
      fs::create_directories(spill_dir);
      o.spill_dir = spill_dir;
      o.spill_threshold_bytes = spec.spill_threshold;
      o.spill_seg_configs = spec.spill_seg_configs;
      o.checkpoint_dir = ckpt_dir;
      o.checkpoint_every = spec.checkpoint_every;
    }
    tsb::bound::SpaceBoundAdversary adversary(*prep.proto, o);
    const double c0 = cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    out.adversary = adversary.run();
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.cpu_s = cpu_seconds() - c0;
    out.configs = out.adversary.reach_graph_nodes;
    out.expansions = out.adversary.reach_expanded;
    out.ckpt_count = ckpt.checkpoints_written();
    out.ckpt_bytes = ckpt.bytes_written();
    out.ckpt_write_s = static_cast<double>(ckpt.write_ms_total()) / 1e3;
    if (spec.campaign()) {
      // The committed checkpoint must be loadable: a CRC-checked manifest
      // naming a state file of the size the writer reported last.
      try {
        const tsb::util::ckpt::Manifest m = tsb::util::ckpt::Manifest::load(
            tsb::util::ckpt::manifest_path(ckpt_dir));
        out.ckpt_last_state_bytes = fs::file_size(
            tsb::util::ckpt::state_path(ckpt_dir, m.get_u64("generation")));
        out.ckpt_manifest_ok = m.get_u64("generation") == out.ckpt_count;
      } catch (const std::exception&) {
        out.ckpt_manifest_ok = false;
      }
      fs::remove_all(campaign_dir);
    }
    ckpt.reset();
  }
  out.steps = reg.counter("sim.steps.read").value() +
              reg.counter("sim.steps.write").value() +
              reg.counter("sim.steps.swap").value();
  if (spec.kind == Spec::Kind::kExplore) out.expansions = out.steps;
  const MemLedger& led = MemLedger::global();
  out.spilled_bytes = led.peak(MemAccount::kArenaSpill) +
                      led.peak(MemAccount::kGraphSpill);
  return out;
}

void check_job(const Spec& spec, const Prepared& prep, const JobResult& job,
               std::uint64_t seed, bool doctor, Gate& gate,
               double* replay_ms) {
  const tsb::sim::Protocol& proto = *prep.proto;
  if (spec.kind == Spec::Kind::kAdversary) {
    const auto& r = job.adversary;
    gate.check(r.ok, "adversary construction: " +
                         (r.error.empty() ? std::string("not ok") : r.error));
    tsb::bound::CoveringCertificate cert = r.certificate;
    if (doctor && !cert.covering.empty()) cert.covering.pop_back();
    const auto t0 = std::chrono::steady_clock::now();
    const tsb::bound::CertificateCheck chk =
        tsb::bound::check_certificate(proto, cert);
    *replay_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    gate.check(chk.ok, "certificate replay: " + chk.error);
    gate.check(chk.distinct_registers == spec.n - 1,
               "certificate covers " + std::to_string(chk.distinct_registers) +
                   " distinct registers, want n-1 = " +
                   std::to_string(spec.n - 1));
    if (spec.campaign()) {
      gate.check(job.ckpt_count >= 1, "campaign wrote no checkpoint");
      gate.check(job.ckpt_manifest_ok && job.ckpt_last_state_bytes > 0,
                 "campaign checkpoint not committed");
      gate.check(job.spilled_bytes > 0, "campaign never spilled");
    }
    return;
  }

  const tsb::sim::ParallelExplorer& ex = *prep.explorer;
  gate.check(job.explore.truncated && !job.explore.aborted &&
                 job.explore.visited == spec.explore_cap,
             "explore visited " + std::to_string(job.explore.visited) +
                 ", want the cap " + std::to_string(spec.explore_cap));
  // Seeded witnesses replay through the engine to the configuration the
  // explorer stored under that id.
  tsb::util::Rng rng(seed ^ 0x77697473ull);
  bool replay_ok = true;
  for (int i = 0; i < 64 && job.explore.visited > 0; ++i) {
    const auto id =
        static_cast<tsb::sim::ConfigId>(rng.below(job.explore.visited));
    const auto w = ex.witness_by_id(id);
    replay_ok &= w.has_value() &&
                 tsb::sim::run(proto, job.root, *w) ==
                     ex.view(id).materialize();
  }
  gate.check(replay_ok, "explore witness replay mismatch");
  // Every visited configuration is distinct.
  tsb::sim::ConfigArena fresh(proto.num_processes(), proto.num_registers());
  std::size_t dups = 0;
  for (std::size_t id = 0; id < job.explore.visited; ++id) {
    const tsb::sim::ConfigView v = ex.view(static_cast<tsb::sim::ConfigId>(id));
    if (!fresh.intern_words(v.states).inserted) ++dups;
  }
  gate.check(dups == 0 && fresh.size() == job.explore.visited,
             "explore re-intern found " + std::to_string(dups) + " duplicates");
}

std::vector<std::pair<std::string, std::string>> exact_counts(
    const Spec& spec, const JobResult& job) {
  std::vector<std::pair<std::string, std::string>> kv;
  auto num = [&](const char* k, std::uint64_t v) {
    kv.emplace_back(k, std::to_string(v));
  };
  if (spec.kind == Spec::Kind::kExplore) {
    num("explore.visited", job.explore.visited);
    return kv;
  }
  const auto& r = job.adversary;
  kv.emplace_back("cert.digest", hex(certificate_digest(r.certificate)));
  num("bound.cert.steps", r.certificate.schedule.size());
  num("sim.reach.expanded", r.reach_expanded);
  num("sim.reach.reused", r.reach_reused);
  num("sim.reach.nodes", r.reach_graph_nodes);
  num("bound.valency.queries", r.valency_queries);
  num("bound.valency.cache_hits", r.valency_cache_hits);
  if (spec.campaign()) {
    num("util.ckpt.count", job.ckpt_count);
    num("util.ckpt.bytes", job.ckpt_bytes);
  }
  return kv;
}

std::vector<Value> harvest(const Spec& spec, const Prepared& prep,
                           const JobResult& job, std::uint64_t seed) {
  const tsb::sim::Protocol& proto = *prep.proto;
  const std::size_t W =
      static_cast<std::size_t>(proto.num_processes() + proto.num_registers());
  constexpr std::size_t kHarvest = 65536;
  std::vector<Value> out;
  out.reserve(kHarvest * W);
  auto take = [&](const tsb::sim::ConfigView& v) {
    // states and regs are adjacent in the packed layout.
    out.insert(out.end(), v.states, v.states + W);
  };
  if (spec.kind == Spec::Kind::kExplore) {
    // A seeded window of the explorer's own ids (discovery order).
    const std::size_t n = job.explore.visited;
    const std::size_t len = std::min(n, kHarvest);
    tsb::util::Rng rng(seed ^ 0x68617276ull);
    const std::size_t start = n > len ? rng.below(n - len + 1) : 0;
    for (std::size_t id = start; id < start + len; ++id) {
      take(prep.explorer->view(static_cast<tsb::sim::ConfigId>(id)));
    }
    return out;
  }
  // Adversary: the configurations reachable from the certificate's initial
  // configuration, in BFS order — the space the valency passes walk.
  const tsb::sim::Config init =
      tsb::sim::initial_config(proto, job.adversary.certificate.inputs);
  tsb::sim::Explorer ex(proto, {.max_configs = kHarvest});
  ex.explore(init, tsb::sim::ProcSet::first_n(proto.num_processes()),
             [&](const tsb::sim::ConfigView& v) {
               take(v);
               return true;
             });
  return out;
}

}  // namespace perfbench
