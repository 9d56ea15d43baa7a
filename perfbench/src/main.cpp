// tsb_perfbench — the repository benchmark's measuring program.
//
//   tsb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--state-dir DIR] [--work-dir DIR] [--doctor-certificate]
//   tsb_perfbench --workload NAME --setup-only
//
// Workloads: adversary-6, explore-5, campaign-6 (BENCHMARK.json) and the
// n = 4 smoke variants adversary-4, explore-4, campaign-4.
//
// --trace 0 runs the workload's job back to back until S seconds have
// passed (at least once), checks every output, and ends with one JSON line
// of end-to-end metrics (medians over the jobs). --trace 1 runs the job
// once with the library's spans, registry, memory ledger and a CPU
// sampler switched on, runs the layer probes, prints the per-layer
// self-time table, and ends with one JSON line of per-layer metrics.
// --setup-only builds what a job needs, prints `setup_done_ns=<CLOCK_
// MONOTONIC ns>` and exits; run.py times process start to that point.
//
// --state-dir keeps, per build, each workload's exact counts (a later run
// that disagrees is a failure), the resident adversary's certificate a
// campaign must reproduce, and the untraced wall times the traced run's
// overhead is taken against. Exit status: 0 when every check passed, 1
// when any failed (the JSON line is still printed), 2 on usage errors.
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "obs/memledger.hpp"
#include "obs/trace_sink.hpp"
#include "sampler.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string state_dir;
  std::string work_dir = ".bench_build/perfbench-work";
  bool setup_only = false;
  bool doctor = false;
};

int usage(const std::string& why) {
  std::cerr << "tsb_perfbench: " << why
            << "\nusage: tsb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--state-dir DIR] [--work-dir DIR] "
               "[--doctor-certificate]\n"
               "       tsb_perfbench --workload NAME --setup-only\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) {
        err = k + " needs a value";
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--doctor-certificate") {
      a.doctor = true;
    } else if (k == "--workload") {
      if (!value(a.workload)) return false;
    } else if (k == "--state-dir") {
      if (!value(a.state_dir)) return false;
    } else if (k == "--work-dir") {
      if (!value(a.work_dir)) return false;
    } else if (k == "--seed" || k == "--seconds" || k == "--trace") {
      if (!value(v)) return false;
      char* end = nullptr;
      errno = 0;
      if (k == "--seconds") {
        a.seconds = std::strtod(v.c_str(), &end);
      } else {
        const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
        if (k == "--seed") a.seed = x;
        if (k == "--trace") a.trace = x > 1 ? -1 : static_cast<int>(x);
      }
      if (errno != 0 || end == v.c_str() || *end != '\0') {
        err = "bad value for " + k + ": " + v;
        return false;
      }
    } else {
      err = "unknown argument " + k;
      return false;
    }
  }
  if (a.workload.empty()) err = "--workload is required";
  if (!a.setup_only && a.trace < 0) err = "--trace must be 0 or 1";
  if (a.seconds < 0) err = "--seconds must be >= 0";
  return err.empty();
}

double median(std::vector<double> v) {
  return tsb::util::percentile(std::move(v), 50);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Metrics in print order with their units.
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> rows;
  void add(const std::string& name, double v, const std::string& unit) {
    rows.emplace_back(name, v, unit);
  }
};

void print_result(const Gate& gate, const Metrics& m) {
  std::ostringstream o;
  o << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << gate.attempted << ", \"failed\": " << gate.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v, unit] : m.rows) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << json_number(v) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

void print_table(const Metrics& m) {
  for (const auto& [name, v, unit] : m.rows) {
    std::printf("  %-34s %16.6g %s\n", name.c_str(), v, unit.c_str());
  }
}

// --- per-build state ------------------------------------------------------

using KV = std::vector<std::pair<std::string, std::string>>;

bool read_kv(const std::string& path, std::map<std::string, std::string>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return true;
}

void write_kv(const std::string& path, const KV& kv) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const auto& [k, v] : kv) out << k << "=" << v << "\n";
  }
  fs::rename(tmp, path);
}

/// Steadiness self-check: the job's exact counts must equal what earlier
/// runs of this build recorded (the first run records them).
void check_exact(const std::string& state_dir, const Spec& spec,
                 const JobResult& job, Gate& gate) {
  const KV now = exact_counts(spec, job);
  const std::string path = state_dir + "/exact-" + spec.name + ".txt";
  std::map<std::string, std::string> before;
  if (!read_kv(path, before)) {
    write_kv(path, now);
    return;
  }
  for (const auto& [k, v] : now) {
    const auto it = before.find(k);
    gate.check(it != before.end() && it->second == v,
               "exact count " + k + " drifted: " + v + " vs recorded " +
                   (it == before.end() ? "(none)" : it->second));
  }
}

/// Out of core is a memory plan, not a change in semantics: a campaign
/// must reproduce its resident twin's certificate, expanded and nodes.
void check_twin(const std::string& state_dir, const Spec& spec,
                const JobResult& job, Gate& gate) {
  if (!spec.campaign()) return;
  std::map<std::string, std::string> twin;
  const bool have = read_kv(
      state_dir + "/exact-" + spec.resident_twin() + ".txt", twin);
  gate.check(have, "no recorded " + spec.resident_twin() +
                       " result to compare the campaign against");
  if (!have) return;
  for (const auto& [k, v] : exact_counts(spec, job)) {
    if (k != "cert.digest" && k != "bound.cert.steps" &&
        k != "sim.reach.expanded" && k != "sim.reach.nodes") {
      continue;
    }
    gate.check(twin[k] == v, "campaign " + k + " " + v + " differs from " +
                                 spec.resident_twin() + "'s " + twin[k]);
  }
}

std::vector<double> read_walls(const std::string& path) {
  std::vector<double> out;
  std::ifstream in(path);
  double v = 0;
  while (in >> v) out.push_back(v);
  return out;
}

void report_failures(const Gate& gate) {
  for (const std::string& f : gate.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
}

// --- --trace 0 ------------------------------------------------------------

int run_untraced(const Args& a, const Spec& spec) {
  Gate gate;
  std::vector<double> walls, exp_rate, cfg_rate, disk;
  double peak_rss_mib = 0;
  double replay_ms = 0;
  const auto t_start = std::chrono::steady_clock::now();
  do {
    // Fresh engine objects per job: every job pays the cold start a user's
    // run pays, instead of reusing the previous job's warm allocations.
    Prepared prep = prepare(spec);
    const JobResult job = run_job(spec, prep, a.seed, a.work_dir);
    if (walls.empty()) {
      // Before the correctness checks allocate their own memory.
      peak_rss_mib = static_cast<double>(tsb::obs::peak_rss_kb()) / 1024.0;
    }
    check_job(spec, prep, job, a.seed, a.doctor, gate, &replay_ms);
    check_exact(a.state_dir, spec, job, gate);
    check_twin(a.state_dir, spec, job, gate);
    walls.push_back(job.wall_s);
    exp_rate.push_back(static_cast<double>(job.expansions) / job.wall_s);
    cfg_rate.push_back(static_cast<double>(job.configs) / job.wall_s);
    disk.push_back(static_cast<double>(job.spilled_bytes + job.ckpt_bytes) /
                   kMiB);
    std::cout << "job " << walls.size() << ": " << job.wall_s << " s\n";
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
               .count() < a.seconds);
  {
    std::ofstream rec(a.state_dir + "/walls-" + spec.name + ".txt",
                      std::ios::app);
    for (double w : walls) rec << json_number(w) << "\n";
  }

  Metrics m;
  m.add("wall_s", median(walls), "s");
  m.add("expansions_per_s", median(exp_rate), "1/s");
  m.add("configs_per_s", median(cfg_rate), "1/s");
  m.add("peak_rss_mib", peak_rss_mib, "MiB");
  const double fail_rate =
      static_cast<double>(gate.failed) / std::max(1, gate.attempted);
  std::cout << "\n" << spec.name << " (seed " << a.seed << ", " << walls.size()
            << " job(s)) end-to-end, tracing off:\n";
  print_table(m);
  // Reported but not gated: zero on resident workloads / on a clean run.
  Metrics extra;
  extra.add("disk_written_mib", median(disk), "MiB");
  extra.add("fail_rate", fail_rate, "ratio");
  print_table(extra);
  std::cout << "  (setup_s is measured by run.py across process starts)\n";
  report_failures(gate);
  print_result(gate, m);
  return gate.failed == 0 ? 0 : 1;
}

// --- --trace 1 ------------------------------------------------------------

struct SpanStats {
  std::vector<double> query_ms;
  double pool_round_s = 0;  ///< caller-side "par.steal" spans around pool.run
  double pool_task_s = 0;   ///< worker-side "pool.task" spans
};

SpanStats collect_spans() {
  SpanStats s;
  const tsb::obs::TraceSink& sink = tsb::obs::TraceSink::global();
  for (const tsb::obs::TraceEvent& ev : sink.snapshot()) {
    if (ev.ph != tsb::obs::Ph::kComplete) continue;
    const double d = static_cast<double>(ev.dur_ns);
    if (std::strcmp(ev.name, "valency.query") == 0) {
      s.query_ms.push_back(d / 1e6);
    } else if (std::strcmp(ev.name, "par.steal") == 0) {
      s.pool_round_s += d / 1e9;
    } else if (std::strcmp(ev.name, "pool.task") == 0) {
      s.pool_task_s += d / 1e9;
    }
  }
  return s;
}

int run_traced(const Args& a, const Spec& spec) {
  Gate gate;
  double replay_ms = 0;

  // The untraced reference: this build's recorded --trace 0 jobs, or one
  // untraced job now when none are recorded yet. That job gets its own
  // set-up, so the traced job starts from fresh engine objects just as a
  // --trace 0 job does.
  std::vector<double> ref =
      read_walls(a.state_dir + "/walls-" + spec.name + ".txt");
  if (ref.empty()) {
    Prepared cold = prepare(spec);
    const JobResult u = run_job(spec, cold, a.seed, a.work_dir);
    check_job(spec, cold, u, a.seed, a.doctor, gate, &replay_ms);
    check_exact(a.state_dir, spec, u, gate);
    check_twin(a.state_dir, spec, u, gate);
    ref.push_back(u.wall_s);
  }
  const double untraced_wall = median(ref);
  Prepared prep = prepare(spec);

  tsb::obs::TraceSink::global().enable(1 << 18);
  Sampler sampler;
  const bool sampling = sampler.start(/*period_us=*/1000, std::size_t{1} << 18);
  const JobResult job = run_job(spec, prep, a.seed, a.work_dir);
  sampler.stop();
  const SpanStats spans = collect_spans();
  tsb::obs::TraceSink::global().disable();
  gate.check(sampling, "CPU sampler failed to start");

  const tsb::obs::MemLedger& led = tsb::obs::MemLedger::global();
  std::vector<std::pair<std::string, double>> ledger_peaks;
  for (int i = 0; i < tsb::obs::kMemAccounts; ++i) {
    const auto acc = static_cast<tsb::obs::MemAccount>(i);
    ledger_peaks.emplace_back(tsb::obs::mem_account_name(acc),
                              static_cast<double>(led.peak(acc)) / kMiB);
  }
  const std::uint64_t arena_peak =
      spec.kind == Spec::Kind::kExplore
          ? led.peak(tsb::obs::MemAccount::kArenaWords) +
                led.peak(tsb::obs::MemAccount::kArenaTable)
          : led.peak(tsb::obs::MemAccount::kReachNodes);

  check_job(spec, prep, job, a.seed, a.doctor, gate, &replay_ms);
  check_exact(a.state_dir, spec, job, gate);
  check_twin(a.state_dir, spec, job, gate);

  LayerCosts costs;
  try {
    costs = run_layer_probes(*prep.proto, harvest(spec, prep, job, a.seed),
                              a.seed, a.work_dir + "/probes");
    gate.check(true, "layer probes");
  } catch (const std::exception& e) {
    gate.check(false, e.what());
  }
  fs::remove_all(a.work_dir + "/probes");

  // Self-time table: CPU samples charged to their innermost library frame,
  // each worth min(cpu, wall)/ticks seconds of the traced wall clock; what
  // no row claims (off-CPU waits, non-library frames) is `other`.
  const std::map<std::string, std::uint64_t> samples = sampler.layer_samples();
  const double per_sample =
      sampler.ticks() ? std::min(job.cpu_s, job.wall_s) /
                            static_cast<double>(sampler.ticks())
                      : 0;
  std::vector<std::pair<std::string, double>> self;
  double attributed = 0;
  for (const std::string& row : layer_rows()) {
    if (row == "other") continue;
    const auto it = samples.find(row);
    const double s =
        it == samples.end() ? 0 : static_cast<double>(it->second) * per_sample;
    self.emplace_back(row, s);
    attributed += s;
  }
  const double other = job.wall_s - attributed;
  self.emplace_back("other", std::abs(other) < 1e-9 ? 0 : other);

  const auto& r = job.adversary;
  const double reach_total =
      static_cast<double>(r.reach_expanded + r.reach_reused);
  // Worker time inside pool rounds not spent in a task: waiting for the
  // round's stragglers and for wake-up. (A "pool.wait" span only closes at
  // the next round, after the traced job, so the complement is measured.)
  const double pool_s = spans.pool_round_s * spec.threads;
  const double explore_chunks = static_cast<double>(job.explore_stats.chunks);

  Metrics m;
  m.add("traced_wall_s", job.wall_s, "s");
  m.add("bound.valency.queries", static_cast<double>(r.valency_queries),
        "count");
  m.add("bound.valency.cache_hit_rate",
        r.valency_queries ? static_cast<double>(r.valency_cache_hits) /
                                static_cast<double>(r.valency_queries)
                          : 0,
        "ratio");
  m.add("bound.cert.replay_ms", replay_ms, "ms");
  m.add("bound.cert.steps", static_cast<double>(r.certificate.schedule.size()),
        "count");
  double query_s = 0;
  for (double q : spans.query_ms) query_s += q / 1e3;
  m.add("sim.reach.query_s", query_s, "s");
  m.add("sim.reach.query_p50_ms", median(spans.query_ms), "ms");
  m.add("sim.reach.query_max_ms",
        spans.query_ms.empty()
            ? 0
            : *std::max_element(spans.query_ms.begin(), spans.query_ms.end()),
        "ms");
  m.add("sim.reach.query_spans", static_cast<double>(spans.query_ms.size()),
        "count");
  m.add("sim.reach.expanded", static_cast<double>(r.reach_expanded), "count");
  m.add("sim.reach.reused", static_cast<double>(r.reach_reused), "count");
  m.add("sim.reach.reuse_rate",
        reach_total ? static_cast<double>(r.reach_reused) / reach_total : 0,
        "ratio");
  m.add("sim.reach.nodes", static_cast<double>(r.reach_graph_nodes), "count");
  m.add("sim.engine.step_ns", costs.step.ns_per_call, "ns");
  m.add("sim.engine.step_calls", static_cast<double>(costs.step.calls),
        "count");
  m.add("sim.engine.steps", static_cast<double>(job.steps), "count");
  m.add("sim.arena.hash_ns", costs.hash.ns_per_call, "ns");
  m.add("sim.arena.hash_calls", static_cast<double>(costs.hash.calls), "count");
  m.add("sim.arena.intern_ns", costs.intern.ns_per_call, "ns");
  m.add("sim.arena.intern_calls", static_cast<double>(costs.intern.calls),
        "count");
  m.add("sim.arena.hit_ns", costs.hit.ns_per_call, "ns");
  m.add("sim.arena.hit_calls", static_cast<double>(costs.hit.calls), "count");
  m.add("sim.arena.bytes_per_config",
        job.configs ? static_cast<double>(arena_peak) /
                          static_cast<double>(job.configs)
                    : 0,
        "B");
  m.add("sim.explore.steals", static_cast<double>(job.explore_stats.steals),
        "count");
  m.add("sim.explore.chunks", explore_chunks, "count");
  m.add("sim.explore.configs_per_chunk",
        explore_chunks
            ? static_cast<double>(job.explore.visited) / explore_chunks
            : 0,
        "ratio");
  m.add("sim.explore.idle_spins",
        static_cast<double>(job.explore_stats.idle_spins), "count");
  m.add("sim.explore.dedup_hits", static_cast<double>(job.dedup_hits), "count");
  m.add("util.pool.wait_share",
        pool_s > 0 ? std::max(0.0, 1 - spans.pool_task_s / pool_s) : 0,
        "ratio");
  m.add("util.spill.spilled_mib", static_cast<double>(job.spilled_bytes) / kMiB,
        "MiB");
  m.add("util.spill.encode_mb_s", costs.encode_mb_s, "MB/s");
  m.add("util.spill.encode_records", static_cast<double>(costs.encode_records),
        "count");
  m.add("util.spill.decode_ns", costs.decode.ns_per_call, "ns");
  m.add("util.spill.decode_calls", static_cast<double>(costs.decode.calls),
        "count");
  m.add("util.spill.bytes_per_record", costs.bytes_per_record, "B");
  m.add("util.ckpt.count", static_cast<double>(job.ckpt_count), "count");
  m.add("util.ckpt.bytes", static_cast<double>(job.ckpt_bytes), "B");
  m.add("util.ckpt.write_s", job.ckpt_write_s, "s");
  m.add("util.ckpt.write_mb_s", costs.commit_mb_s, "MB/s");
  m.add("util.ckpt.commit_bytes", static_cast<double>(costs.commit_bytes), "B");
  m.add("obs.trace_overhead_pct",
        untraced_wall > 0 ? (job.wall_s / untraced_wall - 1) * 100 : 0, "%");
  m.add("obs.sampler.ticks", static_cast<double>(sampler.ticks()), "count");
  for (const auto& [acct, mib] : ledger_peaks) {
    m.add("obs.ledger.peak." + acct, mib, "MiB");
  }
  for (const auto& [row, s] : self) m.add("self_s." + row, s, "s");
  m.add("disk_written_mib",
        static_cast<double>(job.spilled_bytes + job.ckpt_bytes) / kMiB, "MiB");
  m.add("fail_rate",
        static_cast<double>(gate.failed) / std::max(1, gate.attempted),
        "ratio");

  std::cout << "\n" << spec.name << " (seed " << a.seed
            << ") traced run: wall " << job.wall_s << " s (untraced "
            << untraced_wall << " s over " << ref.size() << " job(s)), cpu "
            << job.cpu_s << " s, " << sampler.ticks() << " samples\n\n";
  std::cout << "self time by layer (sums to the traced wall_s):\n";
  double total = 0;
  for (const auto& [row, s] : self) {
    std::printf("  %-20s %10.3f s %6.1f%%\n", row.c_str(), s,
                job.wall_s > 0 ? 100 * s / job.wall_s : 0);
    total += s;
  }
  std::printf("  %-20s %10.3f s\n", "total", total);
  std::printf("  (of other: %.3f s off-CPU or unsampled)\n\n",
              std::max(0.0, job.wall_s - std::min(job.cpu_s, job.wall_s)));
  std::cout << "per-layer metrics:\n";
  print_table(m);
  report_failures(gate);
  print_result(gate, m);
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parse_args(argc, argv, a, err)) return usage(err);
  const Spec* spec = find_spec(a.workload);
  if (spec == nullptr) return usage("unknown workload " + a.workload);
  if (a.setup_only) {
    Prepared prep = prepare(*spec);
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    std::cout << "setup_done_ns="
              << static_cast<long long>(ts.tv_sec) * 1'000'000'000LL +
                     ts.tv_nsec
              << std::endl;
    return 0;
  }
  if (a.state_dir.empty()) a.state_dir = a.work_dir + "/state";
  fs::create_directories(a.state_dir);
  fs::create_directories(a.work_dir);
  try {
    return a.trace == 0 ? run_untraced(a, *spec) : run_traced(a, *spec);
  } catch (const std::exception& e) {
    std::cerr << "tsb_perfbench: " << e.what() << "\n";
    return 1;
  }
}
