#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/spill_store.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using tsb::sim::Value;
using Clock = std::chrono::steady_clock;

volatile Value g_sink = 0;

constexpr int kMinPasses = 7;
constexpr double kMinSeconds = 0.15;

/// Median ns per call over at least kMinPasses passes and kMinSeconds of
/// timed work. `pass` performs one pass and returns the calls it made.
template <class Pass>
CallCost time_calls(Pass&& pass) {
  std::vector<double> per_call;
  CallCost out;
  double total = 0;
  while (static_cast<int>(per_call.size()) < kMinPasses ||
         total < kMinSeconds) {
    const auto t0 = Clock::now();
    const std::uint64_t calls = pass();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    total += s;
    out.calls += calls;
    per_call.push_back(calls ? s * 1e9 / static_cast<double>(calls) : 0);
  }
  out.ns_per_call = tsb::util::percentile(std::move(per_call), 50);
  return out;
}

double median(std::vector<double> v) {
  return tsb::util::percentile(std::move(v), 50);
}

}  // namespace

LayerCosts run_layer_probes(const tsb::sim::Protocol& proto,
                             const std::vector<Value>& harvest,
                             std::uint64_t seed,
                             const std::string& scratch_dir) {
  const int n = proto.num_processes();
  const int m = proto.num_registers();
  const std::size_t W = static_cast<std::size_t>(n + m);
  const std::size_t configs = harvest.size() / W;
  if (configs < tsb::util::spill::kGroupRecords) {
    throw std::runtime_error("layer probes: harvest too small");
  }
  LayerCosts out;
  tsb::util::Rng rng(seed ^ 0x6c61796572ull);

  // Seeded sample of distinct harvested configurations, packed.
  const std::size_t sample_n = std::min<std::size_t>(configs, 16384);
  std::vector<std::size_t> ids(configs);
  for (std::size_t i = 0; i < configs; ++i) ids[i] = i;
  rng.shuffle(ids);
  ids.resize(sample_n);
  std::vector<Value> sample(sample_n * W);
  for (std::size_t i = 0; i < sample_n; ++i) {
    std::copy_n(harvest.begin() + static_cast<std::ptrdiff_t>(ids[i] * W), W,
                sample.begin() + static_cast<std::ptrdiff_t>(i * W));
  }

  // sim.engine: apply_op for every live process of every sampled config,
  // on a fresh copy of the configuration's words.
  struct Op {
    std::size_t cfg;
    tsb::sim::ProcId p;
    tsb::sim::PendingOp op;
  };
  std::vector<Op> ops;
  for (std::size_t i = 0; i < sample_n; ++i) {
    for (int p = 0; p < n; ++p) {
      const tsb::sim::PendingOp op =
          proto.poised(p, sample[i * W + static_cast<std::size_t>(p)]);
      if (!op.is_decide()) ops.push_back({i, p, op});
    }
  }
  std::vector<Value> scratch(W);
  Value sink = 0;
  out.step = time_calls([&] {
    for (const Op& o : ops) {
      std::copy_n(sample.begin() + static_cast<std::ptrdiff_t>(o.cfg * W), W,
                  scratch.begin());
      sink += tsb::sim::apply_op(proto, o.op, o.p, scratch.data(),
                                 scratch.data() + n);
    }
    return static_cast<std::uint64_t>(ops.size());
  });

  // sim.arena: hash, fresh intern (table growth included), and hit probes.
  {
    tsb::sim::ConfigArena probe(n, m);
    std::uint64_t h = 0;
    out.hash = time_calls([&] {
      for (std::size_t i = 0; i < sample_n; ++i) {
        h ^= probe.hash_words(sample.data() + i * W);
      }
      return static_cast<std::uint64_t>(sample_n);
    });
    sink += static_cast<Value>(h & 1);
  }
  // Each pass interns the sample into a fresh arena, then probes it again;
  // the two halves are timed separately.
  std::vector<double> intern_ns;
  std::vector<double> hit_ns;
  bool all_inserted = true;
  bool all_found = true;
  double timed = 0;
  while (static_cast<int>(intern_ns.size()) < kMinPasses ||
         timed < kMinSeconds) {
    tsb::sim::ConfigArena arena(n, m);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < sample_n; ++i) {
      all_inserted &= arena.intern_words(sample.data() + i * W).inserted;
    }
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < sample_n; ++i) {
      all_found &= arena.find(sample.data() + i * W) ==
                   static_cast<tsb::sim::ConfigId>(i);
    }
    const auto t2 = Clock::now();
    const auto per_call = [&](Clock::duration d) {
      return std::chrono::duration<double, std::nano>(d).count() /
             static_cast<double>(sample_n);
    };
    intern_ns.push_back(per_call(t1 - t0));
    hit_ns.push_back(per_call(t2 - t1));
    timed += std::chrono::duration<double>(t2 - t0).count();
  }
  if (!all_inserted || !all_found) {
    throw std::runtime_error("layer probes: arena lost a sampled config");
  }
  out.intern = {median(intern_ns), intern_ns.size() * sample_n};
  out.hit = {median(hit_ns), hit_ns.size() * sample_n};

  // util.spill: encode contiguous runs in exploration order (the order the
  // arena's segments spill in), decode seeded random records.
  const std::size_t nrecs =
      std::min<std::size_t>(configs, 4096) / tsb::util::spill::kGroupRecords *
      tsb::util::spill::kGroupRecords;
  const std::size_t start_max = configs - nrecs;
  const std::size_t start = start_max ? rng.below(start_max + 1) : 0;
  const Value* recs = harvest.data() + start * W;
  std::vector<std::uint8_t> block;
  std::vector<double> enc_mb_s;
  for (int pass = 0; pass < kMinPasses; ++pass) {
    const auto t0 = Clock::now();
    tsb::util::spill::encode_block<Value>(recs, nrecs, W, block);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    enc_mb_s.push_back(static_cast<double>(nrecs * W * sizeof(Value)) / 1e6 /
                       s);
    out.encode_records += nrecs;
  }
  out.encode_mb_s = median(enc_mb_s);
  out.bytes_per_record =
      static_cast<double>(block.size()) / static_cast<double>(nrecs);
  std::vector<std::size_t> locals(4096);
  for (std::size_t& l : locals) l = rng.below(nrecs);
  std::vector<Value> decoded(W);
  bool roundtrip = true;
  out.decode = time_calls([&] {
    for (std::size_t l : locals) {
      tsb::util::spill::decode_record<Value>(block.data(), l, W,
                                             decoded.data());
      sink += decoded[0];
    }
    return static_cast<std::uint64_t>(locals.size());
  });
  for (std::size_t l : locals) {
    tsb::util::spill::decode_record<Value>(block.data(), l, W, decoded.data());
    roundtrip &= std::equal(decoded.begin(), decoded.end(), recs + l * W);
  }
  if (!roundtrip) {
    throw std::runtime_error("layer probes: spill codec round trip failed");
  }

  // util.ckpt: one durable section commit (write, CRC, fsync, rename) of a
  // 16 MiB payload built from the harvest.
  std::filesystem::create_directories(scratch_dir);
  const std::size_t chunk = harvest.size() * sizeof(Value);
  const std::size_t target = std::size_t{16} << 20;
  std::vector<double> commit_mb_s;
  for (int pass = 0; pass < 3; ++pass) {
    const std::string path =
        scratch_dir + "/commit-" + std::to_string(pass) + ".bin";
    const auto t0 = Clock::now();
    std::uint64_t bytes = 0;
    {
      tsb::util::ckpt::SectionWriter w(path);
      w.begin("perfbench");
      for (std::size_t put = 0; put < target; put += chunk) {
        w.put_bytes(harvest.data(), chunk);
      }
      w.end();
      w.finish();
      bytes = w.bytes_written();
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    commit_mb_s.push_back(static_cast<double>(bytes) / 1e6 / s);
    out.commit_bytes += bytes;
    std::filesystem::remove(path);
  }
  out.commit_mb_s = median(commit_mb_s);

  g_sink = sink;  // the timed loops' results stay observable
  return out;
}

}  // namespace perfbench
