#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace tsb::obs {

namespace detail {
constinit thread_local int tls_thread_id = -1;

namespace {
std::atomic<int> next_thread_id{0};
}  // namespace

int assign_thread_id() {
  tls_thread_id = next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return tls_thread_id;
}
}  // namespace detail

void set_thread_id(int id) { detail::tls_thread_id = id; }

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) {
    for (const auto& b : s.bucket) n += b.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t t = 0;
  for (const auto& s : shards_) t += s.sum.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t Histogram::count_in_bucket(int b) const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) {
    n += s.bucket[b].load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Histogram::percentile_upper(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  // Rank of the p-th percentile sample, 1-based, clamped to [1, n].
  std::uint64_t rank = static_cast<std::uint64_t>(p / 100.0 * n + 0.5);
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += count_in_bucket(b);
    if (seen >= rank) return bucket_hi(b);
  }
  return bucket_hi(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& s : shards_) {
    for (auto& b : s.bucket) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  // Intentionally leaked: metrics are flushed from destructors of
  // arbitrary-lifetime objects, and a registry that dies at static
  // destruction would leave them dangling references.
  static Registry* r = new Registry;
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Registry::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c->value();
    if (v == 0) continue;
    out << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (g->value() == 0 && g->max() == 0) continue;
    out << (first ? "" : ",") << '"' << name << "\":{\"last\":" << g->value()
        << ",\"max\":" << g->max() << '}';
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const std::uint64_t n = h->count();
    if (n == 0) continue;
    out << (first ? "" : ",") << '"' << name << "\":{\"count\":" << n
        << ",\"sum\":" << h->sum() << ",\"mean\":"
        << static_cast<double>(h->sum()) / static_cast<double>(n)
        << ",\"p50_le\":" << h->percentile_upper(50)
        << ",\"p99_le\":" << h->percentile_upper(99) << '}';
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Registry::counters_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c->value();
    if (v == 0) continue;
    out << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  out << '}';
  return out.str();
}

std::string Registry::gauges_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, g] : gauges_) {
    const std::int64_t v = g->value();
    if (v == 0) continue;
    out << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  out << '}';
  return out.str();
}

std::int64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
#else
  return 0;
#endif
}

void emit_metrics(const std::string& who) {
  const std::string line =
      "{\"metrics_for\":\"" + who + "\"," + Registry::global().json().substr(1);
  std::cout << line << "\n";
  if (const char* path = std::getenv("TSB_METRICS_OUT")) {
    if (std::FILE* f = std::fopen(path, "a")) {
      std::fputs(line.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
}

}  // namespace tsb::obs
