#include "sampler.hpp"

#include <elf.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr int kDepth = 16;

// Handler-visible state. The sample buffers are allocated by the one
// start() a process may make and are never freed, so a tick still in
// flight when stop() returns writes into live storage, past the samples
// stop() copied out. start() publishes them with g_active's release store.
std::atomic<bool> g_active{false};
std::atomic<bool> g_started{false};
std::atomic<std::uint64_t> g_next{0};
std::atomic<std::uint64_t> g_done{0};
std::uint64_t g_cap = 0;
std::uintptr_t* g_pcs = nullptr;
std::uint8_t* g_depth = nullptr;

void on_sigprof(int, siginfo_t*, void* ucv) {
  if (!g_active.load(std::memory_order_acquire)) return;
  const int saved_errno = errno;
  const std::uint64_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < g_cap) {
    // backtrace() was called once before the timer started, so the
    // unwinder is loaded; glibc >= 2.35 looks frames up through the
    // lock-free _dl_find_object, which is safe inside a signal handler.
    void* frames[kDepth + 8];
    const int got = backtrace(frames, kDepth + 8);
    const auto* uc = static_cast<const ucontext_t*>(ucv);
    const auto rip =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    std::uintptr_t* out = g_pcs + i * kDepth;
    int k = 0;
    out[k++] = rip;
    int from = got;  // frames above the interrupted one, if found
    for (int j = 0; j < got; ++j) {
      if (reinterpret_cast<std::uintptr_t>(frames[j]) == rip) {
        from = j + 1;
        break;
      }
    }
    for (int j = from; j < got && k < kDepth; ++j) {
      // Return addresses point past the call; step back into it.
      out[k++] = reinterpret_cast<std::uintptr_t>(frames[j]) - 1;
    }
    g_depth[i] = static_cast<std::uint8_t>(k);
    g_done.fetch_add(1, std::memory_order_release);
  }
  errno = saved_errno;
}

/// Function symbols of this executable from its ELF .symtab, relocated to
/// run-time addresses. Static (internal-linkage) functions are included,
/// which dladdr() would miss.
class SymbolTable {
 public:
  SymbolTable() { load(); }

  /// Mangled name of the function containing pc, or nullptr.
  const char* lookup(std::uintptr_t pc) const {
    auto it = std::upper_bound(
        syms_.begin(), syms_.end(), pc,
        [](std::uintptr_t v, const Sym& s) { return v < s.lo; });
    if (it == syms_.begin()) return nullptr;
    --it;
    if (pc >= it->hi) return nullptr;
    return names_.data() + it->name;
  }

 private:
  struct Sym {
    std::uintptr_t lo;
    std::uintptr_t hi;
    std::size_t name;  // offset into names_
  };

  void load() {
    std::uintptr_t base = 0;
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
          *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
          return 1;  // the first object is the main program
        },
        &base);
    const int fd = ::open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;
    struct stat st {};
    if (::fstat(fd, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < sizeof(Elf64_Ehdr)) {
      ::close(fd);
      return;
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) return;
    const auto* bytes = static_cast<const std::uint8_t*>(map);
    Elf64_Ehdr eh;
    std::memcpy(&eh, bytes, sizeof eh);
    const bool sane = std::memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 &&
                      eh.e_ident[EI_CLASS] == ELFCLASS64 &&
                      eh.e_shentsize == sizeof(Elf64_Shdr) &&
                      eh.e_shoff + std::size_t{eh.e_shnum} *
                                           sizeof(Elf64_Shdr) <=
                          size;
    if (sane) {
      auto section = [&](std::size_t i) {
        Elf64_Shdr sh;
        std::memcpy(&sh, bytes + eh.e_shoff + i * sizeof(Elf64_Shdr),
                    sizeof sh);
        return sh;
      };
      for (std::size_t i = 0; i < eh.e_shnum; ++i) {
        const Elf64_Shdr sh = section(i);
        if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= eh.e_shnum) continue;
        const Elf64_Shdr strs = section(sh.sh_link);
        if (sh.sh_offset + sh.sh_size > size ||
            strs.sh_offset + strs.sh_size > size) {
          continue;
        }
        const std::size_t count = sh.sh_size / sizeof(Elf64_Sym);
        for (std::size_t k = 0; k < count; ++k) {
          Elf64_Sym s;
          std::memcpy(&s, bytes + sh.sh_offset + k * sizeof(Elf64_Sym),
                      sizeof s);
          if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
              s.st_shndx == SHN_UNDEF || s.st_name >= strs.sh_size) {
            continue;
          }
          const char* name = reinterpret_cast<const char*>(
              bytes + strs.sh_offset + s.st_name);
          const std::size_t len =
              strnlen(name, strs.sh_size - s.st_name);
          const std::uintptr_t lo = base + s.st_value;
          syms_.push_back({lo, lo + std::max<std::uint64_t>(s.st_size, 1),
                           names_.size()});
          names_.insert(names_.end(), name, name + len);
          names_.push_back('\0');
        }
      }
    }
    ::munmap(map, size);
    std::sort(syms_.begin(), syms_.end(),
              [](const Sym& a, const Sym& b) { return a.lo < b.lo; });
  }

  std::vector<Sym> syms_;
  std::vector<char> names_;
};

/// Length-prefixed source names of a mangled nested name, outermost first:
/// "_ZNK3tsb3sim11ConfigArena4findEPKl" -> {tsb, sim, ConfigArena, find}.
/// Local entities (_ZZ...) yield their enclosing function's components.
std::vector<std::string> nested_components(const char* m) {
  std::vector<std::string> out;
  if (std::strncmp(m, "_Z", 2) != 0) return out;
  m += 2;
  if (*m == 'Z') ++m;
  if (*m != 'N') return out;
  ++m;
  while (*m == 'K' || *m == 'V' || *m == 'r' || *m == 'R' || *m == 'O') ++m;
  while (std::isdigit(static_cast<unsigned char>(*m))) {
    std::size_t len = 0;
    while (std::isdigit(static_cast<unsigned char>(*m))) {
      len = len * 10 + static_cast<std::size_t>(*m - '0');
      ++m;
    }
    if (std::strlen(m) < len) break;
    out.emplace_back(m, len);
    m += len;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& layer_rows() {
  static const std::vector<std::string> rows = {
      "bound.adversary", "bound.lemmas",  "bound.valency", "bound.certificate",
      "sim.reach",       "sim.canonical", "sim.engine",    "sim.arena",
      "sim.explore",     "sim.config",    "util.pool",     "util.spill",
      "util.ckpt",       "util.other",    "obs",           "other"};
  return rows;
}

std::string layer_of_symbol(const char* mangled) {
  const std::vector<std::string> c = nested_components(mangled);
  if (c.size() < 2 || c[0] != "tsb") return "";
  const std::string& mod = c[1];
  const std::string sub = c.size() > 2 ? c[2] : "";
  if (mod == "bound") {
    if (sub == "ValencyOracle") return "bound.valency";
    if (sub == "LemmaToolkit") return "bound.lemmas";
    if (sub == "check_certificate") return "bound.certificate";
    return "bound.adversary";  // adversary.cpp + covering.cpp
  }
  if (mod == "consensus") return "sim.engine";
  if (mod == "sim") {
    if (sub == "ReachGraph") return "sim.reach";
    if (sub == "ConfigArena") return "sim.arena";
    if (sub == "Explorer" || sub == "ParallelExplorer" || sub == "detail") {
      return "sim.explore";
    }
    if (sub == "ProcPerm" || sub == "canonicalize_states" ||
        sub == "refine_procset") {
      return "sim.canonical";
    }
    if (sub == "apply_op" || sub == "step" || sub == "run" ||
        sub == "run_solo" || sub == "all_decided" || sub == "some_decided" ||
        sub == "decided_set" || sub == "PendingOp") {
      return "sim.engine";
    }
    return "sim.config";  // config.cpp, schedule.cpp, the rest of tsb_sim
  }
  if (mod == "util") {
    if (sub == "WorkerPool") return "util.pool";
    if (sub == "spill") return "util.spill";
    if (sub == "ckpt" || sub == "iofault") return "util.ckpt";
    return "util.other";
  }
  if (mod == "obs") return "obs";
  return "";
}

Sampler::~Sampler() { stop(); }

bool Sampler::start(int period_us, std::size_t max_samples) {
  if (g_started.exchange(true)) return false;
  g_pcs = new std::uintptr_t[max_samples * kDepth];
  g_depth = new std::uint8_t[max_samples];
  g_cap = max_samples;
  {
    void* warm[4];
    (void)backtrace(warm, 4);  // load the unwinder outside the handler
  }
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return false;
  g_active.store(true, std::memory_order_release);
  itimerval tv{};
  tv.it_interval.tv_usec = period_us;
  tv.it_value.tv_usec = period_us;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    g_active.store(false);
    return false;
  }
  running_ = true;
  return true;
}

void Sampler::stop() {
  if (!running_) return;
  running_ = false;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_active.store(false);
  // A handler that claimed a slot before the flag dropped finishes its
  // copy; wait for it (bounded) before reading the buffers.
  ticks_ = g_next.load();
  const std::uint64_t kept = std::min(ticks_, g_cap);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (g_done.load(std::memory_order_acquire) < kept &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  pcs_.assign(g_pcs, g_pcs + kept * kDepth);
  depth_.assign(g_depth, g_depth + kept);
}

std::map<std::string, std::uint64_t> Sampler::layer_samples() const {
  static const SymbolTable symbols;
  std::unordered_map<std::uintptr_t, std::string> row_of_pc;
  auto row = [&](std::uintptr_t pc) -> const std::string& {
    auto it = row_of_pc.find(pc);
    if (it != row_of_pc.end()) return it->second;
    const char* name = symbols.lookup(pc);
    return row_of_pc.emplace(pc, name ? layer_of_symbol(name) : "")
        .first->second;
  };
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < depth_.size(); ++i) {
    std::string hit = "other";
    for (int k = 0; k < depth_[i]; ++k) {
      const std::string& r =
          row(pcs_[i * kDepth + static_cast<std::size_t>(k)]);
      if (!r.empty()) {
        hit = r;
        break;
      }
    }
    ++out[hit];
  }
  return out;
}

}  // namespace perfbench
