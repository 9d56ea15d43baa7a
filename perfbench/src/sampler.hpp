#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Rows of the per-layer self-time table, in print order. A row is a CMake
/// module of the library (tsb_bound, tsb_sim, tsb_util, tsb_obs) or a
/// sub-layer named after its source file; tsb_consensus folds into
/// sim.engine because the protocol's poised/after_* calls run under
/// apply_op. "other" collects everything no row claims: samples with no
/// library frame, the off-CPU part of the wall clock, and dropped samples.
const std::vector<std::string>& layer_rows();

/// Row for one mangled function symbol, or "" when the symbol is not
/// library code (std::, libc, the benchmark harness).
std::string layer_of_symbol(const char* mangled);

/// CPU-time sampling profiler for the traced run. SIGPROF fires every
/// `period_us` of process CPU time (all threads); the handler stores the
/// interrupted PC plus a short unwound stack. After stop(), every sample is
/// charged to the innermost frame that belongs to library code, so time in
/// libc (memset from a table resize, write from a checkpoint) lands on the
/// library function that called it. Nothing inside src/ is touched.
///
/// One sampling session per process (a second start() returns false); the
/// handler stays installed (as SIG_IGN after stop) so a late tick can never
/// hit the default terminate action.
class Sampler {
 public:
  Sampler() = default;
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  bool start(int period_us, std::size_t max_samples);
  void stop();

  /// Samples per layer row (only rows with samples), after stop().
  std::map<std::string, std::uint64_t> layer_samples() const;
  /// Ticks taken, including ones that found the buffer full.
  std::uint64_t ticks() const { return ticks_; }

 private:
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  std::vector<std::uintptr_t> pcs_;
  std::vector<std::uint8_t> depth_;
};

}  // namespace perfbench
