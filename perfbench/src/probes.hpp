#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/protocol.hpp"

namespace perfbench {

/// One timed public-API call: median cost over several timed passes and the
/// number of calls timed in total.
struct CallCost {
  double ns_per_call = 0;
  std::uint64_t calls = 0;
};

/// Costs of the library entry points the engine layers spend their time in,
/// each timed in isolation over configurations harvested from the workload.
struct LayerCosts {
  CallCost step;    ///< sim::apply_op (poised op of a live process)
  CallCost hash;    ///< ConfigArena::hash_words
  CallCost intern;  ///< ConfigArena::intern_words, fresh inserts + growth
  CallCost hit;     ///< ConfigArena::find on present configurations
  CallCost decode;  ///< util::spill::decode_record
  double encode_mb_s = 0;   ///< util::spill::encode_block, raw MB in per s
  std::uint64_t encode_records = 0;
  double bytes_per_record = 0;  ///< encoded block bytes per record
  double commit_mb_s = 0;   ///< SectionWriter section + finish (fsync+rename)
  std::uint64_t commit_bytes = 0;
};

/// Run every layer probe. `harvest` holds configurations of `proto` packed
/// back to back (words_per_config words each) in exploration order; probes
/// that need a random sample draw it from `seed`. Scratch files go under
/// `scratch_dir` and are removed again.
LayerCosts run_layer_probes(const tsb::sim::Protocol& proto,
                             const std::vector<tsb::sim::Value>& harvest,
                             std::uint64_t seed,
                             const std::string& scratch_dir);

}  // namespace perfbench
