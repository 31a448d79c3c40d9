// The benchmark's workloads. Each is a fixed list of experiments run back
// to back on one thread (a batch, not a server: no arrival process and no
// --jobs). README.md records why each exists and which layer it loads.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace fela::perfbench {

struct Workload {
  std::string name;
  /// Runs one pass. `seed` draws whatever inputs the workload randomizes;
  /// `tiny` shrinks it to a seconds-long configuration for the self-check.
  void (*run)(Pass& pass, uint64_t seed, bool tiny);
  /// Experiments (Engine::Run calls) one pass runs. A pass whose process
  /// dies counts this many as attempted and failed.
  int (*experiments)(bool tiny);
};

const std::vector<Workload>& Workloads();

}  // namespace fela::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
