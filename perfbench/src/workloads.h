// The benchmark's workloads and the scenarios each one generates from the
// command-line seed. The program under test receives only these scenarios.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace perfbench {

enum class Engine {
  kLockstep,  ///< Simulator::run()
  kNet,       ///< DistributedRuntime::step() per round
};

struct Workload {
  std::string name;
  Engine engine = Engine::kLockstep;
  /// Distinct scenarios per pass. Per-seed topology moves the deterministic
  /// metrics (throughput, messages per vertex) by several percent at these
  /// sizes; averaging over a pass of independent instances keeps one run's
  /// figures steady across seeds.
  int instances = 1;
  /// Seconds one untraced pass takes on the reference machine (a 4-thread
  /// Xeon VM). A run makes floor(--seconds / pass_seconds) passes,
  /// at least one, so its work is fixed by --seconds and does not shrink
  /// or grow with the speed of the machine or of the code under test.
  double pass_seconds = 1.0;
  /// Scenario text; "@SEED@" is replaced by each instance's seed.
  std::string scenario;
};

const std::vector<Workload>& workloads();

/// Null when no workload has this name.
const Workload* find_workload(const std::string& name);

/// One pass of `w` for command-line seed `seed`: w.instances scenarios with
/// seeds derived from (seed, instance index). Same seed, same scenarios.
std::vector<mhca::scenario::Scenario> make_instances(const Workload& w,
                                                     std::uint64_t seed);

}  // namespace perfbench
