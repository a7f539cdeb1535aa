// Simulation configuration: the solver spec, the run's horizon and
// bookkeeping, and the paper's timing model — each declared once (SolverSpec
// in mwis/mwis.h, RunSpec here, RoundTiming in sim/timing.h) and embedded by
// value, so scenario::Scenario and SimulationConfig share the same structs.
#pragma once

#include <cstdint>

#include "mwis/mwis.h"
#include "sim/timing.h"

namespace mhca {

/// Horizon / bookkeeping of a single run.
struct RunSpec {
  std::int64_t slots = 1000;  ///< Time horizon n.
  int update_period = 1;      ///< y: strategy refresh every y slots (§V-C).
  std::uint64_t seed = 1;     ///< Drives ε-greedy randomization only.
  /// Record every k-th slot in the series; 0 (the default) = auto,
  /// max(1, slots/100) — so long horizons don't record millions of points.
  /// The Simulator resolves it at construction.
  int series_stride = 0;
  bool count_messages = false;  ///< Tally protocol messages (costs BFS).

  bool operator==(const RunSpec&) const = default;
};

struct SimulationConfig {
  SolverSpec solver;  ///< Strategy-decision oracle.
  RunSpec run;
  RoundTiming timing;
};

}  // namespace mhca
