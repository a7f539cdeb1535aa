// The channel-access simulation engine: Algorithm 2 end to end.
//
// Each slot, the engine (a) at period boundaries recomputes per-arm indices
// from the learning policy and runs the configured MWIS oracle to pick the
// strategy, (b) samples the channel realizations of all transmitting
// vertices, feeds them back into the estimates (eqs. 5-6), and (c) accounts
// effective throughput under the paper's timing model: decision slots only
// realize θ = t_d/t_a of their throughput, the remaining y−1 slots of an
// update period realize all of it (§IV-E, §V-C).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bandit/policy.h"
#include "channel/channel_model.h"
#include "graph/extended_graph.h"
#include "sim/config.h"

namespace mhca::dynamics {
class DynamicNetwork;
}

namespace mhca {

struct SimulationResult {
  // Recorded series (every `series_stride` slots; slot index in `slots`).
  std::vector<std::int64_t> slots;
  std::vector<double> cumavg_effective;   ///< timing-discounted actual
  std::vector<double> cumavg_estimated;   ///< timing-discounted index-sum
  std::vector<double> cumavg_observed;    ///< raw observed (no discount)
  std::vector<double> cum_expected;       ///< Σ true-mean throughput so far

  // Totals.
  std::int64_t total_slots = 0;
  std::int64_t decisions = 0;
  double total_observed = 0.0;
  double total_effective = 0.0;
  double total_expected = 0.0;
  double avg_strategy_size = 0.0;
  std::int64_t total_messages = 0;        ///< if count_messages
  std::int64_t total_mini_timeslots = 0;  ///< if count_messages
  double decision_seconds = 0.0;          ///< wall time in oracle calls
  double theta = 0.5;
  // Incremental maintenance work of the distributed engine (see
  // DistributedRobustPtas::balls_invalidated / size_recounts). 0 on a
  // static graph, under dynamics.incremental = false, and for the
  // centralized solvers.
  std::int64_t balls_invalidated = 0;
  std::int64_t size_recounts = 0;

  // Final learning state (per arm).
  std::vector<double> final_means;
  std::vector<std::int64_t> final_counts;

  // Final strategy of the run.
  std::vector<int> last_strategy;
};

class Simulator {
 public:
  /// All references must outlive the simulator. `dyn`, when given, owns the
  /// (mutable) topology behind `ecg` — it must be the same object `ecg`
  /// refers to — and is advanced between slots: the engine's neighborhood
  /// cache follows the graph by scoped invalidation (or full rebuild when
  /// dyn->incremental() is off), inactive vertices are masked out of every
  /// decision, and a strategy carried across non-decision slots is pruned
  /// of members the change made inactive or conflicting.
  Simulator(const ExtendedConflictGraph& ecg, const ChannelModel& model,
            const IndexPolicy& policy, SimulationConfig cfg,
            dynamics::DynamicNetwork* dyn = nullptr);

  SimulationResult run();

  /// The configuration in force: run.series_stride = 0 (auto) is resolved
  /// to max(1, slots/100) at construction.
  const SimulationConfig& config() const { return cfg_; }

 private:
  const ExtendedConflictGraph& ecg_;
  const ChannelModel& model_;
  const IndexPolicy& policy_;
  SimulationConfig cfg_;
  dynamics::DynamicNetwork* dyn_ = nullptr;
};

}  // namespace mhca
