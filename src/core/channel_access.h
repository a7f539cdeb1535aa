// Public facade: the paper's channel-access scheme behind one class.
//
// Typical use (see examples/quickstart.cc):
//
//   ConflictGraph net = random_geometric_avg_degree(20, 6.0, rng);
//   ChannelAccessConfig cfg;
//   cfg.num_channels = 8;
//   ChannelAccessScheme scheme(net, cfg);
//
//   // Either drive it step by step against your own radio environment:
//   const Strategy& s = scheme.decide();
//   ... transmit on s.channel_of_node[i] ...
//   scheme.report(i, observed_rate);  // for every node that transmitted
//
//   // Or run the built-in simulator against a channel model:
//   GaussianChannelModel model(20, 8, rng);
//   SimulationResult res = scheme.run(model, 1000);
//
// ChannelAccessConfig is a compatibility shim over the declarative Scenario
// API: batch runs derive their SimulationConfig from a scenario::SolverSpec/
// RunSpec (the single source of truth) while reusing the scheme's own graph
// and policy. New code should describe experiments as a scenario::Scenario
// directly (see src/scenario/README.md for the old-field -> scenario-key
// migration table).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bandit/policy.h"
#include "channel/channel_model.h"
#include "graph/conflict_graph.h"
#include "graph/extended_graph.h"
#include "mwis/distributed_ptas.h"
#include "mwis/mwis.h"
#include "sim/config.h"
#include "sim/simulator.h"

namespace mhca {

struct ChannelAccessConfig {
  int num_channels = 8;

  PolicyKind policy = PolicyKind::kCab;
  PolicyParams policy_params{};  ///< LLR's L defaults to N if unset.

  SolverKind solver = SolverKind::kDistributedPtas;
  int r = 2;
  int D = 4;
  LocalSolverKind local_solver = LocalSolverKind::kExact;
  std::int64_t bnb_node_cap = kDefaultBnbNodeCap;
  double ptas_epsilon = 1.0;
  /// Threads for per-leader local solves within one decision (0 = one per
  /// hardware thread, 1 = inline). Deterministic at any setting. Defaults
  /// to inline like scenario::SolverSpec (static_assert-pinned); raise it
  /// for big single-scheme deployments on idle cores.
  int local_solve_parallelism = 1;

  RoundTiming timing{};
  int update_period = 1;
  std::uint64_t seed = 1;
  bool count_messages = false;
  int series_stride = 1;
};

class ChannelAccessScheme {
 public:
  ChannelAccessScheme(ConflictGraph network, ChannelAccessConfig cfg);

  const ExtendedConflictGraph& extended_graph() const { return ecg_; }
  const ConflictGraph& network() const { return network_; }
  const IndexPolicy& policy() const { return *policy_; }
  const ArmEstimates& estimates() const { return est_; }
  std::int64_t current_round() const { return t_; }

  /// Advance one round and compute the strategy from current estimates
  /// (Algorithm 2's strategy-decision part).
  const Strategy& decide();

  /// Report the data rate `node` observed on its current channel
  /// (normalized to [0,1]); updates the node's arm statistics (eqs. 5-6).
  void report(int node, double reward);

  /// The current strategy as vertices of H.
  const std::vector<int>& current_vertices() const {
    return current_vertices_;
  }

  /// Batch simulation against a channel model (fresh learning state,
  /// independent of the step API's state).
  SimulationResult run(const ChannelModel& model, std::int64_t slots) const;

 private:
  ConflictGraph network_;
  ChannelAccessConfig cfg_;
  ExtendedConflictGraph ecg_;
  std::unique_ptr<IndexPolicy> policy_;
  ArmEstimates est_;
  DistributedRobustPtas engine_;
  std::unique_ptr<MwisSolver> central_;
  Rng rng_;

  std::int64_t t_ = 0;
  std::vector<double> weights_;
  std::vector<int> current_vertices_;
  Strategy current_;
};

}  // namespace mhca
