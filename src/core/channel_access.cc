#include "core/channel_access.h"

#include "mwis/branch_and_bound.h"
#include "mwis/greedy.h"
#include "mwis/robust_ptas.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace mhca {
namespace {

// ChannelAccessConfig is a compatibility shim over the declarative Scenario
// API (src/scenario): the facade's knobs are one-to-one with a SolverSpec +
// RunSpec, and batch runs execute the scenario-derived SimulationConfig over
// the scheme's own graph/policy. The field-level mapping is tabulated in
// src/scenario/README.md.
scenario::SolverSpec solver_spec(const ChannelAccessConfig& cfg) {
  scenario::SolverSpec spec;
  spec.kind = cfg.solver;
  spec.r = cfg.r;
  spec.D = cfg.D;
  spec.local_solver = cfg.local_solver;
  spec.node_cap = cfg.bnb_node_cap;
  spec.parallelism = cfg.local_solve_parallelism;
  spec.epsilon = cfg.ptas_epsilon;
  return spec;
}

// The facade keeps its own graph, model, and policy; only the solver/run/
// timing knobs flow through the scenario layer (SolverSpec is the single
// source of truth the Simulator config is derived from).
SimulationConfig sim_config(const ChannelAccessConfig& cfg,
                            std::int64_t slots) {
  scenario::Scenario s;
  s.solver = solver_spec(cfg);
  s.run.slots = slots;
  s.run.update_period = cfg.update_period;
  s.run.seed = cfg.seed;
  s.run.count_messages = cfg.count_messages;
  s.run.series_stride = cfg.series_stride;
  s.timing = cfg.timing;
  return scenario::to_simulation_config(s);
}

std::unique_ptr<IndexPolicy> build_policy(const ChannelAccessConfig& cfg,
                                          int num_nodes) {
  PolicyParams params = cfg.policy_params;
  if (cfg.policy == PolicyKind::kLlr && params.llr_max_strategy_len <= 1)
    params.llr_max_strategy_len = num_nodes;
  return make_policy(cfg.policy, params);
}

}  // namespace

ChannelAccessScheme::ChannelAccessScheme(ConflictGraph network,
                                         ChannelAccessConfig cfg)
    : network_(std::move(network)),
      cfg_(cfg),
      ecg_(network_, cfg.num_channels),
      policy_(build_policy(cfg, network_.num_nodes())),
      est_(ecg_.num_vertices()),
      engine_(ecg_.graph(),
              solver_spec(cfg).engine_config(cfg.count_messages)),
      rng_(cfg.seed) {
  switch (cfg_.solver) {
    case SolverKind::kDistributedPtas:
      break;
    case SolverKind::kCentralizedPtas:
      central_ = std::make_unique<RobustPtasSolver>(cfg_.ptas_epsilon, 4,
                                                    cfg_.bnb_node_cap);
      break;
    case SolverKind::kGreedy:
      central_ = std::make_unique<GreedyMwisSolver>();
      break;
    case SolverKind::kExact:
      central_ = std::make_unique<BranchAndBoundMwisSolver>(cfg_.bnb_node_cap);
      break;
  }
  current_.channel_of_node.assign(
      static_cast<std::size_t>(network_.num_nodes()), Strategy::kNoChannel);
}

const Strategy& ChannelAccessScheme::decide() {
  ++t_;
  if (policy_->randomize_round(t_, rng_)) {
    weights_.resize(static_cast<std::size_t>(ecg_.num_vertices()));
    for (auto& w : weights_) w = rng_.uniform();
  } else {
    policy_->compute_indices(est_, t_, weights_);
  }
  if (cfg_.solver == SolverKind::kDistributedPtas) {
    current_vertices_ = engine_.run(weights_).winners;
  } else {
    current_vertices_ = central_->solve_all(ecg_.graph(), weights_).vertices;
  }
  current_ = ecg_.to_strategy(current_vertices_);
  return current_;
}

void ChannelAccessScheme::report(int node, double reward) {
  MHCA_ASSERT(node >= 0 && node < network_.num_nodes(), "node out of range");
  MHCA_ASSERT(t_ >= 1, "report before the first decide()");
  const int chan = current_.channel_of_node[static_cast<std::size_t>(node)];
  MHCA_ASSERT(chan != Strategy::kNoChannel,
              "node did not transmit in the current strategy");
  est_.observe(ecg_.vertex_of(node, chan), reward);
}

SimulationResult ChannelAccessScheme::run(const ChannelModel& model,
                                          std::int64_t slots) const {
  Simulator sim(ecg_, model, *policy_, sim_config(cfg_, slots));
  return sim.run();
}

}  // namespace mhca
