#include "sim/simulator.h"

#include <chrono>

#include "dynamics/dynamic_network.h"
#include "mwis/branch_and_bound.h"
#include "mwis/distributed_ptas.h"
#include "mwis/greedy.h"
#include "mwis/robust_ptas.h"
#include "util/assert.h"
#include "util/rng.h"

namespace mhca {

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDistributedPtas: return "distributed-ptas";
    case SolverKind::kCentralizedPtas: return "centralized-ptas";
    case SolverKind::kGreedy: return "greedy";
    case SolverKind::kExact: return "exact";
  }
  return "?";
}

Simulator::Simulator(const ExtendedConflictGraph& ecg,
                     const ChannelModel& model, const IndexPolicy& policy,
                     SimulationConfig cfg, dynamics::DynamicNetwork* dyn)
    : ecg_(ecg), model_(model), policy_(policy), cfg_(cfg), dyn_(dyn) {
  MHCA_ASSERT(ecg.num_nodes() == model.num_nodes() &&
                  ecg.num_channels() == model.num_channels(),
              "graph/model dimension mismatch");
  MHCA_ASSERT(cfg_.slots >= 1, "need at least one slot");
  MHCA_ASSERT(cfg_.update_period >= 1, "update period must be positive");
  MHCA_ASSERT(cfg_.series_stride >= 1, "series stride must be positive");
  MHCA_ASSERT(dyn_ == nullptr || &dyn_->ecg() == &ecg_,
              "dynamic simulation must run over the DynamicNetwork's graph");
}

SimulationResult Simulator::run() {
  using Clock = std::chrono::steady_clock;
  const Graph& h = ecg_.graph();
  const int k_arms = ecg_.num_vertices();

  ArmEstimates est(k_arms);
  Rng rng(cfg_.seed);

  // Strategy-decision oracle. The distributed engine precomputes its
  // NeighborhoodCache at construction, so only build it when selected.
  std::unique_ptr<DistributedRobustPtas> engine;
  std::unique_ptr<MwisSolver> central;
  DistributedPtasConfig dcfg;  // kept: dynamic full-rebuild re-uses it
  switch (cfg_.solver) {
    case SolverKind::kDistributedPtas: {
      dcfg.r = cfg_.r;
      dcfg.max_mini_rounds = cfg_.D;
      dcfg.local_solver = cfg_.local_solver;
      dcfg.bnb_node_cap = cfg_.bnb_node_cap;
      dcfg.count_messages = cfg_.count_messages;
      dcfg.local_solve_parallelism = cfg_.local_solve_parallelism;
      engine = std::make_unique<DistributedRobustPtas>(h, dcfg);
      break;
    }
    case SolverKind::kCentralizedPtas:
      central = std::make_unique<RobustPtasSolver>(cfg_.ptas_epsilon, 4,
                                                   cfg_.bnb_node_cap);
      break;
    case SolverKind::kGreedy:
      central = std::make_unique<GreedyMwisSolver>();
      break;
    case SolverKind::kExact:
      central = std::make_unique<BranchAndBoundMwisSolver>(cfg_.bnb_node_cap);
      break;
  }

  SimulationResult out;
  out.theta = cfg_.timing.theta();

  std::vector<double> weights;
  std::vector<int> strategy;
  std::vector<int> active_list;  // central-solver candidates when masked
  double estimated_sum = 0.0;  // index-sum W_x of the current strategy
  double sum_observed = 0.0, sum_effective = 0.0, sum_estimated = 0.0;
  double sum_expected = 0.0, sum_strategy_size = 0.0;
  const bool is_dynamic = dyn_ != nullptr && dyn_->dynamic();

  for (std::int64_t t = 1; t <= cfg_.slots; ++t) {
    if (is_dynamic && t > 1) {
      const dynamics::SlotChange& ch = dyn_->advance(t);
      if (ch.changed) {
        if (engine) {
          if (dyn_->incremental())
            engine->on_graph_delta(ch.touched_vertices);
          else
            engine = std::make_unique<DistributedRobustPtas>(h, dcfg);
        }
        // A strategy carried across non-decision slots must stay feasible
        // on the new graph: drop members that went inactive, then members
        // that now conflict with an earlier (lower-id) kept member. Purely
        // deterministic, so both maintenance modes prune identically.
        if (!strategy.empty()) {
          const std::span<const char> mask = dyn_->active_vertex_mask();
          std::vector<int> kept;
          kept.reserve(strategy.size());
          for (int v : strategy) {
            bool ok =
                mask.empty() || mask[static_cast<std::size_t>(v)] != 0;
            for (std::size_t i = 0; ok && i < kept.size(); ++i)
              ok = !h.has_edge(v, kept[i]);
            if (ok)
              kept.push_back(v);
            else
              estimated_sum -= weights[static_cast<std::size_t>(v)];
          }
          strategy = std::move(kept);
        }
      }
    }
    const bool decision_slot = ((t - 1) % cfg_.update_period) == 0;
    if (decision_slot) {
      const auto t0 = Clock::now();
      if (policy_.randomize_round(t, rng)) {
        weights.resize(static_cast<std::size_t>(k_arms));
        for (auto& w : weights) w = rng.uniform();
      } else {
        policy_.compute_indices(est, t, weights);
      }
      const std::span<const char> mask =
          is_dynamic ? dyn_->active_vertex_mask() : std::span<const char>{};
      if (cfg_.solver == SolverKind::kDistributedPtas) {
        if (cfg_.count_messages && !strategy.empty())
          out.total_messages += engine->weight_broadcast_messages(strategy);
        DistributedPtasResult dres = engine->run(weights, mask);
        strategy = std::move(dres.winners);
        out.total_messages += dres.total_messages;
        out.total_mini_timeslots += dres.total_mini_timeslots;
      } else if (mask.empty()) {
        strategy = central->solve_all(h, weights).vertices;
      } else {
        // Centralized oracles see only the live part of H.
        active_list.clear();
        for (int v = 0; v < k_arms; ++v)
          if (mask[static_cast<std::size_t>(v)]) active_list.push_back(v);
        strategy = central->solve(h, weights, active_list).vertices;
      }
      estimated_sum = 0.0;
      for (int v : strategy)
        estimated_sum += weights[static_cast<std::size_t>(v)];
      out.decision_seconds +=
          std::chrono::duration<double>(Clock::now() - t0).count();
      ++out.decisions;
    }
    sum_strategy_size += static_cast<double>(strategy.size());

    // Data transmission + observation.
    double observed = 0.0, expected = 0.0;
    for (int v : strategy) {
      const int node = ecg_.master_of(v);
      const int chan = ecg_.channel_of(v);
      const double x = model_.sample(node, chan, t);
      est.observe(v, x);
      observed += x;
      expected += model_.mean(node, chan, t);
    }
    const double factor = decision_slot ? cfg_.timing.theta() : 1.0;
    sum_observed += observed;
    sum_effective += factor * observed;
    sum_estimated += factor * estimated_sum;
    sum_expected += expected;

    if ((t - 1) % cfg_.series_stride == 0 || t == cfg_.slots) {
      const double td = static_cast<double>(t);
      out.slots.push_back(t);
      out.cumavg_effective.push_back(sum_effective / td);
      out.cumavg_estimated.push_back(sum_estimated / td);
      out.cumavg_observed.push_back(sum_observed / td);
      out.cum_expected.push_back(sum_expected);
    }
  }

  out.total_slots = cfg_.slots;
  out.total_observed = sum_observed;
  out.total_effective = sum_effective;
  out.total_expected = sum_expected;
  out.avg_strategy_size =
      sum_strategy_size / static_cast<double>(cfg_.slots);
  out.final_means = est.means();
  out.final_counts = est.counts();
  out.last_strategy = strategy;
  return out;
}

}  // namespace mhca
