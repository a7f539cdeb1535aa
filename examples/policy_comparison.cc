// Scenario: comparing learning policies on the same network and channel
// realizations (stateless sampling makes the comparison exactly paired).
//
// Runs CAB (the paper's policy), LLR (its baseline), UCB1, pure
// exploitation and ε-greedy over a 30x5 mesh and reports expected
// throughput, realized throughput and the accuracy of each policy's own
// throughput estimate.
#include <iostream>

#include "bandit/policy.h"
#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  const int kUsers = 30, kChannels = 5;
  const std::int64_t kSlots = 2000;

  Rng rng(555);
  ConflictGraph mesh = random_geometric_avg_degree(kUsers, 5.0, rng);
  ExtendedConflictGraph ecg(mesh, kChannels);
  GaussianChannelModel model(kUsers, kChannels, rng);

  std::cout << "=== Policy comparison: " << kUsers << " users x " << kChannels
            << " channels, " << kSlots << " slots ===\n\n";
  TablePrinter table({"policy", "avg expected (kbps)", "avg effective (kbps)",
                      "estimate error", "decision time (ms total)"});

  for (PolicyKind kind : {PolicyKind::kCab, PolicyKind::kLlr,
                          PolicyKind::kUcb1, PolicyKind::kGreedy,
                          PolicyKind::kEpsGreedy}) {
    PolicyParams params;
    params.llr_max_strategy_len = kUsers;
    params.epsilon = 0.05;
    auto policy = make_policy(kind, params);
    SimulationConfig cfg;
    cfg.run.series_stride = 1;
    cfg.run.slots = kSlots;
    cfg.run.seed = 99;
    Simulator sim(ecg, model, *policy, cfg);
    const SimulationResult res = sim.run();
    const double est_err = std::abs(res.cumavg_estimated.back() -
                                    res.cumavg_effective.back()) /
                           res.cumavg_effective.back();
    table.row(policy->name(),
              fixed(res.total_expected / kSlots * kRateScaleKbps, 1),
              fixed(res.total_effective / kSlots * kRateScaleKbps, 1),
              fixed(est_err, 3), fixed(res.decision_seconds * 1e3, 0));
  }
  table.print(std::cout);
  std::cout << "\nReading: CAB should lead or tie on throughput with a far\n"
            << "smaller estimate error than LLR/UCB1 (their bonuses inflate\n"
            << "the index long after the means are known).\n";
  return 0;
}
