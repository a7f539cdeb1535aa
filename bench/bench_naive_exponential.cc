// Measures the paper's §I motivation: formulating multi-hop channel access
// as a classic per-strategy bandit blows up exponentially — the number of
// arms is the number of independent sets of H (up to O(M^N)) — while the
// factored formulation keeps K = N*M arms. We count enumerated strategies
// and learning-state memory, then race naive strategy-UCB1 against
// Algorithm 2 on a small network where enumeration is still feasible.
#include <chrono>
#include <iostream>

#include "bandit/naive_ucb.h"
#include "bandit/policy.h"
#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/independence.h"
#include "sim/optimum.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  std::cout << "=== Naive strategy-as-arm formulation vs factored (K = N*M) ===\n\n";

  TablePrinter growth({"N", "M", "K = N*M arms (ours)",
                       "maximal-IS strategies (naive)", "naive memory (KB)"});
  for (int n : {4, 6, 8, 10, 12}) {
    const int m = 3;
    Rng rng(static_cast<std::uint64_t>(n) * 101 + 7);
    ConflictGraph cg = random_geometric_avg_degree(n, 3.0, rng);
    ExtendedConflictGraph ecg(cg, m);
    std::vector<std::vector<int>> strategies;
    const bool complete = enumerate_maximal_independent_sets(
        ecg.graph(), 2'000'000, strategies);
    std::string count = std::to_string(strategies.size());
    if (!complete) count += "+ (truncated)";
    NaiveStrategyUcb naive(strategies);
    growth.row(n, m, ecg.num_vertices(), count,
               fixed(static_cast<double>(naive.memory_bytes()) / 1024.0, 1));
  }
  growth.print(std::cout);

  // Head-to-head on a tiny network (enumeration feasible for the naive arm).
  const int kUsers = 8, kChannels = 2;
  const std::int64_t kSlots = 3000;
  Rng rng(4242);
  ConflictGraph cg = random_geometric_avg_degree(kUsers, 3.0, rng);
  ExtendedConflictGraph ecg(cg, kChannels);
  GaussianChannelModel model(kUsers, kChannels, rng);
  const OptimumInfo opt = compute_optimum(ecg, model);

  using Clock = std::chrono::steady_clock;

  // Naive: UCB1 over maximal independent sets.
  std::vector<std::vector<int>> strategies;
  enumerate_maximal_independent_sets(ecg.graph(), 1'000'000, strategies);
  NaiveStrategyUcb naive(strategies);
  double naive_expected = 0.0;
  auto t0 = Clock::now();
  for (std::int64_t t = 1; t <= kSlots; ++t) {
    const int arm = naive.select(t);
    double reward = 0.0, expected = 0.0;
    for (int v : naive.strategy(arm)) {
      reward += model.sample(ecg.master_of(v), ecg.channel_of(v), t);
      expected += model.mean(ecg.master_of(v), ecg.channel_of(v), t);
    }
    naive.observe(arm, reward);
    naive_expected += expected;
  }
  const double naive_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Ours: CAB + distributed PTAS.
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.run.series_stride = 1;
  cfg.run.slots = kSlots;
  t0 = Clock::now();
  const SimulationResult ours = Simulator(ecg, model, *policy, cfg).run();
  const double ours_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::cout << "\nHead-to-head (" << kUsers << " users x " << kChannels
            << " channels, " << kSlots << " slots, R1 = "
            << fixed(opt.weight * kRateScaleKbps, 1) << " kbps):\n";
  TablePrinter duel({"scheme", "arms", "avg expected thpt (kbps)",
                     "fraction of R1", "wall time (s)"});
  duel.row("naive strategy-UCB1", naive.num_arms(),
           fixed(naive_expected / kSlots * kRateScaleKbps, 1),
           fixed(naive_expected / kSlots / opt.weight, 3), fixed(naive_s, 2));
  duel.row("Algorithm 2 (CAB, K=N*M)", ecg.num_vertices(),
           fixed(ours.total_expected / kSlots * kRateScaleKbps, 1),
           fixed(ours.total_expected / kSlots / opt.weight, 3),
           fixed(ours_s, 2));
  duel.print(std::cout);
  std::cout << "\nExpected shape: strategy count explodes with N while K\n"
            << "grows linearly; Algorithm 2 reaches a competitive fraction\n"
            << "of R1 with exponentially less learning state.\n";
  return 0;
}
