// google-benchmark micro-benchmarks of the MWIS oracles on extended
// conflict graphs of increasing size (N users x 5 channels, true-mean
// weights). Complements bench_complexity_table with statistically robust
// per-call timings.
#include <benchmark/benchmark.h>

#include <memory>

#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "mwis/branch_and_bound.h"
#include "mwis/distributed_ptas.h"
#include "mwis/greedy.h"
#include "mwis/robust_ptas.h"
#include "util/rng.h"

namespace {

using namespace mhca;

struct Instance {
  ConflictGraph cg;
  std::unique_ptr<ExtendedConflictGraph> ecg;
  std::vector<double> weights;
};

Instance make_instance(int users) {
  Rng rng(static_cast<std::uint64_t>(users) * 31 + 9);
  Instance in{random_geometric_avg_degree(users, 6.0, rng), nullptr, {}};
  in.ecg = std::make_unique<ExtendedConflictGraph>(in.cg, 5);
  GaussianChannelModel model(users, 5, rng);
  in.weights = model.mean_matrix();
  return in;
}

void BM_DistributedPtas(benchmark::State& state) {
  const Instance in = make_instance(static_cast<int>(state.range(0)));
  DistributedPtasConfig cfg;
  cfg.solver.D = 0;
  cfg.solver.parallelism = 0;
  cfg.solver.node_cap = 20'000;
  DistributedRobustPtas engine(in.ecg->graph(), cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(in.weights));
  }
  state.SetLabel("K=" + std::to_string(in.ecg->num_vertices()));
}
BENCHMARK(BM_DistributedPtas)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_CentralizedPtas(benchmark::State& state) {
  const Instance in = make_instance(static_cast<int>(state.range(0)));
  RobustPtasSolver solver(1.0, 3, 20'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_all(in.ecg->graph(), in.weights));
  }
}
BENCHMARK(BM_CentralizedPtas)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_GlobalGreedy(benchmark::State& state) {
  const Instance in = make_instance(static_cast<int>(state.range(0)));
  GreedyMwisSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_all(in.ecg->graph(), in.weights));
  }
}
BENCHMARK(BM_GlobalGreedy)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_ExactBnbSmall(benchmark::State& state) {
  // Exact global MWIS is only sensible on small instances (Fig. 7 scale).
  const Instance in = make_instance(static_cast<int>(state.range(0)));
  BranchAndBoundMwisSolver solver(50'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_all(in.ecg->graph(), in.weights));
  }
}
BENCHMARK(BM_ExactBnbSmall)->Arg(10)->Arg(15)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_LocalMwisBall(benchmark::State& state) {
  // The inner kernel of Algorithm 3: exact MWIS over one r-hop candidate
  // ball (r = 2).
  const Instance in = make_instance(100);
  const Graph& h = in.ecg->graph();
  BfsScratch scratch(h.size());
  const auto ball = scratch.k_hop_neighborhood(h, h.size() / 2, 2);
  BranchAndBoundMwisSolver solver(200'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(h, in.weights, ball));
  }
  state.SetLabel("|A_r|=" + std::to_string(ball.size()));
}
BENCHMARK(BM_LocalMwisBall)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
