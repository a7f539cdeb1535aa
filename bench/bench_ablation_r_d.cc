// Ablation of the scheme's design knobs (DESIGN.md §5):
//   * neighborhood radius r (election 2r+1, MWIS ball r)
//   * mini-round budget D
//   * local solver: exact enumeration (BnB) vs greedy constant-approx
// on one 40-user x 5-channel random network with true-mean weights.
// Reported weight is normalized by the best weight any configuration finds.
#include <chrono>
#include <iostream>

#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "mwis/distributed_ptas.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  using Clock = std::chrono::steady_clock;

  Rng rng(777);
  const int kUsers = 40, kChannels = 5;
  ConflictGraph cg = random_geometric_avg_degree(kUsers, 6.0, rng);
  ExtendedConflictGraph ecg(cg, kChannels);
  GaussianChannelModel model(kUsers, kChannels, rng);
  const std::vector<double> w = model.mean_matrix();

  struct Row {
    int r, d;
    LocalSolverKind solver;
    double weight = 0, ms = 0;
    bool all_marked = false;
    int rounds_used = 0;
  };
  std::vector<Row> rows;
  double best = 0.0;

  for (int r : {1, 2, 3}) {
    for (int d : {1, 2, 3, 4, 6, 0}) {  // 0 = until all marked
      for (LocalSolverKind solver :
           {LocalSolverKind::kExact, LocalSolverKind::kGreedy}) {
        DistributedPtasConfig cfg;
        cfg.solver.parallelism = 0;
        cfg.solver.r = r;
        cfg.solver.D = d;
        cfg.solver.local_solver = solver;
        cfg.solver.node_cap = 50'000;
        DistributedRobustPtas engine(ecg.graph(), cfg);
        const auto t0 = Clock::now();
        const DistributedPtasResult res = engine.run(w);
        Row row;
        row.r = r;
        row.d = d;
        row.solver = solver;
        row.weight = res.weight;
        row.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                     .count();
        row.all_marked = res.all_marked;
        row.rounds_used = res.mini_rounds_used;
        rows.push_back(row);
        best = std::max(best, res.weight);
      }
    }
  }

  std::cout << "=== Ablation: r x D x local solver (40x5 network) ===\n"
            << "weight column normalized to the best configuration.\n\n";
  TablePrinter table({"r", "D", "local solver", "rel. weight", "marked all?",
                      "mini-rounds used", "decision ms"});
  for (const auto& row : rows) {
    table.row(row.r, row.d == 0 ? std::string("inf") : std::to_string(row.d),
              row.solver == LocalSolverKind::kExact ? "exact" : "greedy",
              fixed(row.weight / best, 4), row.all_marked ? "yes" : "no",
              row.rounds_used, fixed(row.ms, 2));
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: D >= ~4 recovers nearly all weight\n"
            << "(Theorem 4 / Fig. 6); exact local MWIS beats greedy by a\n"
            << "few percent; larger r costs time for little extra weight.\n";
  return 0;
}
