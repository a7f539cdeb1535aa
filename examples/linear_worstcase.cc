// Scenario: the paper's Fig. 5 pathology, live.
//
// A chain of roadside relay units forms a linear network. When channel
// quality happens to decrease monotonically along the road, LocalLeader
// election serializes: exactly one leader can emerge per mini-round and a
// full strategy decision needs Θ(N) mini-rounds. This example contrasts
// the linear topology with a random mesh of the same size and shows what a
// practical fixed budget D leaves on the table in each case.
#include <iostream>

#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "mwis/distributed_ptas.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  const int kUnits = 60;

  // Linear network; strictly decreasing mean rates along the road.
  ConflictGraph road = linear_network(kUnits);
  ExtendedConflictGraph road_h(road, 1);
  std::vector<double> road_w(static_cast<std::size_t>(kUnits));
  for (int i = 0; i < kUnits; ++i)
    road_w[static_cast<std::size_t>(i)] =
        0.9 - 0.8 * static_cast<double>(i) / kUnits;

  // Random mesh of the same size, weights of the same magnitude.
  Rng rng(10);
  ConflictGraph mesh = random_geometric_avg_degree(kUnits, 6.0, rng);
  ExtendedConflictGraph mesh_h(mesh, 1);
  GaussianChannelModel model(kUnits, 1, rng);
  const std::vector<double> mesh_w = model.mean_matrix();

  std::cout << "=== Fig. 5 live: linear vs random topology (N = " << kUnits
            << ", r = 2) ===\n\n";
  TablePrinter table({"topology", "D budget", "relative weight",
                      "mini-rounds used", "all marked?"});

  for (const bool linear : {true, false}) {
    const Graph& h = linear ? road_h.graph() : mesh_h.graph();
    const std::vector<double>& w = linear ? road_w : mesh_w;
    DistributedRobustPtas full(h, {.solver = {.D = 0, .parallelism = 0}});
    const double complete_weight = full.run(w).weight;
    for (int d : {2, 4, 8, 0}) {
      DistributedPtasConfig cfg;
      cfg.solver.parallelism = 0;
      cfg.solver.D = d;
      DistributedRobustPtas engine(h, cfg);
      const DistributedPtasResult res = engine.run(w);
      table.row(linear ? "linear road" : "random mesh",
                d == 0 ? std::string("inf") : std::to_string(d),
                fixed(res.weight / complete_weight, 3), res.mini_rounds_used,
                res.all_marked ? "yes" : "no");
    }
  }
  table.print(std::cout);
  std::cout << "\nThe random mesh is done (weight ~1.0) within the D = 4\n"
            << "budget the paper uses; the adversarial road needs ~N/(2r+1)\n"
            << "mini-rounds to mark every unit.\n";
  return 0;
}
