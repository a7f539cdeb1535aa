// Measures the §IV-C complexity claims:
//   * communication: O(r^2 + D) messages per vertex per round,
//   * space: O(m) per vertex (the (2r+1)-hop table),
//   * computation: strategy-decision time grows mildly with N for the
//     distributed engine (work is per-neighborhood) while the centralized
//     robust PTAS scans the whole graph sequentially.
//
// Message/space columns come from the message-level protocol runtime
// (real floods); timing columns from the lockstep engine (same decisions).
#include <chrono>
#include <iostream>

#include "bandit/policy.h"
#include "channel/gaussian.h"
#include "graph/cds.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "mwis/distributed_ptas.h"
#include "mwis/greedy.h"
#include "mwis/robust_ptas.h"
#include "net/runtime.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  using Clock = std::chrono::steady_clock;

  std::cout << "=== Protocol complexity per round (r = 2, D = 4, M = 4) ===\n"
            << "msg/vertex/round should stay ~O(r^2+D) (constant in N);\n"
            << "table size m is the per-vertex space bound.\n\n";

  TablePrinter comms({"N", "K=N*M", "rounds", "msg/vertex/round",
                      "mini-timeslots/round", "max table m", "avg |J_G,1|"});
  for (int n : {20, 40, 80, 160}) {
    Rng rng(static_cast<std::uint64_t>(n) * 11 + 1);
    ConflictGraph cg = random_geometric_avg_degree(n, 6.0, rng, /*force_connected=*/false);
    ExtendedConflictGraph ecg(cg, 4);
    GaussianChannelModel model(n, 4, rng);
    net::NetConfig cfg;
    net::DistributedRuntime rt(ecg, model, cfg);
    const auto base = rt.channel_stats();  // discovery cost excluded below
    const int kRounds = 5;
    for (int i = 0; i < kRounds; ++i) rt.step();
    const auto& st = rt.channel_stats();
    const double msg_per_vertex_round =
        static_cast<double>(st.messages - base.messages) /
        (static_cast<double>(kRounds) * ecg.num_vertices());
    comms.row(n, ecg.num_vertices(), kRounds, fixed(msg_per_vertex_round, 2),
              fixed(static_cast<double>(st.mini_timeslots) / kRounds, 1),
              rt.max_table_size(), fixed(cg.graph().average_degree() + 1, 1));
  }
  comms.print(std::cout);

  std::cout << "\n=== Strategy-decision wall time (one decision, M = 5) ===\n";
  TablePrinter times({"N", "K", "distributed (ms)", "centralized PTAS (ms)",
                      "global greedy (ms)", "dist weight / greedy weight"});
  for (int n : {50, 100, 200, 400}) {
    Rng rng(static_cast<std::uint64_t>(n) * 7 + 3);
    ConflictGraph cg = random_geometric_avg_degree(n, 6.0, rng, /*force_connected=*/false);
    ExtendedConflictGraph ecg(cg, 5);
    GaussianChannelModel model(n, 5, rng);
    const std::vector<double> w = model.mean_matrix();

    DistributedPtasConfig dcfg;
    dcfg.solver.D = 0;
    dcfg.solver.parallelism = 0;
    dcfg.solver.node_cap = 20'000;
    DistributedRobustPtas engine(ecg.graph(), dcfg);
    auto t0 = Clock::now();
    const auto dres = engine.run(w);
    const double dist_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    RobustPtasSolver ptas(1.0, 3, 20'000);
    t0 = Clock::now();
    ptas.solve_all(ecg.graph(), w);
    const double cent_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    GreedyMwisSolver greedy;
    t0 = Clock::now();
    const auto gres = greedy.solve_all(ecg.graph(), w);
    const double greedy_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    times.row(n, ecg.num_vertices(), fixed(dist_ms, 2), fixed(cent_ms, 2),
              fixed(greedy_ms, 2), fixed(dres.weight / gres.weight, 3));
  }
  times.print(std::cout);
  std::cout << "\nNote: the distributed engine simulates all vertices on one\n"
            << "core; per-vertex work is the per-neighborhood share.\n";

  // §IV-C also argues WB can be pipelined over a CDS backbone so a
  // (2r+1)-hop broadcast finishes in O((2r+1)^2) mini-timeslots instead of
  // the O((2r+1)^3) of sequential per-vertex broadcasts. Measured:
  std::cout << "\n=== Weight-broadcast pipelining over a CDS backbone "
               "(r = 2, ttl = 2r+1 = 5) ===\n";
  TablePrinter wb({"N", "CDS size / N", "pipelined slots (max over origins)",
                   "sequential bound (2r+1)^3"});
  for (int n : {40, 80, 160}) {
    Rng rng(static_cast<std::uint64_t>(n) * 13 + 5);
    ConflictGraph cg = random_geometric_avg_degree(n, 8.0, rng);
    const Graph& g = cg.graph();
    const auto cds = simple_connected_dominating_set(g);
    int worst = 0;
    for (int v = 0; v < g.size(); ++v)
      worst = std::max(worst, pipelined_broadcast_timeslots(g, cds, v, 5));
    wb.row(n, fixed(static_cast<double>(cds.size()) / n, 2), worst,
           5 * 5 * 5);
  }
  wb.print(std::cout);
  return 0;
}
