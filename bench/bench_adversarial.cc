// Extension bench (paper §VII future work): oblivious adversarial channel
// processes — drifting, swapping, and ramping means — against the
// stochastic learning policies. The stochastic guarantee does not apply,
// but the clipped CAB exploration keeps re-sampling displaced arms, so it
// should degrade gracefully versus pure exploitation.
#include <iostream>

#include "bandit/policy.h"
#include "channel/adversarial.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  const int kUsers = 20, kChannels = 4;
  const std::int64_t kSlots = 4000;

  Rng rng(31337);
  ConflictGraph cg = random_geometric_avg_degree(kUsers, 5.0, rng);
  ExtendedConflictGraph ecg(cg, kChannels);

  std::cout << "=== Adversarial channels (oblivious): avg expected thpt, "
               "final-10% window (kbps-equivalent x1500) ===\n\n";
  TablePrinter table({"adversary", "CAB", "LLR", "greedy-exploit",
                      "CAB vs greedy"});

  for (AdversaryKind kind :
       {AdversaryKind::kDrift, AdversaryKind::kSwap, AdversaryKind::kRamp}) {
    Rng mrng(static_cast<std::uint64_t>(kind) * 97 + 5);
    AdversarialChannelModel model(kUsers, kChannels, kind, kSlots, mrng);

    auto tail_rate = [&](PolicyKind pk) {
      PolicyParams params;
      params.llr_max_strategy_len = kUsers;
      auto policy = make_policy(pk, params);
      SimulationConfig cfg;
      cfg.run.slots = kSlots;
      cfg.run.series_stride = 10;
      const SimulationResult res =
          Simulator(ecg, model, *policy, cfg).run();
      const std::size_t n = res.cum_expected.size();
      const std::size_t lo = n - n / 10;
      return (res.cum_expected[n - 1] - res.cum_expected[lo]) /
             static_cast<double>(res.slots[n - 1] - res.slots[lo]) * 1500.0;
    };

    const double cab = tail_rate(PolicyKind::kCab);
    const double llr = tail_rate(PolicyKind::kLlr);
    const double greedy = tail_rate(PolicyKind::kGreedy);
    const char* name = kind == AdversaryKind::kDrift  ? "drift"
                       : kind == AdversaryKind::kSwap ? "swap@T/2"
                                                      : "ramp";
    table.row(name, fixed(cab, 0), fixed(llr, 0), fixed(greedy, 0),
              fixed(cab / greedy, 3));
  }
  table.print(std::cout);
  std::cout
      << "\nObserved shape: under the abrupt swap, CAB's residual\n"
      << "exploration lets it recover and beat pure exploitation; under\n"
      << "smooth drift/ramp the running mean tracks slowly enough that\n"
      << "exploitation is competitive (ratio ~1). Stochastic guarantees do\n"
      << "not transfer to adversaries — exactly the open problem of §VII.\n";
  return 0;
}
