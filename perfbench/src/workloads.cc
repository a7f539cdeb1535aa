#include "workloads.h"

#include "util/hash.h"

namespace perfbench {

namespace {

// Shared by every workload: geometric topology (avg degree 6, components
// allowed), 4 Gaussian channels, CAB, the distributed solver at r = 2,
// D = 4, and a decision every slot.
std::string base(const std::string& name, int nodes, int slots) {
  return "name = " + name +
         "\n[topology]\nkind = geometric\nnodes = " + std::to_string(nodes) +
         "\navg_degree = 6.0\nforce_connected = false\n"
         "[channel]\nkind = gaussian\nchannels = 4\n"
         "[policy]\nkind = cab\n"
         "[solver]\nkind = distributed\nr = 2\nD = 4\n"
         "[run]\nslots = " + std::to_string(slots) +
         "\nupdate_period = 1\nseed = @SEED@\n";
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      // |H| = 50,000, static: the decision path and the cache build
      // dominate; dynamics and net do no work.
      {"static-50k", Engine::kLockstep, 4, 6.5,
       base("static-50k", 12500, 20) + "count_messages = true\n"},
      // |H| = 10,000 under churn, past the 8,192-vertex bitset limit:
      // incremental maintenance writes the graph and cache every slot.
      {"churn-10k", Engine::kLockstep, 6, 9.8,
       base("churn-10k", 2500, 20) +
           "count_messages = true\n"
           "[dynamics]\nkind = churn\nleave_prob = 0.01\njoin_prob = 0.2\n"
           "incremental = true\n"},
      // 1,600 agents on a clean wire with omniscient membership: the
      // protocol phases and the control channel; hellos only in setup.
      {"net-1600", Engine::kNet, 16, 14.0, base("net-1600", 400, 8)},
      // 400 agents under view-synchronous membership with duplicate
      // deliveries: keep-alive hellos every round dominate the wire. Left
      // out of BENCHMARK.json: at 100 users its figures move too much with
      // the seed's topology (README.md, Workloads).
      {"net-viewsync-400", Engine::kNet, 15, 5.0,
       base("net-viewsync-400", 100, 14) +
           "[net]\nmembership = view_sync\ndup_prob = 0.02\n"
           "drop_seed = @SEED@\n"},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<mhca::scenario::Scenario> make_instances(const Workload& w,
                                                     std::uint64_t seed) {
  std::vector<mhca::scenario::Scenario> out;
  for (int i = 0; i < w.instances; ++i) {
    // 62-bit seeds: the scenario text format stores them as integers.
    const std::uint64_t s =
        mhca::hash_combine(seed, static_cast<std::uint64_t>(i)) >> 2;
    std::string text = w.scenario;
    for (std::size_t at; (at = text.find("@SEED@")) != std::string::npos;)
      text.replace(at, 6, std::to_string(s));
    out.push_back(mhca::scenario::parse_scenario(text));
  }
  return out;
}

}  // namespace perfbench
