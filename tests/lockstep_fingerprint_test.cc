// Pinned fingerprints of the lockstep engine under dynamics.
//
// Simulator::run() patches the graph and the neighborhood cache every time
// the topology moves, and prunes a strategy carried across slots of members
// that went inactive or now conflict. The differential suites check those
// paths against a full rebuild, so a change that alters both sides alike
// would pass them. This suite pins what a dynamic run produces: the exact
// total observed reward, the message count, and a digest of the final
// strategy, for every checked-in dynamic scenario. It also pins
// churn_10k.ini, which runs past the bitset limit, so the cache's implicit
// election-ball tier is maintained through the public path. A deliberate
// change to the dynamics, the decision or the prune must re-record the
// constants and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/hash.h"

namespace mhca {
namespace {

struct Pinned {
  const char* name;         ///< Test name.
  const char* scenario;     ///< examples/scenarios/<scenario>.ini
  const char* override_kv;  ///< One extra `key=value` override, or "".
  int slots;
  double total_observed;  ///< Exact, as a hex-float literal.
  std::int64_t total_messages;
  std::uint64_t strategy_digest;
};

// Every case counts messages: the weight broadcast is billed on the carried
// strategy after its prune, so total_messages sees what the prune kept.
// The churn and primary-user cases prune members that went off the air;
// the mobility cases also prune members that a moved edge now conflicts
// with. churn_batched_updates decides every 8 slots; its eager variant
// applies each slot's delta at once, so strategies are pruned mid-window.
constexpr Pinned kPinned[] = {
    {"churn_batched_updates", "churn_batched_updates", "", 60,
     0x1.7918ba867847fp+9, 20548, 0x873dcb89e0c0d781},
    {"churn_batched_updates_eager", "churn_batched_updates",
     "dynamics.batch=false", 60, 0x1.4f4219be6e5d7p+9, 18397,
     0x97bcf3a9cef1f506},
    {"churn_mesh_cab", "churn_mesh_cab", "", 60, 0x1.a67c6a8d0bec3p+9,
     177289, 0xbf67fe2825598c50},
    {"lossy_churn_faulty", "lossy_churn_faulty", "", 60,
     0x1.93944ede04e61p+9, 115984, 0xd8fc827a8dda4cda},
    {"primary_user_dynamics_llr", "primary_user_dynamics_llr", "", 60,
     0x1.5b547ae147adfp+8, 226140, 0x869b3852b7c878d9},
    {"reorder_mobility_faulty", "reorder_mobility_faulty", "", 60,
     0x1.4399999999999p+8, 98057, 0xa51e70184b0f914f},
    {"waypoint_mobility_thompson", "waypoint_mobility_thompson", "", 60,
     0x1.5766666666667p+8, 122861, 0xecea12305dab4906},
    {"churn_10k", "churn_10k", "", 10, 0x1.a477173f45659p+12, 2906206,
     0x9d4af72a3687df07},
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::uint64_t strategy_digest(const std::vector<int>& strategy) {
  std::uint64_t h = strategy.size();
  for (const int v : strategy)
    h = hash_combine(h, static_cast<std::uint64_t>(v));
  return h;
}

class LockstepFingerprint : public ::testing::TestWithParam<Pinned> {};

TEST_P(LockstepFingerprint, ResultMatchesPinnedValues) {
  const Pinned& p = GetParam();
  scenario::Scenario s = scenario::parse_scenario_file(
      std::string(MHCA_SOURCE_DIR) + "/examples/scenarios/" + p.scenario +
      ".ini");
  scenario::apply_override(s, "run.slots=" + std::to_string(p.slots));
  scenario::apply_override(s, "run.count_messages=true");
  if (*p.override_kv != '\0') scenario::apply_override(s, p.override_kv);
  ASSERT_TRUE(scenario::is_dynamic(s));
  const SimulationResult res = scenario::ScenarioRunner(s).run();
  EXPECT_EQ(res.total_slots, p.slots);
  EXPECT_EQ(hexfloat(res.total_observed), hexfloat(p.total_observed));
  EXPECT_EQ(res.total_messages, p.total_messages);
  EXPECT_EQ(hex(strategy_digest(res.last_strategy)), hex(p.strategy_digest));
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, LockstepFingerprint, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mhca
