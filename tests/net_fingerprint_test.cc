// Pinned fingerprints of the message-level runtime (src/net).
//
// run_net() folds every flood, every delivery and every decided strategy
// into trace_hash and decision_digest. The rest of the suite checks those
// fingerprints only for self-consistency (same seed twice, observability on
// vs off, sharded vs single-process), so a refactor of the agents or of the
// control channel could change the protocol trace without any test
// noticing. This suite pins both values for five checked-in scenarios that
// together cover omniscient and view-sync membership, churn, mobility,
// primary-user dynamics, drops, duplicates and reordering. A deliberate
// protocol or wire change must re-record the constants and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace mhca {
namespace {

struct Pinned {
  const char* scenario;
  std::uint64_t trace_hash;
  std::uint64_t decision_digest;
};

constexpr int kSlots = 30;

constexpr Pinned kPinned[] = {
    {"quickstart", 0xd60d987ab6e717e6, 0xed9c08e612cf010b},
    {"churn_mesh_cab", 0x9ba5bbaabfa5ca3b, 0x5e78e29b36b9eb27},
    {"lossy_churn_faulty", 0x7f769e718d5eb639, 0x18ba138905394f57},
    {"reorder_mobility_faulty", 0xe74534e84a4a07f2, 0xdca565c839f9030a},
    {"primary_user_dynamics_llr", 0x39407c5ac24c5033, 0xdec47a140e059ede},
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class NetFingerprint : public ::testing::TestWithParam<Pinned> {};

TEST_P(NetFingerprint, TraceAndDecisionsMatchPinnedValues) {
  const Pinned& p = GetParam();
  scenario::Scenario s = scenario::parse_scenario_file(
      std::string(MHCA_SOURCE_DIR) + "/examples/scenarios/" + p.scenario +
      ".ini");
  scenario::apply_override(s, "run.slots=" + std::to_string(kSlots));
  const scenario::NetRunSummary net = scenario::ScenarioRunner(s).run_net();
  EXPECT_EQ(net.rounds, kSlots);
  EXPECT_EQ(hex(net.trace_hash), hex(p.trace_hash));
  EXPECT_EQ(hex(net.decision_digest), hex(p.decision_digest));
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, NetFingerprint, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(info.param.scenario);
    });

}  // namespace
}  // namespace mhca
