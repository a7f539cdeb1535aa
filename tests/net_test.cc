// Tests for src/net: control-channel flooding, agent-local protocol state,
// and the full message-level runtime — including the key integration
// property that the message-level protocol computes *identical* decisions
// to the lockstep engine from purely local knowledge.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bandit/estimates.h"
#include "bandit/policy.h"
#include "bandit/simple_policies.h"
#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "mwis/distributed_ptas.h"
#include "net/control_channel.h"
#include "net/faults.h"
#include "net/member_index.h"
#include "net/oracle.h"
#include "net/runtime.h"
#include "util/rng.h"

namespace mhca {
namespace {

using net::ControlChannel;
using net::DistributedRuntime;
using net::Message;
using net::MsgType;
using net::NetConfig;
using net::NetRoundResult;
using net::VertexAgent;

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();  // clean-wire floods require it, as over every ECG graph
  return g;
}

TEST(ControlChannel, FloodReachesExactlyTtlBall) {
  Graph g = path_graph(10);
  ControlChannel ch(g);
  Message m;
  m.type = MsgType::kHello;
  m.origin = 5;
  std::set<int> reached;
  ch.flood(m, 2, [&](int v, const Message&) { reached.insert(v); });
  EXPECT_EQ(reached, (std::set<int>{3, 4, 6, 7}));  // origin excluded
  // Messages counted include the origin's own transmission.
  EXPECT_EQ(ch.stats().messages, 5);
  EXPECT_EQ(ch.stats().floods, 1);
}

TEST(ControlChannel, TtlZeroDeliversNobody) {
  Graph g = path_graph(3);
  ControlChannel ch(g);
  Message m;
  m.origin = 1;
  int delivered = 0;
  ch.flood(m, 0, [&](int, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.stats().messages, 1);
}

TEST(ControlChannel, TimeslotCharging) {
  Graph g = path_graph(3);
  ControlChannel ch(g);
  ch.charge_timeslots(5);
  ch.charge_timeslots(7);
  EXPECT_EQ(ch.stats().mini_timeslots, 12);
  ch.reset_stats();
  EXPECT_EQ(ch.stats().mini_timeslots, 0);
}

class NetFixture : public ::testing::Test {
 protected:
  NetFixture()
      : rng_(11),
        cg_(random_geometric_avg_degree(12, 4.0, rng_)),
        ecg_(cg_, 3),
        model_(12, 3, rng_) {}

  Rng rng_;
  ConflictGraph cg_;
  ExtendedConflictGraph ecg_;
  GaussianChannelModel model_;
};

TEST_F(NetFixture, RoundProducesIndependentStrategy) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  const NetRoundResult res = rt.step();
  EXPECT_EQ(res.round, 1);
  EXPECT_FALSE(res.strategy.empty());
  EXPECT_TRUE(ecg_.graph().is_independent_set(res.strategy));
  EXPECT_GT(res.observed_sum, 0.0);
  EXPECT_GE(res.mini_rounds, 1);
}

TEST_F(NetFixture, AgentsStoreOnlyLocalTables) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  // Space bound O(m): every agent's table is at most the whole graph and at
  // least its direct neighborhood.
  for (int v = 0; v < ecg_.num_vertices(); ++v) {
    const auto& a = rt.agent(v);
    EXPECT_LT(a.table_size(),
              static_cast<std::size_t>(ecg_.num_vertices()));
    EXPECT_GE(a.table_size(),
              static_cast<std::size_t>(ecg_.graph().degree(v)));
  }
  EXPECT_GT(rt.max_table_size(), 0u);
}

TEST_F(NetFixture, EstimatesUpdateOnlyForTransmitters) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  const NetRoundResult res = rt.step();
  std::set<int> winners(res.strategy.begin(), res.strategy.end());
  for (int v = 0; v < ecg_.num_vertices(); ++v) {
    const auto& a = rt.agent(v);
    if (winners.count(v)) {
      EXPECT_EQ(a.own_count(), 1);
      EXPECT_GT(a.own_mean(), 0.0);
    } else {
      EXPECT_EQ(a.own_count(), 0);
    }
  }
}

TEST_F(NetFixture, MessageVolumeGrowsWithRounds) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  rt.step();
  const auto m1 = rt.channel_stats().messages;
  rt.step();
  const auto m2 = rt.channel_stats().messages;
  EXPECT_GT(m1, 0);
  EXPECT_GT(m2, m1);
  EXPECT_GT(rt.channel_stats().mini_timeslots, 0);
}

// --- The central integration property: message-level protocol ==
// lockstep engine, round for round. ---
class Equivalence : public ::testing::TestWithParam<int> {};

TEST_P(Equivalence, NetRuntimeMatchesLockstepEngine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.5, rng);
  const int m_channels = 3;
  ExtendedConflictGraph ecg(cg, m_channels);
  GaussianChannelModel model(10, m_channels, rng);

  NetConfig ncfg;
  ncfg.solver.r = 2;
  ncfg.solver.D = 4;
  ncfg.policy = PolicyKind::kCab;
  DistributedRuntime rt(ecg, model, ncfg);

  // Lockstep replica: global estimates + engine + same policy.
  DistributedPtasConfig dcfg;
  dcfg.solver.parallelism = 0;
  dcfg.solver.r = 2;
  dcfg.solver.D = 4;
  DistributedRobustPtas engine(ecg.graph(), dcfg);
  auto policy = make_policy(PolicyKind::kCab);
  ArmEstimates est(ecg.num_vertices());

  std::vector<double> weights;
  for (std::int64_t t = 1; t <= 15; ++t) {
    const NetRoundResult net_res = rt.step();

    policy->compute_indices(est, t, weights);
    const DistributedPtasResult lock = engine.run(weights);
    ASSERT_EQ(net_res.strategy, lock.winners) << "round " << t;
    for (int v : lock.winners)
      est.observe(v, model.sample(ecg.master_of(v), ecg.channel_of(v), t));
  }

  // After the horizon the learning state must agree too.
  for (int v = 0; v < ecg.num_vertices(); ++v) {
    EXPECT_EQ(rt.agent(v).own_count(), est.count(v));
    EXPECT_NEAR(rt.agent(v).own_mean(), est.mean(v), 1e-12);
  }
}

TEST_P(Equivalence, LlrPolicyAlsoMatches) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  ConflictGraph cg = random_geometric_avg_degree(8, 3.0, rng);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(8, 2, rng);

  NetConfig ncfg;
  ncfg.policy = PolicyKind::kLlr;
  DistributedRuntime rt(ecg, model, ncfg);

  DistributedPtasConfig dcfg;
  dcfg.solver.parallelism = 0;
  dcfg.solver.D = 4;
  DistributedRobustPtas engine(ecg.graph(), dcfg);
  PolicyParams params;
  params.llr_max_strategy_len = ecg.num_nodes();
  auto policy = make_policy(PolicyKind::kLlr, params);
  ArmEstimates est(ecg.num_vertices());

  std::vector<double> weights;
  for (std::int64_t t = 1; t <= 10; ++t) {
    const NetRoundResult net_res = rt.step();
    policy->compute_indices(est, t, weights);
    const DistributedPtasResult lock = engine.run(weights);
    ASSERT_EQ(net_res.strategy, lock.winners) << "round " << t;
    for (int v : lock.winners)
      est.observe(v, model.sample(ecg.master_of(v), ecg.channel_of(v), t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence, ::testing::Range(0, 8));

TEST_F(NetFixture, MessageBillMatchesLockstepAccounting) {
  // The real floods (LD + LB transmissions, and WB transmissions) must
  // equal the lockstep engine's analytic ball-size accounting, decision
  // for decision — the §IV-C communication-complexity numbers are the
  // same whichever implementation you measure.
  net::NetConfig ncfg;
  DistributedRuntime rt(ecg_, model_, ncfg);

  DistributedPtasConfig dcfg;
  dcfg.solver.parallelism = 0;
  dcfg.solver.D = ncfg.solver.D;
  dcfg.count_messages = true;
  DistributedRobustPtas engine(ecg_.graph(), dcfg);
  auto policy = make_policy(PolicyKind::kCab);
  ArmEstimates est(ecg_.num_vertices());

  std::vector<double> weights;
  std::vector<int> prev;
  for (std::int64_t t = 1; t <= 6; ++t) {
    const auto before = rt.channel_stats();
    const NetRoundResult net_res = rt.step();
    const auto after = rt.channel_stats();

    policy->compute_indices(est, t, weights);
    std::int64_t lock_wb = 0;
    if (!prev.empty()) lock_wb = engine.weight_broadcast_messages(prev);
    const DistributedPtasResult lock = engine.run(weights);
    ASSERT_EQ(net_res.strategy, lock.winners);

    const std::int64_t net_ldlb =
        (after.of_type(net::MsgType::kLeaderDeclare) -
         before.of_type(net::MsgType::kLeaderDeclare)) +
        (after.of_type(net::MsgType::kDetermination) -
         before.of_type(net::MsgType::kDetermination));
    EXPECT_EQ(net_ldlb, lock.total_messages) << "round " << t;
    const std::int64_t net_wb =
        after.of_type(net::MsgType::kWeightUpdate) -
        before.of_type(net::MsgType::kWeightUpdate);
    EXPECT_EQ(net_wb, lock_wb) << "round " << t;

    prev = lock.winners;
    for (int v : lock.winners)
      est.observe(v, model_.sample(ecg_.master_of(v), ecg_.channel_of(v), t));
  }
}

TEST_F(NetFixture, UnlimitedMiniRoundsMarkEveryone) {
  NetConfig cfg;
  cfg.solver.D = 0;  // run until all marked
  DistributedRuntime rt(ecg_, model_, cfg);
  const NetRoundResult res = rt.step();
  EXPECT_TRUE(res.all_marked);
}

TEST_F(NetFixture, GreedyLocalSolverWorks) {
  NetConfig cfg;
  cfg.solver.local_solver = LocalSolverKind::kGreedy;
  DistributedRuntime rt(ecg_, model_, cfg);
  const NetRoundResult res = rt.step();
  EXPECT_TRUE(ecg_.graph().is_independent_set(res.strategy));
}

TEST(NetValidation, DimensionMismatchRejected) {
  Rng rng(3);
  ConflictGraph cg = linear_network(4);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel wrong(5, 2, rng);
  EXPECT_THROW(DistributedRuntime(ecg, wrong, NetConfig{}), std::logic_error);
}

// --- Fault plane: billing, determinism, actionable validation ---

TEST(ControlChannelFaults, InvalidDropProbErrorNamesOffendingValue) {
  Graph g = path_graph(4);
  net::FaultProfile bad;
  bad.drop_prob = 1.0;
  try {
    ControlChannel ch(g, bad);
    FAIL() << "expected the fault profile to be rejected";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drop_prob = 1.000000"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[0, 1)"), std::string::npos) << msg;
  }
}

TEST(ControlChannelFaults, DuplicatesAreBilledAsTransmissions) {
  Graph g = path_graph(10);
  net::FaultProfile p;
  p.dup_prob = 0.9;
  p.seed = 5;
  ControlChannel ch(g, p);
  Message m;
  m.type = MsgType::kHello;
  m.origin = 5;
  int delivered = 0;
  ch.flood(m, 2, [&](int, const Message&) { ++delivered; });
  // The ttl-2 ball holds 4 receivers and the fault-free bill is 5 (origin
  // included). Every duplicate is one extra delivery *and* one extra billed
  // transmission — duplicated airtime is not free.
  EXPECT_GT(ch.stats().duplicates, 0);
  EXPECT_EQ(delivered, 4 + ch.stats().duplicates);
  EXPECT_EQ(ch.stats().messages, 5 + ch.stats().duplicates);
  EXPECT_EQ(ch.stats().of_type(MsgType::kHello), ch.stats().messages);
}

TEST(ControlChannelFaults, SameFloodReorderIsDeterministicAndLossless) {
  Graph g = path_graph(12);
  auto run = [&](std::vector<int>& order) {
    net::FaultProfile p;
    p.reorder_prob = 0.9;
    p.seed = 9;
    ControlChannel ch(g, p);
    Message m;
    m.type = MsgType::kWeightUpdate;
    m.origin = 6;
    ch.flood(m, 3, [&](int v, const Message&) { order.push_back(v); });
    return ch.stats().deferred;
  };
  std::vector<int> o1, o2;
  const auto d1 = run(o1);
  const auto d2 = run(o2);
  EXPECT_EQ(o1, o2);  // same (seed, schedule) => same delivery order
  EXPECT_EQ(d1, d2);
  EXPECT_GT(d1, 0);
  // Reordering permutes deliveries but loses and invents nothing.
  std::vector<int> sorted = o1;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{3, 4, 5, 7, 8, 9}));
}

TEST(ControlChannelFaults, DelayedDeliveriesSurfaceAtTheirSlot) {
  Graph g = path_graph(10);
  net::FaultProfile p;
  p.reorder_prob = 0.9;
  p.delay_slots_max = 3;
  p.seed = 4;
  ControlChannel ch(g, p);
  ch.begin_slot(1, [](int, const Message&) {});
  Message m;
  m.type = MsgType::kHello;
  m.origin = 5;
  int now = 0;
  ch.flood(m, 2, [&](int, const Message&) { ++now; });
  ASSERT_GT(ch.pending_deliveries(), 0u);
  int later = 0;
  for (std::int64_t round = 2; round <= 5; ++round)
    ch.begin_slot(round, [&](int, const Message&) { ++later; });
  // Every deferred delivery lands within delay_slots_max slots; none is
  // lost, none is delivered twice.
  EXPECT_EQ(now + later, 4);
  EXPECT_EQ(ch.pending_deliveries(), 0u);
}

// --- View-synchronous membership ---

NetConfig view_sync_config() {
  NetConfig cfg;
  cfg.membership = net::MembershipMode::kViewSync;
  return cfg;
}

TEST_F(NetFixture, FaultFreeViewSyncMatchesOmniscientEveryRound) {
  DistributedRuntime omniscient(ecg_, model_, NetConfig{});
  DistributedRuntime viewsync(ecg_, model_, view_sync_config());
  for (int t = 1; t <= 20; ++t) {
    const NetRoundResult a = omniscient.step();
    const NetRoundResult b = viewsync.step();
    ASSERT_EQ(a.strategy, b.strategy) << "round " << t;
    EXPECT_EQ(b.tx_abstained, 0);
  }
  // A reliable wire never triggers the robustness machinery.
  const net::RuntimeCounters c = viewsync.counters();
  EXPECT_EQ(c.timeouts, 0);
  EXPECT_EQ(c.view_changes, 0);
  EXPECT_EQ(c.stale_decisions, 0);
}

TEST_F(NetFixture, ConvergenceOracleAcceptsFaultFreeViewSyncRun) {
  DistributedRuntime rt(ecg_, model_, view_sync_config());
  for (int t = 1; t <= 8; ++t) rt.step();
  const net::ConvergenceReport rep = net::check_convergence(rt, ecg_.graph());
  EXPECT_TRUE(rep.members_match);
  EXPECT_TRUE(rep.adjacency_match);
  EXPECT_TRUE(rep.stats_match);
  EXPECT_TRUE(rep.no_suspects);
  EXPECT_TRUE(rep.views_equal);
  EXPECT_TRUE(rep.no_pending);
  ASSERT_TRUE(rep.converged());
  const std::vector<int> predicted =
      net::lockstep_decision(rt, ecg_.graph(), rt.rounds_run() + 1);
  EXPECT_EQ(rt.step().strategy, predicted);
}

TEST_F(NetFixture, LivenessProbesAndViewChangesAreBilled) {
  NetConfig clean = view_sync_config();
  NetConfig lossy = view_sync_config();
  lossy.faults.drop_prob = 0.4;
  lossy.faults.seed = 21;
  DistributedRuntime rt_clean(ecg_, model_, clean);
  DistributedRuntime rt_lossy(ecg_, model_, lossy);
  for (int t = 1; t <= 20; ++t) {
    rt_clean.step();
    rt_lossy.step();
  }
  const net::RuntimeCounters c = rt_lossy.counters();
  EXPECT_GT(c.timeouts, 0);
  EXPECT_GT(c.retries, 0);
  EXPECT_GT(c.view_changes, 0);
  // Retried hellos and view-change floods are real airtime: the lossy run
  // floods strictly more often than the clean one (drops remove
  // transmissions, never floods).
  EXPECT_GT(rt_lossy.channel_stats().floods, rt_clean.channel_stats().floods);
  EXPECT_GT(rt_lossy.channel_stats().of_type(MsgType::kViewChange), 0);
}

TEST(NetLinearWorstCase, OneLeaderPerMiniRound) {
  // The Fig. 5 pathology, at message level: decreasing weights on a path.
  // We drive a single round with D = 0 and verify it still terminates and
  // produces a feasible maximal-ish strategy.
  const int n = 15;
  ConflictGraph cg = linear_network(n);
  ExtendedConflictGraph ecg(cg, 1);
  // Deterministic means, decreasing along the path.
  std::vector<double> rates;
  for (int i = 0; i < n; ++i)
    rates.push_back(1350.0 - 80.0 * static_cast<double>(i));
  GaussianChannelModel model(n, 1, rates, 0.0, 1);
  NetConfig cfg;
  cfg.solver.D = 0;
  DistributedRuntime rt(ecg, model, cfg);
  const NetRoundResult res = rt.step();
  EXPECT_TRUE(res.all_marked);
  // Needs about n / (2r+1) = 3 mini-rounds.
  EXPECT_GE(res.mini_rounds, 3);
  EXPECT_TRUE(ecg.graph().is_independent_set(res.strategy));
}

// ------------------------------------------- agent table (dense layout)

Message hello_from(int origin, std::vector<int> neighbors, double mean,
                   std::int64_t count, std::int64_t round = 0) {
  Message m;
  m.type = MsgType::kHello;
  m.origin = origin;
  m.round = round;
  m.neighbor_list = std::move(neighbors);
  m.mean = mean;
  m.count = count;
  return m;
}

// A view-sync agent 0 on the path 0 - 1 - 2 (r = 1), with its own index
// at 0.5 under the greedy policy (index = mean once played).
VertexAgent viewsync_agent(double mean1, net::LivenessParams liveness = {}) {
  VertexAgent a(0, 1, net::MembershipMode::kViewSync, liveness);
  a.set_own_neighbors({1});
  a.on_membership_message(hello_from(1, {0, 2}, mean1, 3), 0);
  a.on_membership_message(hello_from(2, {1}, 0.2, 3), 0);
  a.finalize_discovery();
  a.observe(0.5);
  return a;
}

TEST(AgentTable, AdmittedMemberUpdatesKnowledgeButNotTableUntilFlush) {
  const GreedyIndexPolicy greedy;
  VertexAgent a = viewsync_agent(0.1);
  EXPECT_EQ(a.members(), (std::vector<int>{0, 1, 2}));
  a.begin_round(greedy, 1, 3);
  EXPECT_TRUE(a.should_lead());

  // Member 3 enters the horizon: admitted into knowledge, no table slot yet.
  a.on_membership_message(hello_from(3, {2}, 0.9, 4, 1), 1);
  EXPECT_EQ(a.members(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(a.table_size(), 2u);
  EXPECT_EQ(a.member_stats(3), (std::pair<double, std::int64_t>{0.9, 4}));
  // Its statistics keep flowing into knowledge only.
  a.on_membership_message(hello_from(3, {2}, 0.95, 6, 2), 2);
  Message wu;
  wu.type = MsgType::kWeightUpdate;
  wu.origin = 3;
  wu.round = 2;
  wu.mean = 0.97;
  wu.count = 7;
  a.on_weight_update(wu);
  EXPECT_EQ(a.member_stats(3), (std::pair<double, std::int64_t>{0.97, 7}));
  a.begin_round(greedy, 2, 3);
  EXPECT_TRUE(a.should_lead()) << "a member without a slot cannot compete";

  // The rebuild gives it a slot seeded from the newest knowledge.
  a.flush_membership();
  EXPECT_EQ(a.members(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(a.table_size(), 3u);
  EXPECT_EQ(a.view().seq, 1);
  a.begin_round(greedy, 3, 3);
  EXPECT_FALSE(a.should_lead());
}

TEST(AgentTable, EvictedMemberKeepsItsSlotUntilFlush) {
  const GreedyIndexPolicy greedy;
  net::LivenessParams liveness;
  liveness.hello_timeout_slots = 2;
  liveness.hello_max_retries = 0;  // evict on the first timeout
  VertexAgent a = viewsync_agent(0.9, liveness);
  a.on_membership_message(hello_from(2, {1}, 0.2, 3, 10), 10);
  EXPECT_TRUE(a.liveness_pass(10).empty());
  EXPECT_EQ(a.member_neighbors(1), nullptr);  // gone from knowledge
  EXPECT_FALSE(a.has_suspects());
  EXPECT_EQ(a.members(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(a.table_size(), 2u);

  // The slot still competes and still takes verdicts.
  a.begin_round(greedy, 10, 3);
  EXPECT_FALSE(a.should_lead());
  Message det;
  det.type = MsgType::kDetermination;
  det.origin = 1;
  det.round = 10;
  det.statuses = {{1, VertexStatus::kLoser}};
  a.on_determination(det);
  EXPECT_TRUE(a.should_lead());

  a.flush_membership();
  EXPECT_EQ(a.members(), (std::vector<int>{0, 2}));
  EXPECT_EQ(a.table_size(), 1u);
  EXPECT_EQ(a.view().seq, 1);
  a.begin_round(greedy, 11, 3);
  EXPECT_TRUE(a.should_lead());
}

TEST_F(NetFixture, TableSizeIsMembersMinusSelfAfterDiscovery) {
  EXPECT_EQ(VertexAgent(0, 2).table_size(), 0u);
  for (const auto mode :
       {net::MembershipMode::kOmniscient, net::MembershipMode::kViewSync}) {
    NetConfig cfg;
    cfg.membership = mode;
    DistributedRuntime rt(ecg_, model_, cfg);
    for (int v = 0; v < ecg_.num_vertices(); ++v) {
      const auto& a = rt.agent(v);
      ASSERT_FALSE(a.members().empty());
      EXPECT_EQ(a.table_size(), a.members().size() - 1);
      EXPECT_TRUE(std::is_sorted(a.members().begin(), a.members().end()));
    }
  }
}

TEST(AgentTable, OmniscientMemberStatsAreTheCarriedHelloStats) {
  VertexAgent a(1, 1);
  a.set_own_neighbors({0, 2});
  // Out of id order, and member 2 heard twice: the later copy wins.
  a.on_hello(hello_from(2, {1}, 0.1, 1));
  a.on_hello(hello_from(0, {1}, 0.3, 7));
  a.on_hello(hello_from(2, {1}, 0.6, 2));
  a.finalize_discovery();
  EXPECT_EQ(a.members(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(a.table_size(), 2u);
  EXPECT_EQ(a.member_stats(0), (std::pair<double, std::int64_t>{0.3, 7}));
  EXPECT_EQ(a.member_stats(2), (std::pair<double, std::int64_t>{0.6, 2}));
}

TEST_F(NetFixture, OmniscientDiscoveryUnderDuplicatesBuildsTheCleanTable) {
  NetConfig dup;
  dup.faults.dup_prob = 0.5;
  dup.faults.seed = 3;
  DistributedRuntime clean(ecg_, model_, NetConfig{});
  DistributedRuntime noisy(ecg_, model_, dup);
  EXPECT_GT(noisy.channel_stats().duplicates, 0);
  for (int v = 0; v < ecg_.num_vertices(); ++v) {
    const auto& a = clean.agent(v);
    const auto& b = noisy.agent(v);
    ASSERT_EQ(a.members(), b.members());
    EXPECT_EQ(a.table_size(), b.table_size());
    for (int m : a.members()) {
      if (m != v) EXPECT_EQ(a.member_stats(m), b.member_stats(m));
    }
  }
  // Same tables, same local graphs: the same decisions.
  for (int t = 0; t < 3; ++t)
    EXPECT_EQ(clean.step().strategy, noisy.step().strategy);
}

// ------------------------------------------------ member index (O(1) ids)

/// The position std::lower_bound finds for `id` in `ids`, or -1.
int sorted_position(const std::vector<int>& ids, int id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id ? static_cast<int>(it - ids.begin())
                                      : -1;
}

/// Every id in [min - 2, max + 2] (capped at `span` ids from each end), plus
/// 0 and INT_MAX, maps through `find` exactly as lower_bound maps it.
template <typename Find>
void expect_agrees_with_lower_bound(const std::vector<int>& ids, Find find,
                                    long long span = 5000) {
  std::vector<long long> probes = {0, INT_MAX, -1, INT_MIN};
  if (!ids.empty()) {
    const long long lo = static_cast<long long>(ids.front()) - 2;
    const long long hi = static_cast<long long>(ids.back()) + 2;
    for (long long x = lo; x <= hi && x < lo + span; ++x) probes.push_back(x);
    for (long long x = std::max(lo, hi - span); x <= hi; ++x)
      probes.push_back(x);
    probes.insert(probes.end(), ids.begin(), ids.end());
  }
  for (const long long x : probes) {
    if (x < INT_MIN || x > INT_MAX) continue;
    const int id = static_cast<int>(x);
    ASSERT_EQ(find(id), sorted_position(ids, id)) << "id " << id;
  }
}

void expect_index_agrees(const std::vector<int>& ids) {
  net::MemberIndex index;
  index.build(ids);
  if (!ids.empty() && ids.size() <= net::MemberIndex::kMaxIndexed) {
    EXPECT_TRUE(std::has_single_bit(index.capacity()));
    EXPECT_GE(index.capacity(), 2 * ids.size());  // load factor <= 1/2
    EXPECT_LE(index.capacity() * sizeof(std::uint16_t), 8 * ids.size());
  }
  expect_agrees_with_lower_bound(
      ids, [&](int id) { return index.find(id, ids); });
}

TEST(MemberIndex, AgreesWithLowerBoundOnRandomSortedLists) {
  Rng rng(17);
  for (const int m : {0, 1, 2, 3, 7, 64, 65, 300, 4097}) {
    for (const int spread : {1, 3, 1000}) {
      std::set<int> pick;
      while (static_cast<int>(pick.size()) < m)
        pick.insert(static_cast<int>(rng.uniform_int(0, m * spread + 5)));
      expect_index_agrees(std::vector<int>(pick.begin(), pick.end()));
    }
  }
  expect_index_agrees({0});
  expect_index_agrees({INT_MAX});
  expect_index_agrees({0, INT_MAX});
  expect_index_agrees({-5, 0, 1, INT_MAX - 1, INT_MAX});
}

TEST(MemberIndex, IdsCollidingUnderTheCapacityMaskAllResolve) {
  // 64 ids give 128 slots. Pick 64 ids that all hash to the last slot, so
  // every probe wraps around the end of the table.
  constexpr int kM = 64;
  std::vector<int> first_ids(kM);
  std::iota(first_ids.begin(), first_ids.end(), 0);
  net::MemberIndex probe;
  probe.build(first_ids);
  ASSERT_EQ(probe.capacity(), 2u * kM);
  const std::uint32_t last = static_cast<std::uint32_t>(probe.capacity() - 1);
  std::vector<int> ids;
  for (int id = 0; static_cast<int>(ids.size()) < kM; ++id)
    if (probe.home(id) == last) ids.push_back(id);
  expect_index_agrees(ids);
  // Half of them colliding, half spread out, in one list.
  std::vector<int> mixed(ids.begin(), ids.begin() + kM / 2);
  for (int id = ids.back() + 1; static_cast<int>(mixed.size()) < kM; id += 7)
    mixed.push_back(id);
  expect_index_agrees(mixed);
}

TEST(MemberIndex, ListsTooLongForASlotFallBackToBinarySearch) {
  std::vector<int> ids(net::MemberIndex::kMaxIndexed + 1);
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<int>(3 * i + 1);
  net::MemberIndex index;
  index.build(ids);
  EXPECT_EQ(index.capacity(), 0u);
  expect_agrees_with_lower_bound(
      ids, [&](int id) { return index.find(id, ids); }, 1000);
}

void expect_local_ids_agree(const VertexAgent& a) {
  expect_agrees_with_lower_bound(
      a.members(), [&](int id) { return a.local_id(id); });
}

TEST(AgentTable, LocalIdAgreesWithLowerBoundWhereverSelfSits) {
  // Before discovery the index is empty: nothing is a member.
  const VertexAgent undiscovered(5, 1);
  EXPECT_TRUE(undiscovered.members().empty());
  EXPECT_EQ(undiscovered.local_id(5), -1);
  expect_local_ids_agree(undiscovered);

  const auto discovered = [](int self, std::vector<int> others) {
    VertexAgent a(self, 1);
    a.set_own_neighbors(others);
    for (int o : others) a.on_hello(hello_from(o, {self}, 0.0, 0));
    a.finalize_discovery();
    return a;
  };
  const VertexAgent first = discovered(0, {3, 7, 9});
  EXPECT_EQ(first.local_id(0), 0);
  expect_local_ids_agree(first);
  const VertexAgent last = discovered(10, {3, 7, 9});
  EXPECT_EQ(last.local_id(10), 3);
  expect_local_ids_agree(last);
  const VertexAgent alone = discovered(4, {});
  EXPECT_EQ(alone.members(), (std::vector<int>{4}));
  EXPECT_EQ(alone.local_id(4), 0);
  expect_local_ids_agree(alone);
  const VertexAgent extremes = discovered(1000, {0, INT_MAX});
  EXPECT_EQ(extremes.local_id(INT_MAX), 2);
  expect_local_ids_agree(extremes);
}

TEST(AgentTable, LocalIdFollowsAViewSyncRebuild) {
  VertexAgent a = viewsync_agent(0.1);
  expect_local_ids_agree(a);
  // An admission is invisible to the index until the rebuild.
  a.on_membership_message(hello_from(3, {2}, 0.9, 4, 1), 1);
  EXPECT_EQ(a.local_id(3), -1);
  a.flush_membership();
  EXPECT_EQ(a.members(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(a.local_id(3), 3);
  expect_local_ids_agree(a);
}

TEST_F(NetFixture, EveryAgentsLocalIdsAgreeWithLowerBound) {
  for (const auto mode :
       {net::MembershipMode::kOmniscient, net::MembershipMode::kViewSync}) {
    NetConfig cfg;
    cfg.membership = mode;
    DistributedRuntime rt(ecg_, model_, cfg);
    rt.step();
    for (int v = 0; v < ecg_.num_vertices(); ++v)
      expect_local_ids_agree(rt.agent(v));
  }
}

TEST_F(NetFixture, VerdictCountersCountWhatTheAgentsApplied) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  for (int t = 0; t < 3; ++t) rt.step();
  const net::RuntimeCounters c = rt.counters();
  EXPECT_GT(c.verdicts_applied, 0);
  EXPECT_LE(c.verdicts_applied, c.verdicts_received);
}

// --------------------------------------------- clean-wire reach memo

TEST(ControlChannel, ReachMemoFollowsTopologyDeltas) {
  Graph g = path_graph(10);
  ControlChannel ch(g);
  Message m;
  m.type = MsgType::kWeightUpdate;
  m.origin = 5;
  const auto flood_and_collect = [&](int ttl) {
    std::vector<int> got;
    ch.flood(m, ttl, [&](int v, const Message&) { got.push_back(v); });
    return got;
  };
  const auto fresh_reach = [&](int ttl) {
    std::vector<int> want = k_hop_neighborhood(g, m.origin, ttl);
    std::erase(want, m.origin);
    return want;
  };

  EXPECT_EQ(flood_and_collect(2), fresh_reach(2));
  EXPECT_EQ(ch.stats().reach_computed, 1);
  EXPECT_EQ(flood_and_collect(2), fresh_reach(2));  // served from the memo
  EXPECT_EQ(ch.stats().reach_computed, 1);
  EXPECT_EQ(flood_and_collect(3), fresh_reach(3));  // another ttl: a miss
  EXPECT_EQ(ch.stats().reach_computed, 2);

  // Patch the topology under the channel: the next flood sees the new edge.
  const std::pair<int, int> chord{6, 9};
  g.apply_delta(std::span(&chord, 1), {});
  EXPECT_EQ(flood_and_collect(2), fresh_reach(2));
  EXPECT_EQ(flood_and_collect(2), (std::vector<int>{3, 4, 6, 7, 9}));
  EXPECT_EQ(ch.stats().reach_computed, 3);
  // And the removal of one.
  const std::pair<int, int> cut{4, 5};
  g.apply_delta({}, std::span(&cut, 1));
  EXPECT_EQ(flood_and_collect(2), fresh_reach(2));
  EXPECT_EQ(ch.stats().reach_computed, 4);
  // The ttl-3 entry was computed two topologies ago: stale, so a miss.
  EXPECT_EQ(flood_and_collect(3), fresh_reach(3));
  EXPECT_EQ(ch.stats().reach_computed, 5);
  EXPECT_EQ(ch.stats().floods, 7);
}

TEST(ControlChannel, CleanFloodRequiresFinalizedTopology) {
  Graph g = path_graph(4);
  g.add_edge(0, 3);  // back in the build phase: no topology version
  ControlChannel ch(g);
  Message m;
  m.origin = 1;
  EXPECT_THROW(ch.flood(m, 1, [](int, const Message&) {}), std::logic_error);
}

TEST(ControlChannel, FaultyFloodsNeverUseTheReachMemo) {
  Graph g = path_graph(10);
  net::FaultProfile lossy;
  lossy.drop_prob = 0.2;
  ControlChannel ch(g, lossy);
  Message m;
  m.type = MsgType::kHello;
  m.origin = 5;
  for (int i = 0; i < 3; ++i) ch.flood(m, 3, [](int, const Message&) {});
  EXPECT_EQ(ch.stats().reach_computed, 0);
}

}  // namespace
}  // namespace mhca
