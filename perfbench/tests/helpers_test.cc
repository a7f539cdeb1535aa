// Tests of the benchmark's own helpers: the Chrome-trace fold, the tail
// percentile rule, the probes' slot-boundary bookkeeping on a scripted
// clock, and the process CPU clock the untraced runs read.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bandit/policy.h"
#include "fold.h"
#include "probes.h"
#include "speed.h"
#include "stats.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {
namespace {

std::string trace(const std::string& events) {
  return "{\"traceEvents\": [" + events + "]}";
}

std::string ev(const char* ph, int tid, double ts, const char* name = nullptr,
               const char* args = nullptr) {
  std::string s = std::string("{\"ph\": \"") + ph +
                  "\", \"pid\": 0, \"tid\": " + std::to_string(tid) +
                  ", \"ts\": " + std::to_string(ts);
  if (name) s += std::string(", \"name\": \"") + name + "\"";
  if (args) s += std::string(", \"args\": ") + args;
  return s + "}";
}

TEST(TraceFold, NestedSpansOnOneTrack) {
  // a [0,100] holds b [10,30] and c [40,50]; b holds d [15,20] (µs).
  const std::string t = trace(
      ev("B", 1, 0, "a") + "," + ev("B", 1, 10, "b") + "," +
      ev("B", 1, 15, "d") + "," + ev("E", 1, 20) + "," + ev("E", 1, 30) +
      "," + ev("B", 1, 40, "c") + "," + ev("E", 1, 50) + "," +
      ev("E", 1, 100));
  TraceFold f;
  std::string err;
  ASSERT_TRUE(fold_chrome_trace(t, f, &err)) << err;
  EXPECT_DOUBLE_EQ(f.get("a").inclusive_ms, 0.100);
  EXPECT_DOUBLE_EQ(f.get("a").self_ms, 0.070);
  EXPECT_DOUBLE_EQ(f.get("b").inclusive_ms, 0.020);
  EXPECT_DOUBLE_EQ(f.get("b").self_ms, 0.015);
  EXPECT_DOUBLE_EQ(f.get("c").self_ms, 0.010);
  EXPECT_DOUBLE_EQ(f.get("d").self_ms, 0.005);
  EXPECT_EQ(f.get("a").count, 1);
  EXPECT_EQ(f.get("missing").count, 0);
  // a's self time, split by position between its children.
  EXPECT_DOUBLE_EQ(f.gap("a|^|b"), 0.010);
  EXPECT_DOUBLE_EQ(f.gap("a|b|c"), 0.010);
  EXPECT_DOUBLE_EQ(f.gap("a|c|$"), 0.050);
  EXPECT_DOUBLE_EQ(f.gap("b|d|$"), 0.010);
  EXPECT_DOUBLE_EQ(f.gap("a|b|$"), 0.0);
}

TEST(TraceFold, ChildrenOnOtherTracksContainedInTime) {
  // Phase p (tid 2) [0,100] with floods (tid 3) at [10,40] and [60,70]; a
  // flood outside p [120,130] is nobody's child.
  const std::string t = trace(
      ev("B", 2, 0, "p") + "," + ev("B", 3, 10, "flood") + "," +
      ev("E", 3, 40) + "," + ev("B", 3, 60, "flood") + "," + ev("E", 3, 70) +
      "," + ev("E", 2, 100) + "," + ev("B", 3, 120, "flood") + "," +
      ev("E", 3, 130));
  TraceFold f;
  ASSERT_TRUE(fold_chrome_trace(t, f, nullptr));
  EXPECT_DOUBLE_EQ(f.get("p").self_ms, 0.060);
  EXPECT_DOUBLE_EQ(f.get("flood").inclusive_ms, 0.050);
  EXPECT_DOUBLE_EQ(f.get("flood").self_ms, 0.050);
  EXPECT_EQ(f.get("flood").count, 3);
}

TEST(TraceFold, OverlappingChildrenAreCountedOnce) {
  // r [0,100] (tid 2) holds q [10,50] (tid 2); x [40,60] (tid 3) is not
  // inside q, so its parent is r: r's children cover [10,60].
  const std::string t = trace(
      ev("B", 2, 0, "r") + "," + ev("B", 2, 10, "q") + "," +
      ev("B", 3, 40, "x") + "," + ev("E", 2, 50) + "," + ev("E", 3, 60) +
      "," + ev("E", 2, 100));
  TraceFold f;
  ASSERT_TRUE(fold_chrome_trace(t, f, nullptr));
  EXPECT_DOUBLE_EQ(f.get("r").self_ms, 0.050);
  EXPECT_DOUBLE_EQ(f.get("q").self_ms, 0.040);
  EXPECT_DOUBLE_EQ(f.get("x").self_ms, 0.020);
  EXPECT_DOUBLE_EQ(f.gap("r|^|q"), 0.010);
  EXPECT_DOUBLE_EQ(f.gap("r|q|x"), 0.0);
  EXPECT_DOUBLE_EQ(f.gap("r|x|$"), 0.040);
}

TEST(TraceFold, IdenticalIntervalsOnTwoTracksNestUnderTheLowerTrack) {
  const std::string t =
      trace(ev("B", 2, 0, "outer") + "," + ev("B", 3, 0, "inner") + "," +
            ev("E", 3, 10) + "," + ev("E", 2, 10));
  TraceFold f;
  ASSERT_TRUE(fold_chrome_trace(t, f, nullptr));
  EXPECT_DOUBLE_EQ(f.get("outer").self_ms, 0.0);
  EXPECT_DOUBLE_EQ(f.get("inner").self_ms, 0.010);
}

TEST(TraceFold, SumsNumericArgsAndIgnoresInstants) {
  const std::string t = trace(
      ev("B", 1, 0, "s", "{\"leaders\":3,\"tag\":\"x\"}") + "," +
      ev("E", 1, 5) + "," + ev("i", 1, 6, "mark") + "," +
      ev("B", 1, 7, "s", "{\"leaders\":4}") + "," + ev("E", 1, 9));
  TraceFold f;
  ASSERT_TRUE(fold_chrome_trace(t, f, nullptr));
  EXPECT_EQ(f.get("s").count, 2);
  EXPECT_DOUBLE_EQ(f.get("s").arg_sums.at("leaders"), 7.0);
  EXPECT_EQ(f.get("s").arg_sums.count("tag"), 0u);
  EXPECT_EQ(f.get("mark").count, 0);
}

TEST(TraceFold, AccumulatesAcrossDocuments) {
  const std::string t = trace(ev("B", 1, 0, "s") + "," + ev("E", 1, 5));
  TraceFold f;
  ASSERT_TRUE(fold_chrome_trace(t, f, nullptr));
  ASSERT_TRUE(fold_chrome_trace(t, f, nullptr));
  EXPECT_EQ(f.get("s").count, 2);
  EXPECT_DOUBLE_EQ(f.get("s").inclusive_ms, 0.010);
}

TEST(TraceFold, RejectsUnbalancedTracksAndLeavesTheFoldUnchanged) {
  TraceFold f;
  std::string err;
  EXPECT_FALSE(fold_chrome_trace(trace(ev("E", 1, 5)), f, &err));
  EXPECT_NE(err.find("E without"), std::string::npos);
  EXPECT_FALSE(fold_chrome_trace(
      trace(ev("B", 1, 0, "s") + "," + ev("B", 1, 1, "open") + "," +
            ev("E", 1, 2)),
      f, &err));
  EXPECT_NE(err.find("unclosed"), std::string::npos);
  EXPECT_FALSE(fold_chrome_trace("{\"traceEvents\": [", f, &err));
  EXPECT_TRUE(f.by_name.empty());
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  auto t = tail_percentile(iota(100));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 90);
  EXPECT_DOUBLE_EQ(t->value, 90.0);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_EQ(t->samples, 100u);

  t = tail_percentile(iota(1000));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 99);
  EXPECT_DOUBLE_EQ(t->value, 990.0);

  // n = 20: p50 has rank 10 and 10 beyond; p51 would have rank 11.
  t = tail_percentile(iota(20));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 50);
  EXPECT_DOUBLE_EQ(t->value, 10.0);

  // n = 57: p82 -> rank ceil(46.74) = 47, 10 beyond; p83 -> rank 48.
  t = tail_percentile(iota(57));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 82);
  EXPECT_EQ(t->beyond, 10u);

  t = tail_percentile(iota(11));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_DOUBLE_EQ(t->value, 1.0);

  EXPECT_FALSE(tail_percentile(iota(10)));
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// --- probes on a scripted clock -------------------------------------------

class ScriptedClock {
 public:
  explicit ScriptedClock(std::vector<double> reads)
      : reads_(std::move(reads)) {}
  double operator()() {
    if (next_ >= reads_.size()) {
      ADD_FAILURE() << "clock read more often than scripted";
      return std::nan("");
    }
    return reads_[next_++];
  }
  std::size_t used() const { return next_; }

 private:
  std::vector<double> reads_;
  std::size_t next_ = 0;
};

class FixedChannel final : public mhca::ChannelModel {
 public:
  int num_nodes() const override { return 2; }
  int num_channels() const override { return 2; }
  double mean(int, int, std::int64_t) const override { return 0.5; }
  double sample(int, int, std::int64_t) const override { return 0.25; }
};

class FixedDynamics final : public mhca::dynamics::DynamicsModel {
 public:
  FixedDynamics() {
    d_.added_edges = {{0, 1}, {1, 2}};
    d_.removed_edges = {{0, 2}};
  }
  const char* name() const override { return "fixed"; }
  const mhca::dynamics::GraphDelta& step(std::int64_t) override { return d_; }

 private:
  mhca::dynamics::GraphDelta d_;
};

// Replays Simulator::run()'s call order for two slots over K = 3 arms:
// slot 1 transmits vertex 1 (node 0, channel 1) and is followed by the
// dynamics step into slot 2; slot 2 transmits nothing.
void replay(SlotLedger& ledger, const mhca::IndexPolicy& policy,
            const mhca::ChannelModel& model,
            mhca::dynamics::DynamicsModel& dyn) {
  mhca::Rng rng(1);
  ledger.begin_run();
  EXPECT_FALSE(policy.randomize_round(1, rng));
  for (int k = 0; k < 3; ++k) policy.index_from(0.0, 0, k, 1, 3);
  EXPECT_DOUBLE_EQ(model.sample(0, 1, 1), 0.25);
  EXPECT_DOUBLE_EQ(model.mean(0, 1, 1), 0.5);
  dyn.step(2);
  EXPECT_FALSE(policy.randomize_round(2, rng));
  for (int k = 0; k < 3; ++k) policy.index_from(0.0, 0, k, 2, 3);
  ledger.end_run();
}

TEST(Probes, DetailedLedgerSplitsEachSlotIntoBuckets) {
  auto clock = std::make_shared<ScriptedClock>(std::vector<double>{
      0.0,          // run entry
      1.0,          // slot 1 boundary
      1.5,          // last index_from of slot 1
      3.0, 3.25,    // sample
      3.25, 3.5,    // mean
      4.0, 4.5,     // dynamics step into slot 2
      5.0,          // slot 2 boundary
      5.5,          // last index_from of slot 2
      8.0});        // run return
  SlotLedger ledger(true, [clock] { return (*clock)(); });
  const auto cab = mhca::make_policy(mhca::PolicyKind::kCab);
  const PolicyProbe policy(*cab, ledger);
  const FixedChannel inner_model;
  const ChannelProbe model(inner_model, ledger);
  DynamicsProbe dyn(std::make_unique<FixedDynamics>(), ledger);
  replay(ledger, policy, model, dyn);
  EXPECT_EQ(clock->used(), 12u);

  EXPECT_DOUBLE_EQ(ledger.lead_in(), 1.0);
  EXPECT_DOUBLE_EQ(ledger.loop_seconds(), 7.0);
  ASSERT_EQ(ledger.slot_seconds(), (std::vector<double>{4.0, 3.0}));
  const std::vector<SlotBuckets> b = ledger.buckets();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b[0].wall, 4.0);
  EXPECT_DOUBLE_EQ(b[0].indices, 0.5);
  EXPECT_DOUBLE_EQ(b[0].decision, 1.5);
  EXPECT_DOUBLE_EQ(b[0].sample, 0.5);
  EXPECT_DOUBLE_EQ(b[0].model_step, 0.5);
  EXPECT_DOUBLE_EQ(b[0].maintain, 0.5);
  EXPECT_DOUBLE_EQ(b[0].residual, 0.5);
  // Nothing transmits in slot 2: the decision runs to the end of run().
  EXPECT_DOUBLE_EQ(b[1].indices, 0.5);
  EXPECT_DOUBLE_EQ(b[1].decision, 2.5);
  EXPECT_DOUBLE_EQ(b[1].maintain, 0.0);
  EXPECT_DOUBLE_EQ(b[1].residual, 0.0);

  EXPECT_EQ(ledger.steps(), 1);
  EXPECT_EQ(ledger.changed_steps(), 1);
  EXPECT_EQ(ledger.delta_edges(), 3);
  std::uint64_t want = 0xDEC15105;
  want = mhca::hash_combine(want, 1);
  want = mhca::hash_combine(want, 1);  // vertex 0 * 2 + 1
  want = mhca::hash_combine(want, 2);
  EXPECT_EQ(ledger.decision_digest(), want);
}

TEST(Probes, UntracedLedgerReadsTheClockOncePerSlot) {
  // Run entry, two boundaries, run return — no read for the indices or
  // the channel.
  auto clock = std::make_shared<ScriptedClock>(
      std::vector<double>{0.0, 2.0, 5.0, 9.0});
  SlotLedger ledger(false, [clock] { return (*clock)(); });
  const auto cab = mhca::make_policy(mhca::PolicyKind::kCab);
  const PolicyProbe policy(*cab, ledger);
  const FixedChannel inner_model;
  const ChannelProbe model(inner_model, ledger);
  mhca::Rng rng(1);
  ledger.begin_run();
  policy.randomize_round(1, rng);
  for (int k = 0; k < 3; ++k) policy.index_from(0.0, 0, k, 1, 3);
  model.sample(0, 1, 1);
  model.mean(0, 1, 1);
  policy.randomize_round(2, rng);
  ledger.end_run();
  EXPECT_EQ(clock->used(), 4u);
  EXPECT_DOUBLE_EQ(ledger.lead_in(), 2.0);
  EXPECT_EQ(ledger.slot_seconds(), (std::vector<double>{3.0, 4.0}));
}

TEST(Probes, ForwardToTheWrappedComponents) {
  SlotLedger ledger(false);
  const auto cab = mhca::make_policy(mhca::PolicyKind::kCab);
  const PolicyProbe policy(*cab, ledger);
  EXPECT_EQ(policy.name(), cab->name());
  EXPECT_DOUBLE_EQ(policy.index_from(0.4, 7, 2, 10, 5),
                   cab->index_from(0.4, 7, 2, 10, 5));
  const FixedChannel inner_model;
  const ChannelProbe model(inner_model, ledger);
  EXPECT_EQ(model.num_nodes(), 2);
  EXPECT_EQ(model.num_channels(), 2);
  EXPECT_DOUBLE_EQ(model.rate_scale_kbps(), inner_model.rate_scale_kbps());
}

TEST(Probes, CpuClockCountsWorkButNotSleep) {
  const double c0 = cpu_seconds();
  const double w0 = steady_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double slept_cpu = cpu_seconds() - c0;
  EXPECT_GE(steady_seconds() - w0, 0.2);
  EXPECT_LT(slept_cpu, 0.05);

  // 100 ms of spinning; a busy host may take some of it, not most.
  const double c1 = cpu_seconds();
  const double w1 = steady_seconds();
  volatile std::uint64_t x = 1;
  while (steady_seconds() - w1 < 0.1) x = x * 6364136223846793005ULL + 1;
  EXPECT_GT(cpu_seconds() - c1, 0.02);
}

TEST(SpeedProbe, ScaleIsNominalOverMedianPass) {
  const double nominal = SpeedProbe::kNominalSeconds;
  EXPECT_DOUBLE_EQ(SpeedProbe::scale({nominal * 3, nominal * 2, nominal}),
                   0.5);
  EXPECT_DOUBLE_EQ(SpeedProbe::scale({nominal}), 1.0);
  EXPECT_DOUBLE_EQ(SpeedProbe::scale({}), 1.0);
  SpeedProbe probe;
  const double pass = probe.time_pass();
  EXPECT_GT(pass, 0.0);
  EXPECT_GT(SpeedProbe::scale({pass}), 0.0);
}

}  // namespace
}  // namespace perfbench
