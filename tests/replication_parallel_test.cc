// The replication harness must produce results independent of the worker
// count (per-seed slots merged in seed order), propagate worker exceptions,
// and fail loudly on unknown metric names.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bandit/policy.h"
#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "sim/replication.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mhca {
namespace {

std::function<SimulationResult(std::uint64_t)> small_experiment(
    const ExtendedConflictGraph& ecg) {
  return [&ecg](std::uint64_t seed) {
    Rng rng(seed * 7919 + 11);
    GaussianChannelModel model(ecg.num_nodes(), ecg.num_channels(), rng);
    PolicyParams params;
    auto policy = make_policy(PolicyKind::kCab, params);
    SimulationConfig cfg;
    cfg.run.series_stride = 1;
    cfg.run.slots = 60;
    cfg.run.seed = seed;
    Simulator sim(ecg, model, *policy, cfg);
    return sim.run();
  };
}

TEST(Replication, ResultsIndependentOfParallelism) {
  Rng topo_rng(404);
  ConflictGraph cg = random_geometric_avg_degree(12, 4.0, topo_rng);
  ExtendedConflictGraph ecg(cg, 3);
  const auto experiment = small_experiment(ecg);

  ReplicationConfig serial;
  serial.replications = 6;
  serial.parallelism = 1;
  ReplicationConfig parallel = serial;
  parallel.parallelism = 4;

  const ReplicationReport a = replicate(experiment, serial);
  const ReplicationReport b = replicate(experiment, parallel);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name);
    EXPECT_DOUBLE_EQ(a.metrics[i].summary.mean, b.metrics[i].summary.mean);
    EXPECT_DOUBLE_EQ(a.metrics[i].summary.stddev,
                     b.metrics[i].summary.stddev);
    EXPECT_DOUBLE_EQ(a.metrics[i].summary.min, b.metrics[i].summary.min);
    EXPECT_DOUBLE_EQ(a.metrics[i].summary.max, b.metrics[i].summary.max);
  }

  // Back-compat wrapper agrees with the config form.
  const ReplicationReport c = replicate(experiment, 6, 1);
  EXPECT_DOUBLE_EQ(c.metric("expected_rate").mean,
                   a.metric("expected_rate").mean);
}

TEST(Replication, WorkerExceptionPropagates) {
  const auto failing = [](std::uint64_t seed) -> SimulationResult {
    if (seed >= 3) throw std::runtime_error("replication 3 exploded");
    SimulationResult r;
    r.total_slots = 1;
    return r;
  };
  ReplicationConfig cfg;
  cfg.replications = 6;
  cfg.seed0 = 1;
  cfg.parallelism = 3;
  EXPECT_THROW(replicate(failing, cfg), std::runtime_error);
  cfg.parallelism = 1;
  EXPECT_THROW(replicate(failing, cfg), std::runtime_error);
}

TEST(Replication, UnknownMetricThrows) {
  ReplicationReport report;
  report.metrics = {{"expected_rate", Summary{}}};
  EXPECT_NO_THROW(report.metric("expected_rate"));
  EXPECT_THROW(report.metric("no_such_metric"), std::out_of_range);
}

}  // namespace
}  // namespace mhca
