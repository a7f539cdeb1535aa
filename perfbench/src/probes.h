// Layer probes: forwarding decorators around the public virtual interfaces
// the engines' slot loops call, and the ledger that turns their clock reads
// into per-slot buckets.
//
// Simulator::run() calls, per slot t (update_period = 1):
//   [t > 1] DynamicsModel::step(t)          (inside DynamicNetwork::advance)
//           graph delta apply, on_graph_delta, strategy prune
//   IndexPolicy::randomize_round(t)         <- slot boundary
//   IndexPolicy::index_from x K             (compute_indices, arm K-1 last)
//   MWIS decision                           (ptas.* spans)
//   ChannelModel::sample / mean per strategy member
// so the gaps between consecutive observed calls are the layers:
//   bandit.indices  = boundary .. K-th index_from return
//   mwis.decision   = K-th index_from .. first sample (or the next step /
//                     slot end when nothing transmits)
//   channel.sample  = time inside sample/mean
//   dynamics.model_step = time inside step
//   dynamics.maintain   = step return .. next boundary
//   sim.residual    = slot wall minus all of the above
// Slot t's interval runs from boundary t to boundary t+1 (or the end of
// run()), so the dynamics of slot t+1 land at the end of slot t's interval.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "bandit/policy.h"
#include "channel/channel_model.h"
#include "dynamics/model.h"

namespace perfbench {

/// Seconds on the steady clock.
double steady_seconds();

/// CPU seconds this process has used, all threads together
/// (CLOCK_PROCESS_CPUTIME_ID). Time the process spends descheduled, by the
/// guest's scheduler or stolen by the host, does not count, so on a shared
/// host it measures the program's work where the steady clock also measures
/// its neighbours.
double cpu_seconds();

/// One slot's marks, in seconds on the ledger's clock (NaN = not seen).
struct SlotMarks {
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  double start = 0.0;
  double indices_end = kUnset;
  double first_sample = kUnset;
  double sample_s = 0.0;
  double step_begin = kUnset;
  double step_end = kUnset;
};

/// One slot's layer buckets, in seconds; the named ones plus the residual
/// add up to `wall`.
struct SlotBuckets {
  double wall = 0.0;
  double indices = 0.0;
  double decision = 0.0;
  double sample = 0.0;
  double model_step = 0.0;
  double maintain = 0.0;
  double residual = 0.0;
};

class SlotLedger {
 public:
  using Clock = std::function<double()>;

  /// `detailed` = record every layer mark (traced runs); otherwise only the
  /// slot boundaries are read, one clock read per slot.
  explicit SlotLedger(bool detailed, Clock clock = steady_seconds);

  bool detailed() const { return detailed_; }
  double now() const { return clock_(); }

  /// Simulator::run() entry and return, read by the caller.
  void begin_run();
  void end_run();

  // --- fed by the probes ---
  void on_round(std::int64_t t);
  void on_indices_done();
  void on_sample(int vertex, double begin, double end);
  /// mean() follows sample() for the same member: billed as sampling.
  void on_mean(double begin, double end);
  void on_step(double begin, double end, const mhca::dynamics::GraphDelta& d);

  /// run() entry to the first slot boundary (the engine's cache build).
  double lead_in() const;
  /// Per-slot wall times, boundary to boundary (the last to run() return).
  std::vector<double> slot_seconds() const;
  /// First boundary to run() return.
  double loop_seconds() const;
  std::vector<SlotBuckets> buckets() const;
  const std::vector<SlotMarks>& marks() const { return marks_; }

  /// Decision digest in the net runtime's formula (scenario/runner.cc):
  /// seeded 0xDEC15105, then per round the round number and every vertex
  /// sampled in it — equal to run_net()'s decision_digest when the
  /// lockstep engine takes the same decisions.
  std::uint64_t decision_digest() const { return digest_; }

  std::int64_t steps() const { return steps_; }
  std::int64_t changed_steps() const { return changed_steps_; }
  std::int64_t delta_edges() const { return delta_edges_; }

 private:
  bool detailed_;
  Clock clock_;
  double run_begin_ = 0.0;
  double run_end_ = 0.0;
  std::vector<SlotMarks> marks_;
  std::uint64_t digest_ = 0xDEC15105;
  std::int64_t steps_ = 0;
  std::int64_t changed_steps_ = 0;
  std::int64_t delta_edges_ = 0;
};

/// Forwards every call to `inner`; randomize_round marks the slot boundary,
/// and (detailed ledgers) the last arm's index_from marks the end of the
/// policy's index pass.
class PolicyProbe final : public mhca::IndexPolicy {
 public:
  PolicyProbe(const mhca::IndexPolicy& inner, SlotLedger& ledger)
      : inner_(inner), ledger_(&ledger) {}

  std::string name() const override { return inner_.name(); }
  double index_from(double mean, std::int64_t count, int k, std::int64_t t,
                    int num_arms) const override;
  bool randomize_round(std::int64_t t, mhca::Rng& rng) const override;

 private:
  const mhca::IndexPolicy& inner_;
  SlotLedger* ledger_;
};

/// Forwards every call to `inner`; times sample() and mean() and reports
/// sampled vertices (vertex = node * M + channel, the extended graph's
/// numbering) to the ledger.
class ChannelProbe final : public mhca::ChannelModel {
 public:
  ChannelProbe(const mhca::ChannelModel& inner, SlotLedger& ledger)
      : inner_(inner), ledger_(&ledger) {}

  int num_nodes() const override { return inner_.num_nodes(); }
  int num_channels() const override { return inner_.num_channels(); }
  double mean(int node, int channel, std::int64_t t) const override;
  double sample(int node, int channel, std::int64_t t) const override;
  double rate_scale_kbps() const override { return inner_.rate_scale_kbps(); }
  bool is_stationary() const override { return inner_.is_stationary(); }

 private:
  const mhca::ChannelModel& inner_;
  SlotLedger* ledger_;
};

/// Owns the wrapped model (DynamicNetwork takes ownership of the probe);
/// times step() and reports each delta's size to the ledger.
class DynamicsProbe final : public mhca::dynamics::DynamicsModel {
 public:
  DynamicsProbe(std::unique_ptr<mhca::dynamics::DynamicsModel> inner,
                SlotLedger& ledger)
      : inner_(std::move(inner)), ledger_(&ledger) {}

  const char* name() const override { return inner_->name(); }
  const mhca::dynamics::GraphDelta& step(std::int64_t t) override;
  const std::vector<mhca::Point>& positions() const override {
    return inner_->positions();
  }

 private:
  std::unique_ptr<mhca::dynamics::DynamicsModel> inner_;
  SlotLedger* ledger_;
};

}  // namespace perfbench
