#include "probes.h"

#include <chrono>
#include <cmath>
#include <ctime>

#include "util/hash.h"

namespace perfbench {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

SlotLedger::SlotLedger(bool detailed, Clock clock)
    : detailed_(detailed), clock_(std::move(clock)) {}

void SlotLedger::begin_run() { run_begin_ = clock_(); }

void SlotLedger::end_run() { run_end_ = clock_(); }

void SlotLedger::on_round(std::int64_t t) {
  SlotMarks m;
  m.start = clock_();
  marks_.push_back(m);
  digest_ = mhca::hash_combine(digest_, static_cast<std::uint64_t>(t));
}

void SlotLedger::on_indices_done() {
  if (!marks_.empty()) marks_.back().indices_end = clock_();
}

void SlotLedger::on_sample(int vertex, double begin, double end) {
  digest_ = mhca::hash_combine(digest_, static_cast<std::uint64_t>(vertex));
  if (marks_.empty()) return;
  SlotMarks& m = marks_.back();
  if (std::isnan(m.first_sample)) m.first_sample = begin;
  m.sample_s += end - begin;
}

void SlotLedger::on_mean(double begin, double end) {
  if (!marks_.empty()) marks_.back().sample_s += end - begin;
}

void SlotLedger::on_step(double begin, double end,
                         const mhca::dynamics::GraphDelta& d) {
  ++steps_;
  if (!d.empty()) {
    ++changed_steps_;
    delta_edges_ += static_cast<std::int64_t>(d.added_edges.size() +
                                              d.removed_edges.size());
  }
  if (marks_.empty()) return;
  marks_.back().step_begin = begin;
  marks_.back().step_end = end;
}

double SlotLedger::lead_in() const {
  return marks_.empty() ? run_end_ - run_begin_
                        : marks_.front().start - run_begin_;
}

std::vector<double> SlotLedger::slot_seconds() const {
  std::vector<double> out;
  out.reserve(marks_.size());
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    const double end =
        i + 1 < marks_.size() ? marks_[i + 1].start : run_end_;
    out.push_back(end - marks_[i].start);
  }
  return out;
}

double SlotLedger::loop_seconds() const {
  return marks_.empty() ? 0.0 : run_end_ - marks_.front().start;
}

std::vector<SlotBuckets> SlotLedger::buckets() const {
  std::vector<SlotBuckets> out;
  out.reserve(marks_.size());
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    const SlotMarks& m = marks_[i];
    const double end =
        i + 1 < marks_.size() ? marks_[i + 1].start : run_end_;
    SlotBuckets b;
    b.wall = end - m.start;
    if (!std::isnan(m.indices_end)) {
      b.indices = m.indices_end - m.start;
      // The decision runs until the first transmission; a slot where
      // nothing transmits decides until the next dynamics step or its end.
      double stop = end;
      if (!std::isnan(m.step_begin)) stop = m.step_begin;
      if (!std::isnan(m.first_sample)) stop = m.first_sample;
      b.decision = stop - m.indices_end;
    }
    b.sample = m.sample_s;
    if (!std::isnan(m.step_begin)) {
      b.model_step = m.step_end - m.step_begin;
      b.maintain = end - m.step_end;
    }
    b.residual = b.wall - (b.indices + b.decision + b.sample + b.model_step +
                           b.maintain);
    out.push_back(b);
  }
  return out;
}

double PolicyProbe::index_from(double mean, std::int64_t count, int k,
                               std::int64_t t, int num_arms) const {
  const double x = inner_.index_from(mean, count, k, t, num_arms);
  if (k == num_arms - 1 && ledger_->detailed()) ledger_->on_indices_done();
  return x;
}

bool PolicyProbe::randomize_round(std::int64_t t, mhca::Rng& rng) const {
  ledger_->on_round(t);
  return inner_.randomize_round(t, rng);
}

double ChannelProbe::mean(int node, int channel, std::int64_t t) const {
  if (!ledger_->detailed()) return inner_.mean(node, channel, t);
  const double b = ledger_->now();
  const double x = inner_.mean(node, channel, t);
  const double e = ledger_->now();
  ledger_->on_mean(b, e);
  return x;
}

double ChannelProbe::sample(int node, int channel, std::int64_t t) const {
  const int vertex = node * inner_.num_channels() + channel;
  if (!ledger_->detailed()) {
    const double x = inner_.sample(node, channel, t);
    ledger_->on_sample(vertex, 0.0, 0.0);
    return x;
  }
  const double b = ledger_->now();
  const double x = inner_.sample(node, channel, t);
  ledger_->on_sample(vertex, b, ledger_->now());
  return x;
}

const mhca::dynamics::GraphDelta& DynamicsProbe::step(std::int64_t t) {
  const double b = ledger_->now();
  const mhca::dynamics::GraphDelta& d = inner_->step(t);
  ledger_->on_step(b, ledger_->now(), d);
  return d;
}

}  // namespace perfbench
