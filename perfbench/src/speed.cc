#include "speed.h"

#include <algorithm>
#include <unordered_map>

#include "probes.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int kNodes = 1 << 15;
constexpr int kSources = 18000;

}  // namespace

SpeedProbe::SpeedProbe() : mark_(kNodes, 0) {
  // Nodes on a ring, each linked to a few near ones and one far one: local
  // like a geometric graph, with some long jumps through memory.
  mhca::Rng rng(0x5EED);
  std::vector<std::vector<int>> nbrs(kNodes);
  for (int v = 0; v < kNodes; ++v) {
    for (int d = 1; d <= 3; ++d) {
      const int u = (v + d + rng.uniform_int(0, 8)) % kNodes;
      nbrs[v].push_back(u);
      nbrs[u].push_back(v);
    }
    const int far = rng.uniform_int(0, kNodes - 1);
    nbrs[v].push_back(far);
    nbrs[far].push_back(v);
  }
  offsets_.push_back(0);
  for (const std::vector<int>& n : nbrs) {
    adj_.insert(adj_.end(), n.begin(), n.end());
    offsets_.push_back(static_cast<int>(adj_.size()));
  }
  sink_ += pass();  // first touch of the marks and the allocator
}

std::uint64_t SpeedProbe::pass() {
  std::uint64_t sum = 0;
  std::unordered_map<std::uint64_t, int> table;
  for (int i = 0; i < kSources; ++i) {
    const int s = static_cast<int>(
        (static_cast<std::uint64_t>(i) * 2654435761u) % kNodes);
    const auto key = [s](int u) {
      return (static_cast<std::uint64_t>(s) << 32) | static_cast<unsigned>(u);
    };
    ++epoch_;
    ball_.assign(1, s);
    mark_[static_cast<std::size_t>(s)] = epoch_;
    std::size_t begin = 0;
    for (int hop = 0; hop < 2; ++hop) {
      const std::size_t end = ball_.size();
      for (std::size_t k = begin; k < end; ++k) {
        const auto v = static_cast<std::size_t>(ball_[k]);
        for (int e = offsets_[v]; e < offsets_[v + 1]; ++e) {
          const int u = adj_[static_cast<std::size_t>(e)];
          if (mark_[static_cast<std::size_t>(u)] == epoch_) continue;
          mark_[static_cast<std::size_t>(u)] = epoch_;
          ball_.push_back(u);
        }
      }
      begin = end;
    }
    std::sort(ball_.begin(), ball_.end());
    table.clear();
    for (int u : ball_) table[key(u)] = u;
    for (std::size_t k = 0; k < ball_.size(); ++k)
      sum += static_cast<std::uint64_t>(
          table.at(key(ball_[(k * 7) % ball_.size()])));
  }
  return sum;
}

double SpeedProbe::time_pass() {
  const double t0 = cpu_seconds();
  sink_ += pass();
  return cpu_seconds() - t0;
}

double SpeedProbe::scale(std::vector<double> pass_seconds) {
  const double m = median(std::move(pass_seconds));
  return m > 0.0 ? kNominalSeconds / m : 1.0;
}

}  // namespace perfbench
