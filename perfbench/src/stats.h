// Order statistics the benchmark reports: medians and the tail rule.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// The tail the benchmark reports beside a median: the highest integer
/// percentile p whose nearest-rank value still has at least `min_beyond`
/// samples ranked after it. Nearest rank of p among n sorted samples is
/// k = ceil(p * n / 100) (at least 1); the samples beyond it number n - k.
struct Tail {
  double value = 0.0;
  int percentile = 0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< n - k (>= min_beyond)
};

/// Empty when fewer than min_beyond + 1 samples exist.
std::optional<Tail> tail_percentile(std::vector<double> v,
                                    std::size_t min_beyond = 10);

}  // namespace perfbench
