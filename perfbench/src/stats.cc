#include "stats.h"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<Tail> tail_percentile(std::vector<double> v,
                                    std::size_t min_beyond) {
  const std::size_t n = v.size();
  if (n < min_beyond + 1) return std::nullopt;
  std::sort(v.begin(), v.end());
  for (int p = 99; p >= 0; --p) {
    const std::size_t k = std::max<std::size_t>(
        1, (static_cast<std::size_t>(p) * n + 99) / 100);
    if (n - k >= min_beyond)
      return Tail{v[k - 1], p, n, n - k};
  }
  return std::nullopt;  // unreachable: p = 0 gives k = 1
}

}  // namespace perfbench
