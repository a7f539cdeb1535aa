// The host's speed, measured beside the program. On a shared host the same
// code runs up to about twice as slow for minutes at a time, in CPU time as
// well as in wall time: nothing takes the CPU away from the process, but
// every instruction takes longer. A run times a fixed reference computation
// next to its instances and states its end-to-end timings at the reference
// speed.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// The unit: CPU seconds of one pass of the reference work at the
  /// reference speed. A fixed constant; on a 4-thread Xeon VM of a shared
  /// host one pass took 80 to 120 ms of CPU, depending on the host's load.
  static constexpr double kNominalSeconds = 0.070;

  /// Builds the reference work's fixed input (untimed).
  SpeedProbe();

  /// CPU seconds of one pass of the reference work, now.
  double time_pass();

  /// kNominalSeconds over the median of `pass_seconds`: what a CPU second
  /// measured at the same time is worth at the reference speed.
  static double scale(std::vector<double> pass_seconds);

 private:
  /// One pass: two-hop balls around a strided set of sources of a fixed
  /// sparse graph (epoch-stamped visited marks, the balls sorted), each
  /// ball then inserted into and probed from a hash map — the kinds of
  /// work the engines do per slot. Returns a checksum so none of it is
  /// optimized away.
  std::uint64_t pass();

  std::vector<int> offsets_;
  std::vector<int> adj_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::vector<int> ball_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
