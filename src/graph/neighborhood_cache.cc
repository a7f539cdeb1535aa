#include "graph/neighborhood_cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "graph/hop.h"
#include "util/assert.h"
#include "util/parallel.h"

namespace mhca {

int NeighborhoodCache::build_workers(int parallelism, int n) {
  if (parallelism == 0) {
    if (const char* env = std::getenv("MHCA_CACHE_BUILD_WORKERS"))
      parallelism = std::atoi(env);
  }
  if (parallelism <= 0) {
    parallelism = static_cast<int>(std::thread::hardware_concurrency());
    if (parallelism <= 0) parallelism = 1;
  }
  return std::min(parallelism, std::max(n, 1));
}

NeighborhoodCache::EballTier NeighborhoodCache::select_eball_tier(int n) {
  if (const char* env = std::getenv("MHCA_EBALL_TIER")) {
    if (std::strcmp(env, "explicit") == 0) return EballTier::kExplicit;
    if (std::strcmp(env, "implicit") == 0) return EballTier::kImplicit;
  }
  return n <= Graph::kAdjacencyMatrixLimit ? EballTier::kExplicit
                                           : EballTier::kImplicit;
}

NeighborhoodCache::NeighborhoodCache(const Graph& g, int r, int parallelism)
    : graph_(&g), r_(r), size_(g.size()), tier_(select_eball_tier(g.size())) {
  MHCA_ASSERT(r >= 1, "r must be at least 1");
  const auto n = static_cast<std::size_t>(size_);
  const bool implicit = tier_ == EballTier::kImplicit;
  r_offsets_.assign(n + 1, 0);
  if (implicit)
    e_sizes_.assign(n, 0);
  else
    e_offsets_.assign(n + 1, 0);

  const int workers = build_workers(parallelism, size_);
  if (workers <= 1 && !implicit) {
    // Serial single-pass build (explicit tier): one BFS to 2r+1 hops per
    // vertex yields both balls (the r-ball is the distance-<= r subset of
    // the election ball), appended as they are produced.
    BfsScratch scratch(size_);
    std::vector<int> r_ball;
    std::vector<int> e_ball;
    for (int v = 0; v < size_; ++v) {
      scratch.two_radius_neighborhood(g, v, r_, 2 * r_ + 1, r_ball, e_ball);
      e_offsets_[static_cast<std::size_t>(v) + 1] =
          e_offsets_[static_cast<std::size_t>(v)] +
          static_cast<std::int64_t>(e_ball.size());
      e_data_.insert(e_data_.end(), e_ball.begin(), e_ball.end());
      r_offsets_[static_cast<std::size_t>(v) + 1] =
          r_offsets_[static_cast<std::size_t>(v)] +
          static_cast<std::int64_t>(r_ball.size());
      r_data_.insert(r_data_.end(), r_ball.begin(), r_ball.end());
    }
    return;
  }

  // Count-then-fill build (the implicit tier at any worker count, the
  // explicit tier at two or more). Each worker owns a contiguous vertex
  // slice; per-vertex output is a pure function of (g, v, r), so the filled
  // arrays are byte-identical to the serial build at any worker count
  // (tests/large_n_test.cc pins this). Pass 1 runs a size-only BFS per
  // vertex (no sort, no materialization) into the disjoint offset slots;
  // pass 2, after a serial prefix sum, re-runs the BFS and writes each ball
  // into its final CSR span — two BFS sweeps, but no transient second copy
  // of the multi-hundred-MB ball arrays. On the implicit tier the e-ball
  // count lands directly in e_sizes_, and the fill pass enumerates only
  // the r-ball: no (2r+1)-ball is ever materialized or sorted.
  std::vector<BfsScratch> scratches(static_cast<std::size_t>(workers));
  const auto slice = [&](int j) {
    const std::int64_t lo = static_cast<std::int64_t>(j) * size_ / workers;
    const std::int64_t hi =
        static_cast<std::int64_t>(j + 1) * size_ / workers;
    return std::pair<int, int>{static_cast<int>(lo), static_cast<int>(hi)};
  };
  parallel_run(
      workers,
      [&](int j) {
        auto& scratch = scratches[static_cast<std::size_t>(j)];
        scratch.resize(size_);
        const auto [lo, hi] = slice(j);
        for (int v = lo; v < hi; ++v) {
          std::int64_t e_size = 0;
          scratch.two_radius_sizes(g, v, r_, 2 * r_ + 1,
                                   r_offsets_[static_cast<std::size_t>(v) + 1],
                                   e_size);
          if (implicit)
            e_sizes_[static_cast<std::size_t>(v)] = static_cast<int>(e_size);
          else
            e_offsets_[static_cast<std::size_t>(v) + 1] = e_size;
        }
      },
      workers);
  for (std::size_t v = 0; v < n; ++v) {
    r_offsets_[v + 1] += r_offsets_[v];
    if (!implicit) e_offsets_[v + 1] += e_offsets_[v];
  }
  r_data_.resize(static_cast<std::size_t>(r_offsets_[n]));
  if (!implicit) e_data_.resize(static_cast<std::size_t>(e_offsets_[n]));
  parallel_run(
      workers,
      [&](int j) {
        auto& scratch = scratches[static_cast<std::size_t>(j)];
        std::vector<int> r_ball;
        std::vector<int> e_ball;
        const auto [lo, hi] = slice(j);
        for (int v = lo; v < hi; ++v) {
          const auto vi = static_cast<std::size_t>(v);
          if (implicit) {
            scratch.k_hop_neighborhood(g, v, r_, r_ball);
          } else {
            scratch.two_radius_neighborhood(g, v, r_, 2 * r_ + 1, r_ball,
                                            e_ball);
            MHCA_ASSERT(static_cast<std::int64_t>(e_ball.size()) ==
                            e_offsets_[vi + 1] - e_offsets_[vi],
                        "count pass disagrees with fill pass");
            std::copy(e_ball.begin(), e_ball.end(),
                      e_data_.begin() +
                          static_cast<std::ptrdiff_t>(e_offsets_[vi]));
          }
          MHCA_ASSERT(static_cast<std::int64_t>(r_ball.size()) ==
                          r_offsets_[vi + 1] - r_offsets_[vi],
                      "count pass disagrees with fill pass");
          std::copy(r_ball.begin(), r_ball.end(),
                    r_data_.begin() +
                        static_cast<std::ptrdiff_t>(r_offsets_[vi]));
        }
      },
      workers);
}

int NeighborhoodCache::recount_election_ball(int v) const {
  ++size_recounts_;
  return scratch_.k_hop_size(*graph_, v, 2 * r_ + 1);
}

std::int64_t NeighborhoodCache::resident_bytes() const {
  const auto bytes = [](const auto& vec) {
    return static_cast<std::int64_t>(vec.size() * sizeof(vec[0]));
  };
  return bytes(r_offsets_) + bytes(r_data_) + bytes(e_offsets_) +
         bytes(e_data_) + bytes(e_sizes_);
}

std::int64_t NeighborhoodCache::explicit_layout_bytes() const {
  if (tier_ == EballTier::kExplicit) return resident_bytes();
  std::int64_t e_entries = 0;
  for (int v = 0; v < size_; ++v) e_entries += election_ball_size(v);
  const auto bytes = [](const auto& vec) {
    return static_cast<std::int64_t>(vec.size() * sizeof(vec[0]));
  };
  return resident_bytes() - bytes(e_sizes_) +
         static_cast<std::int64_t>(size_ + 1) *
             static_cast<std::int64_t>(sizeof(std::int64_t)) +
         e_entries * static_cast<std::int64_t>(sizeof(int));
}

void NeighborhoodCache::apply_delta(const Graph& g,
                                    std::span<const int> touched) {
  MHCA_ASSERT(built(), "apply_delta on an unbuilt cache");
  MHCA_ASSERT(g.size() == size_, "graph size changed under the cache");
  graph_ = &g;
  if (touched.empty()) {
    last_invalidated_ = 0;
    return;
  }

  // Each layer invalidates only the owners within k-1 hops of `touched` on
  // the already-patched graph, for its own radius k (the proof is in the
  // header). Recomputed balls are buffered flat (the buffers hold the
  // blast radius, not the whole cache) and written back by `patch`: a span
  // whose size did not change, and every span before the first size
  // change, keeps its offset and is overwritten in place; only the suffix
  // from the first size-changing owner on shifts and is rewritten once.
  const auto n = static_cast<std::size_t>(size_);
  std::vector<int> aff;  // owners to recompute, ascending
  std::vector<std::int64_t> a_off;
  std::vector<int> a_data, ball;
  const auto recompute = [&](int k) {
    a_off.assign(1, 0);
    a_data.clear();
    for (int v : aff) {
      scratch_.k_hop_neighborhood(g, v, k, ball);
      a_data.insert(a_data.end(), ball.begin(), ball.end());
      a_off.push_back(static_cast<std::int64_t>(a_data.size()));
    }
  };
  const auto new_size = [&](std::size_t i) { return a_off[i + 1] - a_off[i]; };
  const auto old_size = [&](const std::vector<std::int64_t>& off, int v) {
    return off[static_cast<std::size_t>(v) + 1] -
           off[static_cast<std::size_t>(v)];
  };
  const auto patch = [&](std::vector<std::int64_t>& offsets,
                         std::vector<int>& data) {
    int first_shift = size_;
    for (std::size_t i = 0; i < aff.size(); ++i) {
      if (new_size(i) != old_size(offsets, aff[i])) {
        first_shift = aff[i];
        break;
      }
    }
    std::size_t i = 0;
    for (; i < aff.size() && aff[i] < first_shift; ++i) {
      const auto dst = static_cast<std::ptrdiff_t>(
          offsets[static_cast<std::size_t>(aff[i])]);
      const auto src = static_cast<std::ptrdiff_t>(a_off[i]);
      const auto len = static_cast<std::ptrdiff_t>(new_size(i));
      std::copy(a_data.begin() + src, a_data.begin() + src + len,
                data.begin() + dst);
    }
    if (first_shift == size_) return;
    // Rebuild the shifted suffix: recomputed spans from the buffers, the
    // others copied over from their (still intact) old position.
    std::vector<int> tail;
    std::vector<std::int64_t> sizes;
    sizes.reserve(n - static_cast<std::size_t>(first_shift));
    for (int v = first_shift; v < size_; ++v) {
      if (i < aff.size() && aff[i] == v) {
        const auto src = static_cast<std::ptrdiff_t>(a_off[i]);
        const auto len = static_cast<std::ptrdiff_t>(new_size(i));
        tail.insert(tail.end(), a_data.begin() + src,
                    a_data.begin() + src + len);
        sizes.push_back(len);
        ++i;
      } else {
        const auto b = static_cast<std::ptrdiff_t>(
            offsets[static_cast<std::size_t>(v)]);
        const auto len = static_cast<std::ptrdiff_t>(old_size(offsets, v));
        tail.insert(tail.end(), data.begin() + b, data.begin() + b + len);
        sizes.push_back(len);
      }
    }
    const auto keep = static_cast<std::size_t>(
        offsets[static_cast<std::size_t>(first_shift)]);
    data.resize(keep + tail.size());
    std::copy(tail.begin(), tail.end(),
              data.begin() + static_cast<std::ptrdiff_t>(keep));
    for (int v = first_shift; v < size_; ++v)
      offsets[static_cast<std::size_t>(v) + 1] =
          offsets[static_cast<std::size_t>(v)] +
          sizes[static_cast<std::size_t>(v - first_shift)];
  };

  // r-balls: owners within r-1 hops.
  scratch_.multi_source_k_hop(g, touched, r_ - 1, aff);
  recompute(r_);
  patch(r_offsets_, r_data_);

  // Election balls: owners within 2r hops. The implicit tier keeps only
  // sizes, and only the flood accounting reads them, so it marks them
  // stale here and election_ball_size recounts the ones that are read.
  scratch_.multi_source_k_hop(g, touched, 2 * r_, aff);
  if (tier_ == EballTier::kImplicit) {
    for (int v : aff) e_sizes_[static_cast<std::size_t>(v)] = kStale;
  } else {
    recompute(2 * r_ + 1);
    patch(e_offsets_, e_data_);
  }
  last_invalidated_ = static_cast<int>(aff.size());
}

}  // namespace mhca
