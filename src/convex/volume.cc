#include "src/convex/volume.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/convex/batch_sampler.h"
#include "src/obs/trace.h"

namespace mudb::convex {

namespace {

// Chunk grid for one phase's sample budget: enough chunks to occupy a few
// workers, each large enough that the 10·walk burn-in of its chain stays a
// small fraction of its sampling work. A function of the budget only, so the
// grid — and with it the estimate — is independent of the thread count.
int NumChunks(int per_phase) {
  return std::clamp(per_phase / 256, 1, 64);
}

}  // namespace

VolumeEstimate EstimateVolume(const ConvexBody& body, const InnerBall& inner,
                              double outer_radius_bound,
                              const VolumeOptions& options, util::Rng& rng) {
  const int n = body.dim();
  MUDB_CHECK(n >= 1);
  MUDB_CHECK(inner.radius > 0);
  MUDB_CHECK(outer_radius_bound > inner.radius);

  // Annealing radii r_i = r0 · 2^{i/n} until the ball covers the body.
  std::vector<double> radii{inner.radius};
  double growth = std::pow(2.0, 1.0 / n);
  while (radii.back() < outer_radius_bound) {
    radii.push_back(radii.back() * growth);
  }
  const int phases = static_cast<int>(radii.size()) - 1;

  VolumeEstimate est;
  est.phases = phases;
  est.volume = geom::BallVolume(n, inner.radius);
  if (phases == 0) return est;

  int walk = options.walk_steps > 0 ? options.walk_steps : 4 * n;
  int per_phase = options.samples_per_phase;
  if (per_phase <= 0) {
    // Relative variance of the product of `phases` ratio estimates, each a
    // Bernoulli mean >= 1/2 from m samples, is about phases/m; pick
    // m ≈ 8·phases/ε² and clamp to sane bounds.
    double m = 8.0 * phases / (options.epsilon * options.epsilon);
    per_phase = static_cast<int>(std::clamp(m, 200.0, 200000.0));
  }

  const int chunks = NumChunks(per_phase);
  // Chunks route through the batched kernel in fixed power-of-two groups:
  // chunk c is always lane (c − first) of its group's kernel and draws only
  // from substream Split(c), so inside[c] — and the phase ratio — is
  // bit-identical to a scalar sampler walking chunk c alone, at any group
  // width and any thread count.
  const std::vector<ChainGroup> groups = PartitionChainGrid(chunks);
  const int num_groups = static_cast<int>(groups.size());
  // Every phase restarts its chains at the inner-ball center on substream
  // Split(phase), so no phase waits on another: all (phase, group) tasks
  // form one flat grid, and phase i's hits land in slots
  // [(i−1)·chunks, i·chunks). Task t runs group t / phases of phase
  // t % phases + 1: PartitionChainGrid lists the widest groups first, so
  // the pool claims the longest tasks first.
  std::vector<int> inside(static_cast<size_t>(phases) * chunks);
  const util::Rng base = rng.Fork();
  auto run_task = [&](int64_t t) {
    const int i = static_cast<int>(t % phases) + 1;
    const int first = groups[t / phases].first;
    const int width = groups[t / phases].width;
    // One span per task (phase-level only — never inside the chain walks).
    obs::Span span("volume.anneal_phase");
    if (span.recording()) {
      span.Annotate("phase", static_cast<double>(i));
      span.Annotate("first", static_cast<double>(first));
      span.Annotate("lanes", static_cast<double>(width));
    }
    // The task's own phase body K ∩ B(z0, r_i): at most one copy per
    // running task, none shared between threads.
    ConvexBody phase_body = body;
    phase_body.AddBall(inner.center, radii[i]);
    const double prev_r2 = radii[i - 1] * radii[i - 1];
    const util::Rng phase_rng = base.Split(i);
    // Every chunk in the group samples its share of the phase budget with
    // its own chain lane, started at the inner-ball center (interior of
    // every phase body). All lanes share one burn-in/walk schedule —
    // except that the first (per_phase % chunks) chunks take one extra
    // sample, a prefix of the lanes, walked as a subset at the end.
    BatchedHitAndRunSampler sampler(&phase_body, width);
    std::vector<util::Rng> lane_rng;
    lane_rng.reserve(width);
    std::vector<util::Rng*> rngs(width);
    std::vector<int> lanes(width);
    for (int l = 0; l < width; ++l) {
      lane_rng.emplace_back(phase_rng.Split(first + l));
      rngs[l] = &lane_rng[l];
      lanes[l] = l;
      sampler.ResetLane(l, inner.center);
    }
    sampler.WalkLanes(10 * walk, lanes.data(), width, rngs.data());  // burn-in
    std::vector<int> hits(width, 0);
    geom::Vec x;
    auto tally = [&](int l) {
      sampler.GetCurrent(l, &x);
      double d2 = 0.0;
      for (int j = 0; j < n; ++j) {
        double diff = x[j] - inner.center[j];
        d2 += diff * diff;
      }
      if (d2 <= prev_r2) ++hits[l];
    };
    const int base_samples = per_phase / chunks;
    const int extra = std::clamp(per_phase % chunks - first, 0, width);
    for (int s = 0; s < base_samples; ++s) {
      sampler.WalkLanes(walk, lanes.data(), width, rngs.data());
      for (int l = 0; l < width; ++l) tally(l);
    }
    if (extra > 0) {
      sampler.WalkLanes(walk, lanes.data(), extra, rngs.data());
      for (int l = 0; l < extra; ++l) tally(l);
    }
    std::copy(hits.begin(), hits.end(),
              inside.begin() + static_cast<int64_t>(i - 1) * chunks + first);
  };
  util::ThreadPool::RunGrid(options.pool,
                            static_cast<int64_t>(phases) * num_groups,
                            run_task);
  est.steps = static_cast<int64_t>(phases) *
              (static_cast<int64_t>(chunks) * 10 * walk +
               static_cast<int64_t>(per_phase) * walk);
  // The telescoping product, in phase order.
  for (int i = 1; i <= phases; ++i) {
    int total_inside = 0;
    for (int c = 0; c < chunks; ++c) {
      total_inside += inside[static_cast<size_t>(i - 1) * chunks + c];
    }
    double ratio = static_cast<double>(total_inside) / per_phase;
    // The true ratio is >= 2^{-1} by construction; guard the estimate away
    // from 0 so a pathological chain cannot blow up the product.
    ratio = std::max(ratio, 1e-3);
    est.volume /= ratio;
  }
  return est;
}

}  // namespace mudb::convex
