#include "core/spectral_conv.hpp"

#include <cmath>

#include "fused/lane.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"

namespace turbofno::core {

namespace {

// A ladder pipeline's entry point for each lane's samples.
template <class Pipeline>
void run_pipeline(Pipeline& p, std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                  std::size_t batch) {
  p.run_batched(u, w, v, batch);
}
template <class Pipeline>
void run_pipeline(Pipeline& p, std::span<const float> u, std::span<const c32> w,
                  std::span<float> v, std::size_t batch) {
  p.run_batched_real(u, w, v, batch);
}

// The ladder row serving `Lane`: the layer's `complex` pipeline, unless
// Auto resolves the real lane's half-spectrum working set to another row,
// which is then built into `real` on first use.  Every concrete row
// implements both lanes on shared workspaces.
template <class Lane, class Pipeline, class Problem, class Make>
Pipeline& lane_pipeline(const std::unique_ptr<Pipeline>& complex, std::unique_ptr<Pipeline>& real,
                        Backend backend, const Problem& prob, Make make) {
  if (fused::resolve_variant(backend, prob, Lane::kRealInput) ==
      fused::resolve_variant(backend, prob, false)) {
    return *complex;
  }
  if (!real) real = make(backend, prob, true);
  return *real;
}

}  // namespace

void init_weights(std::span<c32> w, std::size_t fan_in, std::size_t fan_out, unsigned seed) {
  std::mt19937 rng(seed);
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  std::uniform_real_distribution<float> dist(-bound, bound);
  for (auto& x : w) x = {dist(rng), dist(rng)};
}

// ------------------------------------------------------------ SpectralConv1d

SpectralConv1d::SpectralConv1d(std::size_t batch, std::size_t hidden, std::size_t out_dim,
                               std::size_t n, std::size_t modes, Backend backend,
                               WeightScheme scheme, unsigned seed)
    : scheme_(scheme), backend_(backend) {
  prob_.batch = batch;
  prob_.hidden = hidden;
  prob_.out_dim = out_dim;
  prob_.n = n;
  prob_.modes = modes;
  prob_.validate();

  if (scheme_ == WeightScheme::Shared) {
    weights_.resize(out_dim * hidden);
    pipeline_ = fused::make_pipeline1d(backend, prob_);
  } else {
    weights_.resize(modes * out_dim * hidden);
    freq_.resize(batch * hidden * modes);
    mixed_.resize(batch * out_dim * modes);
  }
  init_weights(weights_.span(), hidden, out_dim, seed);
}

SpectralConv1d::~SpectralConv1d() = default;
SpectralConv1d::SpectralConv1d(SpectralConv1d&&) noexcept = default;
SpectralConv1d& SpectralConv1d::operator=(SpectralConv1d&&) noexcept = default;

void SpectralConv1d::forward(std::span<const c32> u, std::span<c32> v) {
  forward(u, v, prob_.batch);
}

void SpectralConv1d::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch) {
  run<fused::ComplexLane>(u, v, batch);
}

void SpectralConv1d::forward_real(std::span<const float> u, std::span<float> v,
                                  std::size_t batch) {
  run<fused::RealLane>(u, v, batch);
}

void SpectralConv1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  if (scheme_ == WeightScheme::Shared) {
    pipeline_->reserve(batch);
    if (pipeline_real_) pipeline_real_->reserve(batch);
  } else {
    // Grow before bumping the capacity mark (exception safety).
    freq_.resize(batch * prob_.hidden * prob_.modes);
    mixed_.resize(batch * prob_.out_dim * prob_.modes);
  }
  prob_.batch = batch;
}

const trace::PipelineCounters& SpectralConv1d::counters() const {
  return scheme_ == WeightScheme::Shared ? pipeline_->counters() : permode_counters_;
}

template <class Lane>
void SpectralConv1d::run(std::span<const typename Lane::Sample> u,
                         std::span<typename Lane::Sample> v, std::size_t batch) {
  // Validate before reserving so a wild batch value throws instead of
  // attempting a batch-proportional allocation.
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                              prob_.out_dim * prob_.n, batch,
                              Lane::pick("SpectralConv1d", "SpectralConv1d(real)"));
  reserve(batch);
  if (scheme_ == WeightScheme::Shared) {
    auto& pipe =
        lane_pipeline<Lane>(pipeline_, pipeline_real_, backend_, prob_, fused::make_pipeline1d);
    run_pipeline(pipe, u, weights_.span(), v, batch);
  } else {
    run_per_mode<Lane>(u, v, batch);
  }
}

template <class Lane>
void SpectralConv1d::run_per_mode(std::span<const typename Lane::Sample> u,
                                  std::span<typename Lane::Sample> v, std::size_t batch) {
  if (batch == 0) return;
  using S = typename Lane::Sample;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;
  const std::size_t M = Lane::kept(prob_.modes);  // per-mode matrices f < M apply
  permode_counters_.clear();

  // The per-mode path is the reference-grade unfused schedule.
  const auto pl = Lane::plans(N, M);

  runtime::Timer t;
  pl.fwd->execute(u.first(B * K * N), freq_.span().first(B * K * M), B * K);
  // Per-mode mixing: for each frequency f, an independent O x K matrix.
  runtime::parallel_for(0, B * M, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t b = i / M;
      const std::size_t f = i % M;
      const c32* wf = weights_.data() + f * O * K;
      for (std::size_t o = 0; o < O; ++o) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, wf[o * K + k], freq_[(b * K + k) * M + f]);
        }
        mixed_[(b * O + o) * M + f] = acc;
      }
    }
  });
  pl.inv->execute(mixed_.span().first(B * O * M), v.first(B * O * N), B * O);

  auto& sc = permode_counters_.stage("per-mode-spectral-conv");
  sc.seconds = t.seconds();
  sc.bytes_read = B * K * N * sizeof(S) + (M * O * K + B * O * M) * sizeof(c32);
  sc.bytes_written = (B * K * M + B * O * M) * sizeof(c32) + B * O * N * sizeof(S);
  sc.flops = B * K * pl.fwd->flops_per_signal() + trace::cgemm_flops(B * M, O, K) +
             B * O * pl.inv->flops_per_signal();
  sc.kernel_launches = 3;
}

// ------------------------------------------------------------ SpectralConv2d

SpectralConv2d::SpectralConv2d(std::size_t batch, std::size_t hidden, std::size_t out_dim,
                               std::size_t nx, std::size_t ny, std::size_t modes_x,
                               std::size_t modes_y, Backend backend, WeightScheme scheme,
                               unsigned seed)
    : scheme_(scheme), backend_(backend) {
  prob_.batch = batch;
  prob_.hidden = hidden;
  prob_.out_dim = out_dim;
  prob_.nx = nx;
  prob_.ny = ny;
  prob_.modes_x = modes_x;
  prob_.modes_y = modes_y;
  prob_.validate();
  if (scheme_ != WeightScheme::Shared) {
    throw std::invalid_argument("SpectralConv2d: PerMode scheme is 1D-only in this release");
  }
  weights_.resize(out_dim * hidden);
  pipeline_ = fused::make_pipeline2d(backend, prob_);
  init_weights(weights_.span(), hidden, out_dim, seed);
}

SpectralConv2d::~SpectralConv2d() = default;
SpectralConv2d::SpectralConv2d(SpectralConv2d&&) noexcept = default;
SpectralConv2d& SpectralConv2d::operator=(SpectralConv2d&&) noexcept = default;

void SpectralConv2d::forward(std::span<const c32> u, std::span<c32> v) {
  pipeline_->run(u, weights_.span(), v);
}

void SpectralConv2d::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch) {
  run<fused::ComplexLane>(u, v, batch);
}

void SpectralConv2d::forward_real(std::span<const float> u, std::span<float> v,
                                  std::size_t batch) {
  run<fused::RealLane>(u, v, batch);
}

void SpectralConv2d::reserve(std::size_t batch) {
  pipeline_->reserve(batch);
  if (pipeline_real_) pipeline_real_->reserve(batch);
  if (batch > prob_.batch) prob_.batch = batch;
}

const trace::PipelineCounters& SpectralConv2d::counters() const { return pipeline_->counters(); }

template <class Lane>
void SpectralConv2d::run(std::span<const typename Lane::Sample> u,
                         std::span<typename Lane::Sample> v, std::size_t batch) {
  const std::size_t field = prob_.nx * prob_.ny;
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * field, prob_.out_dim * field,
                              batch, Lane::pick("SpectralConv2d", "SpectralConv2d(real)"));
  reserve(batch);
  auto& pipe =
      lane_pipeline<Lane>(pipeline_, pipeline_real_, backend_, prob_, fused::make_pipeline2d);
  run_pipeline(pipe, u, weights_.span(), v, batch);
}

template void SpectralConv1d::run<fused::ComplexLane>(std::span<const c32>, std::span<c32>,
                                                      std::size_t);
template void SpectralConv1d::run<fused::RealLane>(std::span<const float>, std::span<float>,
                                                   std::size_t);
template void SpectralConv2d::run<fused::ComplexLane>(std::span<const c32>, std::span<c32>,
                                                      std::size_t);
template void SpectralConv2d::run<fused::RealLane>(std::span<const float>, std::span<float>,
                                                   std::size_t);

}  // namespace turbofno::core
