#include "core/fno.hpp"

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "baseline/problem.hpp"
#include "fused/lane.hpp"
#include "gemm/batched.hpp"
#include "runtime/scratch.hpp"

namespace turbofno::core {

namespace {

// What differs between the ranks: the field size, the spectral layer's
// constructor and the names in error messages.
std::size_t field_elems(const Fno1dConfig& c) noexcept { return c.n; }
std::size_t field_elems(const Fno2dConfig& c) noexcept { return c.nx * c.ny; }

SpectralConv1d make_spectral(const Fno1dConfig& c, std::size_t batch, unsigned seed) {
  return {batch, c.hidden, c.hidden, c.n, c.modes, c.backend, c.scheme, seed};
}
SpectralConv2d make_spectral(const Fno2dConfig& c, std::size_t batch, unsigned seed) {
  return {batch, c.hidden, c.hidden, c.nx, c.ny, c.modes_x, c.modes_y, c.backend,
          c.scheme, seed};
}

template <class Lane>
const char* model_name(const Fno1dConfig&) noexcept {
  return Lane::pick("Fno1d", "Fno1d(real)");
}
template <class Lane>
const char* model_name(const Fno2dConfig&) noexcept {
  return Lane::pick("Fno2d", "Fno2d(real)");
}

}  // namespace

// ------------------------------------------------------- PointwiseLinear

PointwiseLinear::PointwiseLinear(std::size_t in_ch, std::size_t out_ch, unsigned seed)
    : in_(in_ch), out_(out_ch), w_(in_ch * out_ch) {
  init_weights(w_.span(), in_ch, out_ch, seed);
}

void PointwiseLinear::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch,
                              std::size_t spatial) const {
  run<c32>(u, v, batch, spatial, false, gemm::Act::None);
}

void PointwiseLinear::forward_real(std::span<const float> u, std::span<float> v,
                                   std::size_t batch, std::size_t spatial) const {
  run<float>(u, v, batch, spatial, false, gemm::Act::None);
}

template <class Sample>
void PointwiseLinear::run(std::span<const Sample> u, std::span<Sample> v, std::size_t batch,
                          std::size_t spatial, bool accumulate, gemm::Act act) const {
  const gemm::BatchedStrides items{0, static_cast<std::ptrdiff_t>(in_ * spatial),
                                   static_cast<std::ptrdiff_t>(out_ * spatial)};
  const Sample beta = accumulate ? Sample{1.0f} : Sample{};
  if constexpr (std::is_same_v<Sample, c32>) {
    gemm::cgemm_batched(out_, spatial, in_, c32{1.0f}, w_.data(), in_, u.data(), spatial, beta,
                        v.data(), spatial, batch, items, act);
  } else {
    // The real lane mixes with Re W, taken per call (weights() is mutable,
    // so a kept copy could go stale).
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    const auto w = arena.alloc<float>(w_.size());
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = w_[i].re;
    gemm::sgemm_batched(out_, spatial, in_, 1.0f, w.data(), in_, u.data(), spatial, beta,
                        v.data(), spatial, batch, items, act);
  }
}

// ------------------------------------------------------------- FnoModel

template <class Config, class Spectral>
FnoModel<Config, Spectral>::FnoModel(const Config& cfg)
    : cfg_(cfg),
      batch_(1),
      lift_(cfg.in_channels, cfg.hidden, cfg.seed),
      project_(cfg.hidden, cfg.out_channels, cfg.seed + 1000003u) {
  // hidden and the spectral shape are validated by the spectral layers'
  // problem; the physical channel counts are only consumed here, so guard
  // them here (the per-item element counts divide the buffer checks).
  if (cfg_.in_channels == 0 || cfg_.out_channels == 0) {
    throw std::invalid_argument(std::string(model_name<fused::ComplexLane>(cfg_)) +
                                ": in_channels/out_channels must be non-zero");
  }
  spectral_.reserve(cfg_.layers);
  residual_.reserve(cfg_.layers);
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    spectral_.push_back(
        make_spectral(cfg_, batch_, cfg_.seed + static_cast<unsigned>(l) * 7919u));
    residual_.emplace_back(cfg_.hidden, cfg_.hidden, cfg_.seed + 31u + static_cast<unsigned>(l));
  }
}

template <class Config, class Spectral>
template <class Sample>
void FnoModel<Config, Spectral>::Hidden<Sample>::grow(std::size_t elems) {
  if (front.size() >= elems) return;
  front.resize(elems);
  back.resize(elems);
}

template <class Config, class Spectral>
void FnoModel<Config, Spectral>::reserve(std::size_t batch) {
  if (batch <= batch_) return;
  // Grow everything before bumping the capacity mark (exception safety).
  for (auto& layer : spectral_) layer.reserve(batch);
  // Only a lane that has run holds hidden fields (run<Lane> sizes them).
  const std::size_t hid = batch * cfg_.hidden * field_elems(cfg_);
  if (complex_hidden_.front.size() != 0) complex_hidden_.grow(hid);
  if (real_hidden_.front.size() != 0) real_hidden_.grow(hid);
  batch_ = batch;
}

template <class Config, class Spectral>
void FnoModel<Config, Spectral>::forward(std::span<const c32> u, std::span<c32> v) {
  forward(u, v, batch_);
}

template <class Config, class Spectral>
void FnoModel<Config, Spectral>::forward(std::span<const c32> u, std::span<c32> v,
                                         std::size_t batch) {
  run<fused::ComplexLane>(u, v, batch);
}

template <class Config, class Spectral>
void FnoModel<Config, Spectral>::forward_real(std::span<const float> u, std::span<float> v,
                                              std::size_t batch) {
  run<fused::RealLane>(u, v, batch);
}

template <class Config, class Spectral>
template <class Lane>
void FnoModel<Config, Spectral>::run(std::span<const typename Lane::Sample> u,
                                     std::span<typename Lane::Sample> v, std::size_t batch) {
  using S = typename Lane::Sample;
  const std::size_t field = field_elems(cfg_);
  baseline::check_batch_spans(u.size(), v.size(), cfg_.in_channels * field,
                              cfg_.out_channels * field, batch, model_name<Lane>(cfg_));
  reserve(batch);
  if (batch == 0) return;
  const std::size_t hid = batch * cfg_.hidden * field;
  auto& h = Lane::pick(complex_hidden_, real_hidden_);
  h.grow(hid);
  auto state = h.front.span().first(hid);
  auto next = h.back.span().first(hid);
  lift_.run<S>(u, state, batch, field, false, gemm::Act::None);
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    // next <- act(spectral(state) + W_l state): the residual GEMM adds onto
    // the spectral output and activates in its epilogue (the last layer
    // skips the activation).
    spectral_[l].template run<Lane>(state, next, batch);
    const bool last = l + 1 == cfg_.layers;
    residual_[l].run<S>(state, next, batch, field, true,
                        last ? gemm::Act::None : gemm::Act::Relu);
    std::swap(state, next);
  }
  project_.run<S>(state, v, batch, field, false, gemm::Act::None);
}

template class FnoModel<Fno1dConfig, SpectralConv1d>;
template class FnoModel<Fno2dConfig, SpectralConv2d>;

}  // namespace turbofno::core
