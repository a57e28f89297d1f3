#include "core/fno.hpp"

#include <stdexcept>
#include <string>

#include "baseline/problem.hpp"
#include "fused/lane.hpp"
#include "runtime/parallel.hpp"

namespace turbofno::core {

namespace {

// The per-lane arithmetic of the pointwise mix and the activation: the
// complex lane mixes with the full weight and clamps re and im
// independently, the real lane mixes with the weight's real part.
void madd(c32& acc, c32 w, c32 u) noexcept { cmadd(acc, w, u); }
void madd(float& acc, c32 w, float u) noexcept { acc += w.re * u; }
float relu(float x) noexcept { return x > 0.0f ? x : 0.0f; }
c32 relu(c32 z) noexcept { return {relu(z.re), relu(z.im)}; }

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
  run<c32>(u, v, batch, spatial);
}

void PointwiseLinear::forward_real(std::span<const float> u, std::span<float> v,
                                   std::size_t batch, std::size_t spatial) const {
  run<float>(u, v, batch, spatial);
}

template <class Sample>
void PointwiseLinear::run(std::span<const Sample> u, std::span<Sample> v, std::size_t batch,
                          std::size_t spatial) const {
  runtime::parallel_for(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const Sample* ub = u.data() + b * in_ * spatial;
      Sample* vb = v.data() + b * out_ * spatial;
      for (std::size_t o = 0; o < out_; ++o) {
        Sample* vrow = vb + o * spatial;
        for (std::size_t s = 0; s < spatial; ++s) vrow[s] = Sample{};
        for (std::size_t k = 0; k < in_; ++k) {
          const c32 w = w_[o * in_ + k];
          const Sample* urow = ub + k * spatial;
          for (std::size_t s = 0; s < spatial; ++s) {
            madd(vrow[s], w, urow[s]);
          }
        }
      }
    }
  });
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
  if (state.size() >= elems) return;
  state.resize(elems);
  spectral.resize(elems);
  residual.resize(elems);
}

template <class Config, class Spectral>
void FnoModel<Config, Spectral>::reserve(std::size_t batch) {
  if (batch <= batch_) return;
  // Grow everything before bumping the capacity mark (exception safety).
  for (auto& layer : spectral_) layer.reserve(batch);
  // Only a lane that has run holds hidden fields (run<Lane> sizes them).
  const std::size_t hid = batch * cfg_.hidden * field_elems(cfg_);
  if (complex_hidden_.state.size() != 0) complex_hidden_.grow(hid);
  if (real_hidden_.state.size() != 0) real_hidden_.grow(hid);
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
  const auto state = h.state.span().first(hid);
  const auto spectral = h.spectral.span().first(hid);
  const auto residual = h.residual.span().first(hid);
  lift_.run<S>(u, state, batch, field);
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    spectral_[l].template run<Lane>(state, spectral, batch);
    residual_[l].run<S>(state, residual, batch, field);
    // state <- act(spectral + residual); the last layer skips the activation.
    const S* a = spectral.data();
    const S* r = residual.data();
    S* dst = state.data();
    const bool last = (l + 1 == cfg_.layers);
    runtime::parallel_for(0, hid, 1 << 16, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const S s = a[i] + r[i];
        dst[i] = last ? s : relu(s);
      }
    });
  }
  project_.run<S>(state, v, batch, field);
}

template class FnoModel<Fno1dConfig, SpectralConv1d>;
template class FnoModel<Fno2dConfig, SpectralConv2d>;

}  // namespace turbofno::core
