// Full Fourier Neural Operator models (inference).
//
// Architecture per Li et al. / the paper's Figure 1(a):
//   lifting (pointwise linear in_ch -> hidden)
//   L x [ SpectralConv + pointwise residual path, activation ]
//   projection (pointwise hidden -> out_ch)
//
// One forward body (FnoModel; Fno1d and Fno2d name its two ranks) runs on
// both spectral lanes of fused/lane.hpp, sharing every weight:
//   forward()       c32 fields.  As in the paper, spectra are truncated to
//                   the first `modes` bins of a C2C transform (no conjugate-
//                   symmetric half), so hidden fields are genuinely complex;
//                   the activation acts on re and im independently.
//   forward_real()  float fields; each spectral layer runs its RFFT
//                   half-spectrum lane and the pointwise layers mix with the
//                   real parts of their weights.
//
// Lift, residual and projection run on the packed micro-kernel GEMM
// (gemm/batched.hpp; cgemm on the complex lane, the float sgemm path on the
// real lane).  Each layer's residual GEMM accumulates onto the spectral
// layer's output and applies the activation in its epilogue, so a lane
// keeps two hidden fields and no separate add/activation pass runs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/spectral_conv.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"

namespace turbofno::gemm {
enum class Act : unsigned char;  // gemm/config.hpp (an internal header)
}  // namespace turbofno::gemm

namespace turbofno::core {

/// Pointwise (1x1) channel mixing: v[b,o,s] = sum_k W[o,k] u[b,k,s], one
/// batched GEMM (M = out, N = spatial, K = in, W shared by every item).
/// Each output is an ascending-k sum from zero, so item b's result is the
/// same in any batch and at any thread count.
class PointwiseLinear {
 public:
  PointwiseLinear(std::size_t in_ch, std::size_t out_ch, unsigned seed);

  /// u [batch, in_ch, spatial] -> v [batch, out_ch, spatial].
  void forward(std::span<const c32> u, std::span<c32> v, std::size_t batch,
               std::size_t spatial) const;
  /// Real-field variant: mixes with the real parts of the weights (the real
  /// model keeps every spatial tensor in floats; only the retained spectra
  /// are complex).  Re W is taken from the weights on every call.
  void forward_real(std::span<const float> u, std::span<float> v, std::size_t batch,
                    std::size_t spatial) const;

  /// Mutable weight access [out, in].  Weight-invalidating: writing through
  /// this span changes what subsequent forwards compute (both lanes read the
  /// weights afresh each call), and any derived state a caller packed from
  /// the old values (split/SoA weight planes) must be re-derived.  Use the
  /// const overload for read-only access.
  [[nodiscard]] std::span<c32> weights() noexcept { return w_.span(); }
  [[nodiscard]] std::span<const c32> weights() const noexcept { return w_.span(); }
  [[nodiscard]] std::size_t in_channels() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_channels() const noexcept { return out_; }

 private:
  template <class, class>
  friend class FnoModel;
  /// The body of forward (Sample = c32) and forward_real (Sample = float):
  /// v = act(W u + (accumulate ? v : 0)) through the batched GEMM.  An FNO
  /// layer passes accumulate = true onto its spectral output.
  template <class Sample>
  void run(std::span<const Sample> u, std::span<Sample> v, std::size_t batch,
           std::size_t spatial, bool accumulate, gemm::Act act) const;

  std::size_t in_;
  std::size_t out_;
  AlignedBuffer<c32> w_;  // [out, in]
};

/// An FNO of one rank: Config is Fno1dConfig or Fno2dConfig and Spectral
/// the matching SpectralConv1d / SpectralConv2d.  Use the Fno1d / Fno2d
/// names below.
template <class Config, class Spectral>
class FnoModel {
 public:
  /// Capacity is elastic: the model starts sized for one signal and grows
  /// its workspaces on demand (reserve / a larger forward micro-batch).
  explicit FnoModel(const Config& cfg);
  /// u [batch, in_channels, field] -> v [batch, out_channels, field] over
  /// the current capacity (see capacity()); field is n (1D) or nx x ny (2D).
  void forward(std::span<const c32> u, std::span<c32> v);
  /// Micro-batch variant for the serving layer: first `batch` signals; a
  /// batch beyond the current capacity grows the workspaces in place.
  /// Per-signal results are bitwise-identical to a batch-1 forward.
  void forward(std::span<const c32> u, std::span<c32> v, std::size_t batch);
  /// Real-input forward: u and v hold real samples; every hidden field stays
  /// in floats and each spectral layer runs its RFFT half-spectrum lane (see
  /// SpectralConv1d::forward_real).  Requires n >= 4 (1D) / nx >= 4 (2D).
  void forward_real(std::span<const float> u, std::span<float> v, std::size_t batch);

  /// Grows every layer's workspaces, and the hidden fields of each lane that
  /// has run, so forwards up to `batch` run without reallocation.  A lane's
  /// hidden fields are first sized when that lane first runs.  Never
  /// shrinks; growth does not perturb results or weights.
  void reserve(std::size_t batch);

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  /// Current capacity high-water mark (grows, never shrinks).
  [[nodiscard]] std::size_t capacity() const noexcept { return batch_; }
  [[nodiscard]] std::size_t batch() const noexcept { return batch_; }

  /// Mutable layer access.  Weight-invalidating (see PointwiseLinear::
  /// weights): use the const overloads when only reading.
  [[nodiscard]] std::vector<Spectral>& spectral_layers() noexcept { return spectral_; }
  [[nodiscard]] const std::vector<Spectral>& spectral_layers() const noexcept {
    return spectral_;
  }
  [[nodiscard]] PointwiseLinear& lift() noexcept { return lift_; }
  [[nodiscard]] const PointwiseLinear& lift() const noexcept { return lift_; }
  [[nodiscard]] std::vector<PointwiseLinear>& residual_layers() noexcept { return residual_; }
  [[nodiscard]] const std::vector<PointwiseLinear>& residual_layers() const noexcept {
    return residual_;
  }
  [[nodiscard]] PointwiseLinear& projection() noexcept { return project_; }
  [[nodiscard]] const PointwiseLinear& projection() const noexcept { return project_; }

 private:
  /// One lane's two hidden fields, [batch, hidden, field] each (grow-only).
  /// A layer reads one and writes the other: the spectral layer stores its
  /// output there, then the residual GEMM adds W u and applies the
  /// activation in place.  The two swap roles every layer.
  template <class Sample>
  struct Hidden {
    AlignedBuffer<Sample> front;
    AlignedBuffer<Sample> back;
    void grow(std::size_t elems);
  };

  /// The body of forward (fused::ComplexLane) and forward_real
  /// (fused::RealLane).
  template <class Lane>
  void run(std::span<const typename Lane::Sample> u, std::span<typename Lane::Sample> v,
           std::size_t batch);

  Config cfg_;
  std::size_t batch_;
  PointwiseLinear lift_;
  std::vector<Spectral> spectral_;
  std::vector<PointwiseLinear> residual_;
  PointwiseLinear project_;
  Hidden<c32> complex_hidden_;
  Hidden<float> real_hidden_;
};

using Fno1d = FnoModel<Fno1dConfig, SpectralConv1d>;
using Fno2d = FnoModel<Fno2dConfig, SpectralConv2d>;

extern template class FnoModel<Fno1dConfig, SpectralConv1d>;
extern template class FnoModel<Fno2dConfig, SpectralConv2d>;

}  // namespace turbofno::core
