// Spectral-lane policies.
//
// Every ladder variant, the PyTorch baseline rows and the model layer
// (core/fno, core/spectral_conv) run on two spectral lanes, and each body
// is written once, as a `template <class Lane>`, against one of these two
// policies:
//
//   ComplexLane  c32 samples; the C2C forward FFT truncated to `modes` bins
//                and the zero-padded C2C inverse (the paper's formulation).
//   RealLane     float samples; the R2C forward FFT keeping modes/2+1 bins
//                of the half-spectrum and the Hermitian-projecting C2R
//                inverse (torch.fft.rfft/irfft semantics, fft/real.hpp).
//
// The spectra between the transforms are c32 on both lanes, so the CGEMM,
// the split-plane k-loop and every workspace are shared: the real lane's
// kept bins are a capacity subset of the complex lane's.  A policy gives
//   - Sample: the element type of the fields u and v;
//   - kRealInput: the lane's `real_input` flag of the ladder factories;
//   - kept(modes): the bins (1D) or x-rows (2D) the lane keeps;
//   - Plans / plans(n, kept): the forward/inverse plan pair.  All four plan
//     types share execute, execute_one, scratch_elems and flops_per_signal;
//   - 2D only: the X-stage tile producer/consumer (fft/fft2d.hpp or
//     fft/real2d.hpp), the plans it runs on, and its closed-form FLOPs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "tensor/complex.hpp"

namespace turbofno::fused {

/// A forward/inverse plan pair from the process-wide plan cache (shared, so
/// every pipeline and serving bucket of one shape reuses the same plans).
template <class Fwd, class Inv>
struct PlanPair {
  std::shared_ptr<const Fwd> fwd;
  std::shared_ptr<const Inv> inv;
};

using C2cPlans = PlanPair<fft::FftPlan, fft::FftPlan>;

struct ComplexLane {
  using Sample = c32;
  using Plans = C2cPlans;
  using XPlans = C2cPlans;

  /// Labels of the batch-span checks.
  static constexpr const char* kWho1d = "pipeline1d";
  static constexpr const char* kWho2d = "pipeline2d";
  /// The ladder factories' `real_input` flag (Auto's working-set sizing).
  static constexpr bool kRealInput = false;

  [[nodiscard]] static constexpr std::size_t kept(std::size_t modes) noexcept { return modes; }

  /// The n-point forward truncated to `kept` bins and the inverse reading a
  /// `kept`-bin zero-padded prefix.
  [[nodiscard]] static Plans plans(std::size_t n, std::size_t kept);

  /// 2D X stage: the same truncated/zero-padded C2C pair along X, run per
  /// column by fft2d_x_stage_{to,from}_tiles.
  [[nodiscard]] static XPlans x_plans(std::size_t nx, std::size_t keep_x) {
    return plans(nx, keep_x);
  }
  static void x_to_tiles(const XPlans& x, std::size_t keep_x, const c32* in, std::size_t fields,
                         std::size_t ny, const fft::XStageTileDst& dst);
  static void x_from_tiles(const XPlans& x, std::size_t keep_x, const fft::XStageTileSrc& src,
                           c32* out, std::size_t fields, std::size_t ny);
  /// FLOPs of one [nx, ny] field through the forward (`plan == *x.fwd`) or
  /// inverse X stage: one transform per column.
  [[nodiscard]] static std::uint64_t x_flops_per_field(const fft::FftPlan& plan,
                                                       std::size_t keep_x, std::size_t ny);

  /// The lane's own slot of a per-lane pair of members.
  template <class C, class R>
  [[nodiscard]] static constexpr C& pick(C& complex, R&) noexcept {
    return complex;
  }
};

struct RealLane {
  using Sample = float;
  using Plans = PlanPair<fft::RfftPlan, fft::IrfftPlan>;
  using XPlans = C2cPlans;

  static constexpr const char* kWho1d = "pipeline1d(real)";
  static constexpr const char* kWho2d = "pipeline2d(real)";
  static constexpr bool kRealInput = true;

  /// modes/2+1 <= modes, so complex-lane workspaces cover the real layout.
  [[nodiscard]] static constexpr std::size_t kept(std::size_t modes) noexcept {
    return modes / 2 + 1;
  }

  /// R2C keeping `kept` half-spectrum bins and C2R reading a `kept`-bin
  /// prefix.  Requires n >= 4.
  [[nodiscard]] static Plans plans(std::size_t n, std::size_t kept);

  /// 2D X stage: the two-for-one column-pair R2C/C2R stages of
  /// fft/real2d.hpp, which run dense nx-point C2C transforms (the pair
  /// returned here, kept for the FLOP count) plus an O(keep_x) untangle per
  /// column.  Requires nx >= 4.
  [[nodiscard]] static XPlans x_plans(std::size_t nx, std::size_t keep_x);
  static void x_to_tiles(const XPlans& x, std::size_t keep_x,
                         const float* in, std::size_t fields, std::size_t ny,
                         const fft::XStageTileDst& dst);
  static void x_from_tiles(const XPlans& x, std::size_t keep_x,
                           const fft::XStageTileSrc& src, float* out, std::size_t fields,
                           std::size_t ny);
  /// One packed transform per column pair plus an 8-FLOP untangle per kept
  /// bin of every column.
  [[nodiscard]] static std::uint64_t x_flops_per_field(const fft::FftPlan& plan,
                                                       std::size_t keep_x, std::size_t ny);

  template <class C, class R>
  [[nodiscard]] static constexpr R& pick(C&, R& real) noexcept {
    return real;
  }
};

}  // namespace turbofno::fused
