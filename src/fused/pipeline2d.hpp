// The four TurboFNO 2D pipeline variants (ladder stages A-D).
//
// 2D structure (Figure 4): the first FFT stage runs along DimX with
// truncation to modes_x rows; the middle of the pipeline — FFT along DimY,
// CGEMM over the hidden dim, iFFT along DimY — is where fusion applies; the
// last stage is the zero-padded inverse FFT along DimX.
//
// Every variant runs the same middle-stage schedule: the X stage streams
// y-major [slab, modes_x] tiles (fft::fft2d_x_stage_to_tiles) into a
// cache-sized staging block covering a small group of batch elements; the
// Y/CGEMM middle consumes the tiles with blocked transposes and writes its
// output tiles back the same way, and the inverse X stage drains them
// (fft::fft2d_x_stage_from_tiles).  The full [B*K*mx*ny] intermediate is
// never written or re-read, and both X-stage transposes next to it
// disappear.
//
// Both spectral lanes (fused/lane.hpp) share that schedule: run_mid<Lane>
// drives the lane's X stages (the real lane's are the two-for-one R2C/C2R
// column-pair stages keeping modes_x/2+1 x-rows), the Y axis is complex on
// both, and each variant writes its middle and its closed-form counters
// once, in run_lane<Lane>.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "baseline/problem.hpp"
#include "fft/plan.hpp"
#include "fused/lane.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::fused {

/// Overrides the batch-group size of the middle schedule (number of batch
/// elements staged between the X stages at once).  `g == 0` restores the
/// default policy (sized so the staging tiles fit a cache budget).  Tests
/// use small groups to exercise group-boundary handling.
void set_fused_mid_group(std::size_t g) noexcept;

/// Common substrate for the 2D variants: the along-X truncated/padded
/// stages, the batch-group staging of the middle, and the buffers every
/// variant needs.
class Pipeline2dBase {
 public:
  explicit Pipeline2dBase(baseline::Spectral2dProblem prob, const char* counters_name);
  [[nodiscard]] const trace::PipelineCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const baseline::Spectral2dProblem& problem() const noexcept { return prob_; }

  /// Elastic capacity: problem().batch is a hint, not a contract.  Bumps
  /// the high-water capacity and pre-sizes the staging tiles so a batch
  /// this large runs without reallocating (the run itself still lazily
  /// grows buffers, grow-only, if the group override changes afterwards).
  /// Variants with their own group-scaled buffers shadow this and pre-size
  /// those too.
  void reserve(std::size_t batch);

 protected:
  /// Strided view of one batch group's y-major staging tiles.  Rows are
  /// addressed as (bl, channel, x) with bl local to the group; consecutive
  /// x rows are adjacent and `y` is the distance between a row's y samples
  /// (the x extent of the tiles: the lane's kept(modes_x)).  Variant middle
  /// stages are written once against this view.
  struct MidView {
    const c32* in = nullptr;  // post-X spectra, group base
    c32* out = nullptr;       // pre-inverse-X spectra, group base
    std::size_t count = 0;    // batch elements in the group (bl below is group-local)
    std::size_t y = 0;        // distance between a row's y samples
    std::size_t chan = 0;     // distance between channels (ny * y)
    std::size_t in_b = 0;     // distance between batch elements
    std::size_t out_b = 0;

    [[nodiscard]] const c32* in_row(std::size_t bl, std::size_t k, std::size_t x) const noexcept {
      return in + bl * in_b + k * chan + x;
    }
    [[nodiscard]] c32* out_row(std::size_t bl, std::size_t o, std::size_t x) const noexcept {
      return out + bl * out_b + o * chan + x;
    }
  };

  /// Runs `Lane`'s X stage -> middle -> inverse X stage over `batch`
  /// elements, `group` batch elements at a time (sampled once by the caller
  /// from mid_group(), so one run never disagrees with the caller's
  /// group-sized buffers).  `middle` is invoked once per batch group and
  /// must only accumulate stage *timings* — byte/FLOP counters are
  /// closed-form per run and belong to the caller (run_mid writes the X
  /// stages' own).
  template <class Lane>
  void run_mid(std::span<const typename Lane::Sample> u, std::span<typename Lane::Sample> v,
               std::size_t batch, std::size_t group,
               const std::function<void(const MidView&)>& middle);

  /// Batch elements staged per middle group: the override when one is set,
  /// otherwise as many as keep the in+out staging tiles within a cache
  /// budget (always >= 1).
  [[nodiscard]] std::size_t mid_group(std::size_t batch) const noexcept;

  /// Blocked tile I/O of the fused middle bodies (single-sourced so the
  /// layout-sensitive transposes exist once): gather_xblock moves a k-tile's
  /// [ny, xc] y-major staging columns into contiguous gbuf rows (channel kk
  /// at gbuf + kk*xb*ny, row xi at + xi*ny); scatter_xblock moves xc
  /// contiguous sbuf rows back into output channel o's staging columns.
  static void gather_xblock(const MidView& mv, std::size_t bl, std::size_t k0,
                            std::size_t kc, std::size_t x0, std::size_t xc, std::size_t xb,
                            std::size_t ny, c32* gbuf) noexcept;
  static void scatter_xblock(const MidView& mv, std::size_t bl, std::size_t o,
                             std::size_t x0, std::size_t xc, std::size_t ny,
                             const c32* sbuf) noexcept;

  /// The separate Y-stage passes over one group, single-sourced for the
  /// A/B/C variants: one plan.execute_one per (bl, channel, x) row.
  /// y_forward_rows reads view rows into the dense
  /// [group, channels, mx, my] spectra block; y_inverse_rows reads that
  /// block's my-element rows back out into view rows.
  static void y_forward_rows(const fft::FftPlan& plan, const MidView& mv,
                             std::size_t channels, std::size_t mx, std::size_t my,
                             c32* spectra);
  static void y_inverse_rows(const fft::FftPlan& plan, const MidView& mv,
                             std::size_t channels, std::size_t mx, std::size_t my,
                             const c32* spectra);

  /// Throws when the caller's buffers cannot hold `batch` fields (capacity
  /// itself is elastic; see reserve).
  template <class Lane>
  void check_spans(std::span<const typename Lane::Sample> u,
                   std::span<typename Lane::Sample> v, std::size_t batch) const;

  /// `Lane`'s X-stage plans: the complex lane's acquired at construction,
  /// the real lane's on first use (its X stage requires nx >= 4).
  template <class Lane>
  const typename Lane::XPlans& x_plans();

  /// Grow-only (re)allocation for the lazily sized schedule buffers.
  static void ensure(AlignedBuffer<c32>& buf, std::size_t elems) {
    if (buf.size() < elems) buf.resize(elems);
  }

  /// Single sizing authority for the staging tiles, shared by reserve()
  /// and run_mid() so the two can never disagree on a formula.
  void ensure_mid_buffers(std::size_t group);

  baseline::Spectral2dProblem prob_;
  ComplexLane::XPlans x_complex_;
  RealLane::XPlans x_real_;
  // Y stays complex on both lanes: the truncated FFT feeding the GEMM
  // k-loop and the zero-padded iFFT of the CGEMM epilogue.
  ComplexLane::Plans y_;
  // Staging tiles, lazily sized by run_mid: one batch group in y-major
  // order.
  AlignedBuffer<c32> staging_in_;   // [bg, K, ny, mx] y-major tiles
  AlignedBuffer<c32> staging_out_;  // [bg, O, ny, mx]
  trace::PipelineCounters counters_;
};

/// Stage A: every kernel truncated/pruned, nothing fused (5 launches).
class FftOptPipeline2d : public Pipeline2dBase {
 public:
  explicit FftOptPipeline2d(baseline::Spectral2dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);  // also pre-sizes freq_/mixed_

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);
  void ensure_variant_buffers(std::size_t gcap);  // single sizing authority
  // One group's Y-FFT -> CGEMM -> Y-iFFT middle: `mx` is the x-extent of
  // the group's spectra (the lane's kept(modes_x)).
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);

  AlignedBuffer<c32> freq_;   // [group, K, mx, my]
  AlignedBuffer<c32> mixed_;  // [group, O, mx, my]
};

/// Stage B: FFT-Y fused with CGEMM; iFFT-Y separate (4 launches).
class FusedFftGemmPipeline2d : public Pipeline2dBase {
 public:
  explicit FusedFftGemmPipeline2d(baseline::Spectral2dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);  // also pre-sizes mixed_

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);
  void ensure_variant_buffers(std::size_t gcap);
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);

  AlignedBuffer<c32> mixed_;  // [group, O, mx, my]
};

/// Stage C: FFT-Y separate; CGEMM fused with the iFFT-Y epilogue.
class FusedGemmIfftPipeline2d : public Pipeline2dBase {
 public:
  explicit FusedGemmIfftPipeline2d(baseline::Spectral2dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);  // also pre-sizes freq_

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);
  void ensure_variant_buffers(std::size_t gcap);
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);

  AlignedBuffer<c32> freq_;  // [group, K, mx, my]
};

/// Stage D: fused FFT-Y + CGEMM + iFFT-Y between the two X stages
/// (3 launches).
class FullyFusedPipeline2d : public Pipeline2dBase {
 public:
  explicit FullyFusedPipeline2d(baseline::Spectral2dProblem prob);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);

 private:
  template <class Lane>
  void run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                std::span<typename Lane::Sample> v, std::size_t batch);
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);
};

}  // namespace turbofno::fused
