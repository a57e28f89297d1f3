#include "fused/lane.hpp"

#include "fft/plan_cache.hpp"
#include "fft/real2d.hpp"

namespace turbofno::fused {

ComplexLane::Plans ComplexLane::plans(std::size_t n, std::size_t kept) {
  fft::PlanDesc fwd;
  fwd.n = n;
  fwd.dir = fft::Direction::Forward;
  fwd.keep = kept;
  fft::PlanDesc inv;
  inv.n = n;
  inv.dir = fft::Direction::Inverse;
  inv.nonzero = kept;
  return {fft::acquire_plan(fwd), fft::acquire_plan(inv)};
}

void ComplexLane::x_to_tiles(const XPlans& x, std::size_t, const c32* in, std::size_t fields,
                             std::size_t ny, const fft::XStageTileDst& dst) {
  fft::fft2d_x_stage_to_tiles(*x.fwd, in, fields, ny, dst);
}

void ComplexLane::x_from_tiles(const XPlans& x, std::size_t, const fft::XStageTileSrc& src,
                               c32* out, std::size_t fields, std::size_t ny) {
  fft::fft2d_x_stage_from_tiles(*x.inv, src, out, fields, ny);
}

std::uint64_t ComplexLane::x_flops_per_field(const fft::FftPlan& plan, std::size_t,
                                             std::size_t ny) {
  return ny * plan.flops_per_signal();
}

RealLane::Plans RealLane::plans(std::size_t n, std::size_t kept) {
  return {fft::acquire_rfft_plan(n, kept), fft::acquire_irfft_plan(n, kept)};
}

RealLane::XPlans RealLane::x_plans(std::size_t nx, std::size_t) {
  return {fft::acquire_plan({nx, fft::Direction::Forward}),
          fft::acquire_plan({nx, fft::Direction::Inverse})};
}

void RealLane::x_to_tiles(const XPlans& x, std::size_t keep_x, const float* in,
                          std::size_t fields, std::size_t ny, const fft::XStageTileDst& dst) {
  fft::rfft2d_x_stage_to_tiles(x.fwd->desc().n, keep_x, in, fields, ny, dst);
}

void RealLane::x_from_tiles(const XPlans& x, std::size_t keep_x, const fft::XStageTileSrc& src,
                            float* out, std::size_t fields, std::size_t ny) {
  fft::irfft2d_x_stage_from_tiles(x.inv->desc().n, keep_x, src, out, fields, ny);
}

std::uint64_t RealLane::x_flops_per_field(const fft::FftPlan& plan, std::size_t keep_x,
                                          std::size_t ny) {
  return (ny / 2) * plan.flops_per_signal() + ny * 8 * keep_x;
}

}  // namespace turbofno::fused
