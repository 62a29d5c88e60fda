// SoA lane kernels for the eqn-(1) MOSFET model — W devices per call.
//
// These are op-for-op transliterations of the scalar routines in mosfet.cpp
// into select form (branches become ternaries), laid out as plain loops
// over W-sized arrays so the autovectorizer can spread lanes across SIMD
// registers under -O3 (on x86-64 also in an x86-64-v4 copy picked at run
// time; circuit/batch_opamp.hpp). Every floating-point expression tree is
// copied from the scalar code verbatim: with -ffp-contract=off (set
// globally) and IEEE-754 basic operations (+,-,*,/,sqrt,min,max are
// correctly rounded whether issued scalar or packed), the lane results are
// BIT-IDENTICAL to the scalar oracle. The golden-equivalence suite
// (tests/scint/batch_equivalence_test.cpp) enforces this for every spec
// set, width, random genome and instruction-set copy.
//
// Preconditions are the caller's job: the batch layer pre-screens genomes
// (positive geometry / bias current, see IntegratorProblem::evaluate_lanes)
// so the ANADEX_REQUIRE checks of the scalar path cannot fire here. Lanes
// that the scalar model handles by branching (cutoff, triode) are computed
// unconditionally and selected; discarded intermediate values may be
// inf/NaN, which IEEE arithmetic defines fully (no UB, no traps).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/fastmath.hpp"
#include "device/mosfet.hpp"
#include "device/process.hpp"

// Lane-loop vectorization hints. Every lane iteration is independent by
// construction, but GCC's if-converter rejects the masked Newton commit
// ("control flow in loop") unless told the loop is simd-safe. Built with
// -fopenmp-simd — a pure vectorizer hint, no OpenMP runtime is linked and
// no floating-point semantics change (the only reduction is an exact 0/1
// lane count, immune to reassociation) — these pragmas unlock packed
// code; without the flag they are ignored and the kernels stay correct,
// just scalar.
#define ANADEX_PRAGMA_(x) _Pragma(#x)
#define ANADEX_LANE_SIMD ANADEX_PRAGMA_(omp simd)
#define ANADEX_LANE_SIMD_REDUCE(var) ANADEX_PRAGMA_(omp simd reduction(+ : var))

// The kernels are compiled once per instruction-set copy (the baseline and,
// on x86-64, an -march=x86-64-v4 copy; circuit/batch_opamp_kernel.hpp). A
// template or inline function is a weak symbol, so two copies under one
// name would let the linker keep either copy for both callers: AVX-512
// code on a CPU without it, or no AVX-512 at all. Each copy therefore
// lives in its own inline namespace, named by the including translation
// unit through ANADEX_LANE_ISA.
#ifndef ANADEX_LANE_ISA
#define ANADEX_LANE_ISA isa_base
#endif

namespace anadex::device {
inline namespace ANADEX_LANE_ISA {

/// SoA operating points for W lanes (mirror of device::OperatingPoint).
/// `region` holds the Region enum value per lane.
template <std::size_t W>
struct OpLanes {
  std::uint8_t region[W];
  double id[W];
  double gm[W];
  double gds[W];
  double vov[W];
  double vdsat[W];
  double vt[W];
};

namespace lanes_detail {

// The mobility exponent n is a PROCESS parameter (1.0 NMOS / 2.0 PMOS per
// paper eqn 1), uniform across lanes. pow_rt()'s runtime dispatch — and
// its std::pow fallback, an opaque libm call — inside a lane loop defeats
// the autovectorizer ("control flow in loop"), so the kernels are
// instantiated per exponent mode: NExp = 1, 2, or 0 (the generic pow_rt
// fallback, kept for exotic process descriptions; that instantiation stays
// scalar, which only costs speed, never correctness). Each specialization
// reproduces pow_rt's expression tree for its exponent exactly.

/// theta2 * pow_rt(u, n) — the mobility denominator's second term.
template <int NExp>
inline double lane_mob_term2(const DeviceParams& p, double u) {
  if constexpr (NExp == 1) {
    return p.theta2 * u;
  } else if constexpr (NExp == 2) {
    return p.theta2 * (u * u);
  } else {
    return p.theta2 * pow_rt(u, p.n_exp);
  }
}

/// The n-dependent term of the denominator derivative: theta2 for n = 1,
/// theta2 * n * pow_rt(u, n-1) otherwise (mosfet.cpp's exact branches).
template <int NExp>
inline double lane_dmob_term2(const DeviceParams& p, double u) {
  if constexpr (NExp == 1) {
    return p.theta2;
  } else if constexpr (NExp == 2) {
    return p.theta2 * p.n_exp * u;  // pow_rt(u, 1.0) == u
  } else {
    return p.theta2 * p.n_exp * pow_rt(u, p.n_exp - 1.0);
  }
}

/// threshold(): vt0 + gamma*(sqrt(phi2f + vsb) - sqrt(phi2f)).
inline double lane_threshold(const DeviceParams& p, double vsb) {
  return p.vt0 + p.gamma * (std::sqrt(p.phi2f + vsb) - std::sqrt(p.phi2f));
}

/// drain_current() in select form: cutoff / triode / saturation all
/// computed, the scalar code's branch outcomes selected. Expression trees
/// match mosfet.cpp's mobility_denominator / vdsat_of / drain_current.
template <int NExp>
inline double lane_drain_current(const DeviceParams& p, double w, double l, double vgs,
                                 double vds, double vt) {
  const double vov = vgs - vt;
  const double k = 0.5 * p.mu_cox * w / l;
  const double lambda = p.lambda_per_m / l;
  const double el = p.esat * l;
  const double u = std::max(vgs + vt - p.vk, 0.0);
  const double mob = 1.0 + p.theta1 * det_cbrt(u) + lane_mob_term2<NExp>(p, u);
  const double vdsat = el * vov / (el + vov);
  const double sat = k * vov * vov * (1.0 + lambda * vds) / ((1.0 + vov / el) * mob);
  const double sat_at_edge = k * vov * vov / ((1.0 + vov / el) * mob);
  const double shape = vds / vdsat * (2.0 - vds / vdsat);
  const double tri = sat_at_edge * shape * (1.0 + lambda * vds);
  const double id = vds >= vdsat ? sat : tri;
  return vov <= 0.0 ? 0.0 : id;
}

/// The inner step of vgs_for_current's Newton loop: saturation-region id
/// and gm at vds_eff = max(vds, vdsat). The solver constructs its bias as
/// Bias{vgs, max(vds, vdsat), vsb}, which lands drain_current/solve_op on
/// their saturation branches (vds >= vdsat holds exactly, the vdsat
/// expressions being identical); this helper is those two branches fused,
/// with the shared det_cbrt computed once.
template <int NExp>
inline void lane_sat_id_gm(const DeviceParams& p, double w, double l, double vt, double vgs,
                           double vds_request, double& id_out, double& gm_out) {
  const double vov = vgs - vt;
  const double el = p.esat * l;
  const double vdsat = el * vov / (el + vov);
  const double vds = std::max(vds_request, vdsat);
  const double k = 0.5 * p.mu_cox * w / l;
  const double lambda = p.lambda_per_m / l;
  const double u = vgs + vt - p.vk;
  const double uc = std::max(u, 0.0);
  const double c = det_cbrt(uc);
  const double mob = 1.0 + p.theta1 * c + lane_mob_term2<NExp>(p, uc);
  const double id_sat = k * vov * vov * (1.0 + lambda * vds) / ((1.0 + vov / el) * mob);
  const double id = vov <= 0.0 ? 0.0 : id_sat;

  // mobility_denominator_derivative: uses the UNclamped u, masked to 0 for
  // u <= 0 (for u > 0, uc == u so the shared cbrt is the same value).
  const double d = p.theta1 / 3.0 / (c * c) + lane_dmob_term2<NExp>(p, u);
  const double dmob = u <= 0.0 ? 0.0 : d;
  const double dlog = 2.0 / vov - (1.0 / el) / (1.0 + vov / el) - dmob / mob;
  const double gm = id * dlog;

  id_out = id;
  gm_out = vov <= 0.0 ? 0.0 : gm;
}

/// std::clamp's exact expression tree.
inline double lane_clamp(double v, double lo, double hi) {
  return v < lo ? lo : (hi < v ? hi : v);
}

/// Picks the NExp instantiation for a process' exponent: 1 and 2 get the
/// vectorizable kernels, anything else the generic scalar fallback.
template <typename F>
inline decltype(auto) dispatch_n_exp(const DeviceParams& p, F&& f) {
  if (p.n_exp == 1.0) return f(std::integral_constant<int, 1>{});
  if (p.n_exp == 2.0) return f(std::integral_constant<int, 2>{});
  return f(std::integral_constant<int, 0>{});
}

// The three lane loops below are kept out of line: each (W, NExp) kernel
// then exists once per copy instead of once per call site in
// circuit::analyze_lanes. Fully unrolled AVX-512 code is large; inlined at
// every call site it grew the x86-64-v4 object from 125 to 180 kB, and a
// run's resident memory with it, for no measurable speed.
template <std::size_t W, int NExp>
[[gnu::noinline]] inline void drain_current_lanes_impl(const DeviceParams& p, const double* w,
                                                       const double* l, const double* vgs,
                                                       const double* vds, const double* vsb,
                                                       double* id_out) {
  ANADEX_LANE_SIMD
  for (std::size_t k = 0; k < W; ++k) {
    const double vt = lane_threshold(p, vsb[k]);
    id_out[k] = lane_drain_current<NExp>(p, w[k], l[k], vgs[k], vds[k], vt);
  }
}

template <std::size_t W, int NExp>
[[gnu::noinline]] inline void solve_op_lanes_impl(const DeviceParams& p, const double* w,
                                                  const double* l, const double* vgs,
                                                  const double* vds, const double* vsb,
                                                  OpLanes<W>& out) {
  ANADEX_LANE_SIMD
  for (std::size_t k = 0; k < W; ++k) {
    const double vt = lane_threshold(p, vsb[k]);
    const double vov = vgs[k] - vt;
    const double el = p.esat * l[k];
    const double vdsat = el * vov / (el + vov);
    const double id = lane_drain_current<NExp>(p, w[k], l[k], vgs[k], vds[k], vt);

    const double lambda = p.lambda_per_m / l[k];
    const double u = vgs[k] + vt - p.vk;
    const double uc = std::max(u, 0.0);
    const double c = det_cbrt(uc);
    const double mob = 1.0 + p.theta1 * c + lane_mob_term2<NExp>(p, uc);
    const double d = p.theta1 / 3.0 / (c * c) + lane_dmob_term2<NExp>(p, u);
    const double dmob = u <= 0.0 ? 0.0 : d;

    // Saturation branch: analytic derivatives.
    const double dlog = 2.0 / vov - (1.0 / el) / (1.0 + vov / el) - dmob / mob;
    const double gm_sat = id * dlog;
    const double gds_sat = id * lambda / (1.0 + lambda * vds[k]);

    // Triode branch: the scalar code's h = 1e-6 numeric derivatives.
    const double h = 1e-6;
    const double vt_g = vt;  // vsb unchanged for both nudges
    const double id_g = lane_drain_current<NExp>(p, w[k], l[k], vgs[k] + h, vds[k], vt_g);
    const double id_d = lane_drain_current<NExp>(p, w[k], l[k], vgs[k], vds[k] + h, vt_g);
    const double gm_tri = (id_g - id) / h;
    const double gds_tri = (id_d - id) / h;

    const bool cutoff = vov <= 0.0;
    const bool saturated = vds[k] >= vdsat;
    out.region[k] = cutoff ? static_cast<std::uint8_t>(Region::Cutoff)
                           : (saturated ? static_cast<std::uint8_t>(Region::Saturation)
                                        : static_cast<std::uint8_t>(Region::Triode));
    out.vt[k] = vt;
    out.vov[k] = vov;
    out.vdsat[k] = cutoff ? 0.0 : vdsat;  // scalar early-return leaves the default
    out.id[k] = cutoff ? 0.0 : id;
    out.gm[k] = cutoff ? 0.0 : (saturated ? gm_sat : gm_tri);
    out.gds[k] = cutoff ? 0.0 : (saturated ? gds_sat : gds_tri);
  }
}

template <std::size_t W, int NExp>
[[gnu::noinline]] inline void vgs_for_current_lanes_impl(const DeviceParams& p,
                                                         const double* w, const double* l,
                                                         const double* id, const double* vds,
                                                         const double* vsb, double vgs_max,
                                                         double* out) {
  double vt[W], lo[W], hi[W], vgs[W];
  double done[W];  // 0.0 = iterating, 1.0 = frozen (double so the masked
                   // commits below are pure FP selects — bool arrays force
                   // the vectorizer to mix predicate and data lanes)

  ANADEX_LANE_SIMD
  for (std::size_t k = 0; k < W; ++k) {
    vt[k] = lane_threshold(p, vsb[k]);
    lo[k] = vt[k] + 1e-3;
    hi[k] = vgs_max;

    // Bracket probes (scalar: early returns, hi checked first). current_at
    // evaluates at vds_eff = max(vds, vdsat) — the saturation fast path.
    double id_hi, gm_unused, id_lo;
    lane_sat_id_gm<NExp>(p, w[k], l[k], vt[k], hi[k], vds[k], id_hi, gm_unused);
    lane_sat_id_gm<NExp>(p, w[k], l[k], vt[k], lo[k], vds[k], id_lo, gm_unused);

    // Initial guess: square-law estimate clamped into the bracket.
    const double guess = vt[k] + std::sqrt(2.0 * id[k] * l[k] / (p.mu_cox * w[k]));
    const double clamped = lane_clamp(guess, lo[k], hi[k]);

    const bool probe_hi = id_hi <= id[k];  // cannot reach: saturate at the rail
    const bool probe_lo = !probe_hi && id_lo >= id[k];
    done[k] = (probe_hi || probe_lo) ? 1.0 : 0.0;
    vgs[k] = probe_hi ? vgs_max : (probe_lo ? lo[k] : clamped);
  }

  for (int iter = 0; iter < 60; ++iter) {
    double remaining = 0.0;
    ANADEX_LANE_SIMD_REDUCE(remaining)
    for (std::size_t k = 0; k < W; ++k) {
      const double vg = vgs[k];
      double idk, gmk;
      lane_sat_id_gm<NExp>(p, w[k], l[k], vt[k], vg, vds[k], idk, gmk);
      const double f = idk - id[k];
      const bool conv_f = std::abs(f) <= 1e-9 * id[k];
      const double nhi = f > 0.0 ? vg : hi[k];
      const double nlo = f > 0.0 ? lo[k] : vg;
      double next = gmk > 0.0 ? vg - f / gmk : vg;
      next = (next > nlo && next < nhi) ? next : 0.5 * (nlo + nhi);  // safeguard
      const bool conv_x = std::abs(next - vg) < 1e-9;

      // Masked commit. On conv_f the scalar returns vg (state frozen as
      // is); on conv_x it returns next (vgs advances one last time); brackets
      // only matter for lanes that keep iterating.
      const bool advance = done[k] == 0.0 && !conv_f;
      lo[k] = advance ? nlo : lo[k];
      hi[k] = advance ? nhi : hi[k];
      vgs[k] = advance ? next : vgs[k];
      done[k] = (done[k] != 0.0 || conv_f || (advance && conv_x)) ? 1.0 : 0.0;
      remaining += 1.0 - done[k];
    }
    if (remaining == 0.0) break;
  }

  for (std::size_t k = 0; k < W; ++k) out[k] = vgs[k];
}

}  // namespace lanes_detail

/// W-lane drain_current over per-lane geometry and bias (shared params).
template <std::size_t W>
inline void drain_current_lanes(const DeviceParams& p, const double* w, const double* l,
                                const double* vgs, const double* vds, const double* vsb,
                                double* id_out) {
  lanes_detail::dispatch_n_exp(p, [&](auto n) {
    lanes_detail::drain_current_lanes_impl<W, decltype(n)::value>(p, w, l, vgs, vds, vsb, id_out);
  });
}

/// W-lane solve_op. Triode gm/gds use the scalar code's numeric
/// derivatives (h = 1e-6 re-evaluations of the full drain current).
template <std::size_t W>
inline void solve_op_lanes(const DeviceParams& p, const double* w, const double* l,
                           const double* vgs, const double* vds, const double* vsb,
                           OpLanes<W>& out) {
  lanes_detail::dispatch_n_exp(p, [&](auto n) {
    lanes_detail::solve_op_lanes_impl<W, decltype(n)::value>(p, w, l, vgs, vds, vsb, out);
  });
}

/// W-lane vgs_for_current: the hot Newton/bisection inverse-model solver.
/// Converged lanes freeze (their state is never overwritten) while the
/// rest iterate, so each lane reproduces the scalar iteration sequence
/// exactly; the loop exits when every lane is done or at the scalar path's
/// 60-iteration cap.
template <std::size_t W>
inline void vgs_for_current_lanes(const DeviceParams& p, const double* w, const double* l,
                                  const double* id, const double* vds, const double* vsb,
                                  double vgs_max, double* out) {
  lanes_detail::dispatch_n_exp(p, [&](auto n) {
    lanes_detail::vgs_for_current_lanes_impl<W, decltype(n)::value>(p, w, l, id, vds, vsb,
                                                                    vgs_max, out);
  });
}

}  // namespace ANADEX_LANE_ISA
}  // namespace anadex::device
