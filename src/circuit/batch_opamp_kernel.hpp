// The lane kernel of circuit::analyze_lanes<W>, compiled once per
// instruction-set copy (batch_opamp.hpp). Include it only from the
// translation unit of a copy, after defining ANADEX_LANE_ISA as the
// copy's namespace: batch_opamp_base.cpp (isa_base) and batch_opamp_v4.cpp
// (isa_v4, built with -march=x86-64-v4). Everything this header defines
// or instantiates lives in that namespace (device::batch_mosfet.hpp's
// kernels in an inline namespace of the same name), so no weak symbol of
// one copy can stand in for the other's at link time; the Lint.IsaLeak
// ctest entry (scripts/isa_leak_check.py) holds the objects to that.
//
// Lane transliteration of opamp.cpp's analyze(). Every numbered step below
// names the corresponding block of the scalar function; the floating-point
// expression trees are copied verbatim so lane results stay bit-identical
// (enforced by tests/circuit/batch_opamp_test.cpp and the scint golden
// suite).
#pragma once

#ifndef ANADEX_LANE_ISA
#error "define ANADEX_LANE_ISA (the copy's namespace) before including this header"
#endif

#include <algorithm>
#include <cmath>

#include "circuit/batch_opamp.hpp"
#include "common/math.hpp"
#include "device/batch_mosfet.hpp"

namespace anadex::circuit::ANADEX_LANE_ISA {

using device::DeviceParams;
using device::Geometry;
using device::OpLanes;
using device::Region;

// Mirrors of opamp.cpp's constants.
constexpr double kSatGuard = 0.04;
constexpr double kTiny = 1e-18;

/// diode_vgs() lanes: three fixed-point passes of the inverse model with
/// VDS following VGS, starting from 0.6 V.
template <std::size_t W>
void diode_vgs_lanes(const DeviceParams& params, const double* w, const double* l,
                     const double* id, double vdd, double* vgs) {
  double vds[W], vsb0[W];
  for (std::size_t k = 0; k < W; ++k) {
    vgs[k] = 0.6;
    vsb0[k] = 0.0;
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t k = 0; k < W; ++k) vds[k] = vgs[k];
    device::vgs_for_current_lanes<W>(params, w, l, id, vds, vsb0, vdd, vgs);
  }
}

template <std::size_t W>
void analyze_lanes(const device::Process& process, std::span<const OpAmpDesign, W> designs,
                   const OpAmpContext& context, std::span<OpAmpAnalysis, W> out) {
  const auto& nmos = process.nmos;
  const auto& pmos = process.pmos;
  const double vdd = process.vdd;

  // AoS -> SoA unpack of the per-lane design variables.
  double m1w[W], m1l[W], m3w[W], m3l[W], m5w[W], m5l[W];
  double m6w[W], m6l[W], m7w[W], m7l[W], ibias[W];
  for (std::size_t k = 0; k < W; ++k) {
    const OpAmpDesign& d = designs[k];
    m1w[k] = d.m1.w; m1l[k] = d.m1.l;
    m3w[k] = d.m3.w; m3l[k] = d.m3.l;
    m5w[k] = d.m5.w; m5l[k] = d.m5.l;
    m6w[k] = d.m6.w; m6l[k] = d.m6.l;
    m7w[k] = d.m7.w; m7l[k] = d.m7.l;
    ibias[k] = d.ibias;
  }
  double zeros[W];
  for (std::size_t k = 0; k < W; ++k) zeros[k] = 0.0;

  // ---- Bias chain (scalar step 1: Mref diode) ---------------------------
  const Geometry ref = bias_reference_geometry();
  double refw[W], refl[W], vgs_ref[W];
  for (std::size_t k = 0; k < W; ++k) {
    refw[k] = ref.w;
    refl[k] = ref.l;
  }
  diode_vgs_lanes<W>(nmos, refw, refl, ibias, vdd, vgs_ref);

  // ---- Tail fixed point (scalar step 2) ---------------------------------
  double v_tail[W], i5[W], vgs1[W], half_i5[W], vtail_eff[W], vds_half[W];
  for (std::size_t k = 0; k < W; ++k) {
    v_tail[k] = 0.2;
    i5[k] = 0.0;
    vgs1[k] = 0.6;
    half_i5[k] = 0.0;
    vds_half[k] = 0.5;
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t k = 0; k < W; ++k) vtail_eff[k] = std::max(v_tail[k], 1e-3);
    device::drain_current_lanes<W>(nmos, m5w, m5l, vgs_ref, vtail_eff, zeros, i5);
    for (std::size_t k = 0; k < W; ++k) {
      i5[k] = std::max(i5[k], kTiny);
      half_i5[k] = 0.5 * i5[k];
    }
    device::vgs_for_current_lanes<W>(nmos, m1w, m1l, half_i5, vds_half, v_tail, vdd, vgs1);
    for (std::size_t k = 0; k < W; ++k) {
      v_tail[k] = std::clamp(context.vicm - vgs1[k], 1e-3, vdd);
    }
  }

  // ---- Mirror load diode + second stage (scalar steps 3-4) --------------
  double vsg3[W], v_first[W], i7[W], id6[W], vocm_arr[W], vdd_m_vocm[W];
  diode_vgs_lanes<W>(pmos, m3w, m3l, half_i5, vdd, vsg3);
  for (std::size_t k = 0; k < W; ++k) {
    v_first[k] = vdd - vsg3[k];
    vocm_arr[k] = context.vocm;
    vdd_m_vocm[k] = vdd - context.vocm;
  }
  device::drain_current_lanes<W>(nmos, m7w, m7l, vgs_ref, vocm_arr, zeros, i7);
  device::drain_current_lanes<W>(pmos, m6w, m6l, vsg3, vdd_m_vocm, zeros, id6);
  for (std::size_t k = 0; k < W; ++k) i7[k] = std::max(i7[k], kTiny);

  // ---- Operating points (scalar step 5) ---------------------------------
  OpLanes<W> op1, op3, op5, op6, op7;
  double vds1[W];
  for (std::size_t k = 0; k < W; ++k) {
    vds1[k] = std::max(v_first[k] - v_tail[k], 1e-3);
    vtail_eff[k] = std::max(v_tail[k], 1e-3);  // final v_tail
  }
  device::solve_op_lanes<W>(nmos, m1w, m1l, vgs1, vds1, v_tail, op1);
  device::solve_op_lanes<W>(pmos, m3w, m3l, vsg3, vsg3, zeros, op3);
  device::solve_op_lanes<W>(nmos, m5w, m5l, vgs_ref, vtail_eff, zeros, op5);
  device::solve_op_lanes<W>(pmos, m6w, m6l, vsg3, vdd_m_vocm, zeros, op6);
  device::solve_op_lanes<W>(nmos, m7w, m7l, vgs_ref, vocm_arr, zeros, op7);

  // ---- Per-lane epilogue: gains, capacitances, large-signal, margins ----
  // Cheap relative to the solves; scalar expression trees copied from
  // analyze() with lane subscripts.
  for (std::size_t k = 0; k < W; ++k) {
    OpAmpAnalysis& o = out[k];
    o = OpAmpAnalysis{};
    o.vgs_ref = vgs_ref[k];
    o.margins.mref = (vdd - 0.1) - vgs_ref[k];
    o.i5 = i5[k];
    o.i7 = i7[k];
    o.mirror_balance_error = std::abs(id6[k] - i7[k]) / i7[k];

    o.gm1 = op1.gm[k];
    o.gm3 = op3.gm[k];
    o.gm6 = op6.gm[k];
    const double ro1 = 1.0 / std::max(op1.gds[k] + op3.gds[k], kTiny);
    const double ro2 = 1.0 / std::max(op6.gds[k] + op7.gds[k], kTiny);
    o.a1 = o.gm1 * ro1;
    o.a2 = o.gm6 * ro2;
    o.a0 = o.a1 * o.a2;

    const device::DeviceCaps c1 =
        device::capacitances(process, Geometry{m1w[k], m1l[k]}, Region(op1.region[k]));
    const device::DeviceCaps c3 =
        device::capacitances(process, Geometry{m3w[k], m3l[k]}, Region(op3.region[k]));
    const device::DeviceCaps c6 =
        device::capacitances(process, Geometry{m6w[k], m6l[k]}, Region(op6.region[k]));
    const device::DeviceCaps c7 =
        device::capacitances(process, Geometry{m7w[k], m7l[k]}, Region(op7.region[k]));

    o.cc_eff = designs[k].cc + c6.cgd;
    o.c_first = c1.cdb + c1.cgd + c3.cdb + c3.cgd + c6.cgs;
    o.c_out_self = c6.cdb + c7.cdb + c7.cgd;
    o.c_mirror = 2.0 * c3.cgs + c3.cdb + c1.cdb + c1.cgd;
    o.c_in = c1.cgs + 2.0 * c1.cgd;

    o.mirror_pole = o.gm3 / std::max(o.c_mirror, kTiny);

    o.slew_internal = o.i5 / std::max(o.cc_eff, kTiny);
    o.swing = std::max(vdd - op6.vdsat[k] - op7.vdsat[k], 0.0);

    const double gm1_safe = std::max(o.gm1, kTiny);
    o.noise_psd =
        16.0 * kBoltzmann * process.temperature / (3.0 * gm1_safe) * (1.0 + o.gm3 / gm1_safe);

    o.power = vdd * (designs[k].ibias + o.i5 + 2.0 * o.i7);
    o.area = 2.0 * m1w[k] * m1l[k] + 2.0 * m3w[k] * m3l[k] +
             m5w[k] * m5l[k] + 2.0 * m6w[k] * m6l[k] +
             2.0 * m7w[k] * m7l[k] + ref.w * ref.l;

    const auto margin = [](const OpLanes<W>& op, std::size_t lane, double vds) {
      if (Region(op.region[lane]) == Region::Cutoff) return -1.0;
      return vds - op.vdsat[lane] - kSatGuard;
    };
    o.margins.m1 = margin(op1, k, std::max(v_first[k] - v_tail[k], 0.0));
    o.margins.m5 = margin(op5, k, v_tail[k]);
    o.margins.m6 = margin(op6, k, vdd - context.vocm);
    o.margins.m7 = margin(op7, k, context.vocm);
    o.vov_worst = std::min({op1.vov[k], op3.vov[k], op5.vov[k], op6.vov[k], op7.vov[k]});
  }
}

template void analyze_lanes<4>(const device::Process&, std::span<const OpAmpDesign, 4>,
                               const OpAmpContext&, std::span<OpAmpAnalysis, 4>);
template void analyze_lanes<8>(const device::Process&, std::span<const OpAmpDesign, 8>,
                               const OpAmpContext&, std::span<OpAmpAnalysis, 8>);
template void analyze_lanes<16>(const device::Process&, std::span<const OpAmpDesign, 16>,
                                const OpAmpContext&, std::span<OpAmpAnalysis, 16>);

}  // namespace anadex::circuit::ANADEX_LANE_ISA
