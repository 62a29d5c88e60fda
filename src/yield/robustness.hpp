// Monte-Carlo robustness ("Yield Calculation", paper §2, following the
// HOLMES idea of capturing yield-optimized design space boundaries).
//
// Robustness of a design = fraction of Monte-Carlo process samples for
// which the design still satisfies every deterministic spec limit. Samples
// perturb global process quantities (thresholds, mobility, capacitor
// density) with common random numbers: the SAME perturbation set is applied
// to every design, so the robustness landscape is deterministic and smooth
// for the optimizer.
//
// Two forms compute the same number. robustness() is the scalar oracle: one
// scint::evaluate() per perturbation for one design. robustness_lanes<W>()
// is the batch form: W designs at once, perturbation-major — one
// scint::evaluate_lanes<W>() call per shifted process, passes counted per
// lane — and bit-identical to the scalar form lane by lane. The lane form
// needs a design-independent perturbation set (no pair-mismatch draws);
// shifted_processes() builds its processes once per set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "device/process.hpp"
#include "scint/integrator.hpp"
#include "scint/spec.hpp"

namespace anadex::yield {

/// One sampled set of global process perturbations, optionally augmented
/// with normalized per-pair local mismatch draws (scaled by the Pelgrom
/// coefficient and each pair's gate area at application time).
struct ProcessPerturbation {
  double dvt_nmos = 0.0;    ///< threshold shift, V
  double dvt_pmos = 0.0;
  double rel_mu_nmos = 0.0; ///< relative mobility error
  double rel_mu_pmos = 0.0;
  double rel_cap = 0.0;     ///< relative capacitor-density error

  /// Unit-normal draws for local mismatch (input pair / mirror pair /
  /// second-stage pair); zero when mismatch sampling is disabled.
  double z_pair_input = 0.0;
  double z_pair_mirror = 0.0;
  double z_pair_stage2 = 0.0;

  /// Applies the global perturbation to a copy of the process.
  device::Process applied_to(const device::Process& base) const;

  /// True when robustness() folds pair-mismatch draws into this sample's
  /// process, which then depends on the design's pair geometry.
  bool design_dependent() const { return z_pair_input != 0.0 || z_pair_mirror != 0.0; }

  /// Pelgrom threshold mismatch (V) of a pair with gate geometry `geom`:
  /// sigma = AVT / sqrt(W L), scaled by the stored unit-normal draw.
  double pair_vt_mismatch(const device::Process& process, const device::Geometry& geom,
                          double z) const;
};

/// Parameters of the Monte-Carlo sampler.
struct MonteCarloParams {
  std::size_t samples = 16;
  double sigma_vt = 0.015;   ///< V
  double sigma_mu = 0.05;    ///< relative
  double sigma_cap = 0.05;   ///< relative
  /// Also draw per-pair local (Pelgrom) mismatch deviates. Off by default:
  /// the reproduction's calibrated robustness figure uses global shifts
  /// only; enable for finer-grained yield studies.
  bool include_pair_mismatch = false;
  std::uint64_t seed = 0xC0FFEE;  ///< fixed: common random numbers across designs
};

/// Pre-drawn perturbation set (draw once, reuse for every design).
std::vector<ProcessPerturbation> draw_perturbations(const MonteCarloParams& params);

/// Robustness in [0, 1]: fraction of perturbations under which the design
/// still satisfies `spec` (deterministic limits only). When a perturbation
/// carries pair-mismatch draws, the input pair's VT mismatch is applied as
/// an additional NMOS threshold shift (worst-case single-ended view) and
/// the mirror/stage-2 mismatches tighten the balance check via the PMOS
/// threshold.
double robustness(const device::Process& base, const scint::IntegratorDesign& design,
                  const scint::IntegratorContext& context, const scint::Spec& spec,
                  const std::vector<ProcessPerturbation>& perturbations);

/// The shifted process of every sample, `perturbations[k].applied_to(base)`.
/// Empty when any sample is design_dependent(): such a set has no process
/// shared by all designs, so only the scalar robustness() can score it.
std::vector<device::Process> shifted_processes(
    const device::Process& base, const std::vector<ProcessPerturbation>& perturbations);

/// robustness() of W designs at once. `shifted` must be the non-empty
/// shifted_processes(base, perturbations). Each shifted process takes one
/// scint::evaluate_lanes<W>() call; out[k] is bit-identical to
/// robustness(base, designs[k], context, spec, perturbations), because every
/// lane's performance is bit-identical to scint::evaluate() and the pass
/// count becomes a ratio by the same expression. Instantiated for the lane
/// widths 4, 8 and 16.
template <std::size_t W>
void robustness_lanes(std::span<const device::Process> shifted,
                      std::span<const scint::IntegratorDesign, W> designs,
                      const scint::IntegratorContext& context, const scint::Spec& spec,
                      std::span<double, W> out);

extern template void robustness_lanes<4>(std::span<const device::Process>,
                                         std::span<const scint::IntegratorDesign, 4>,
                                         const scint::IntegratorContext&, const scint::Spec&,
                                         std::span<double, 4>);
extern template void robustness_lanes<8>(std::span<const device::Process>,
                                         std::span<const scint::IntegratorDesign, 8>,
                                         const scint::IntegratorContext&, const scint::Spec&,
                                         std::span<double, 8>);
extern template void robustness_lanes<16>(std::span<const device::Process>,
                                          std::span<const scint::IntegratorDesign, 16>,
                                          const scint::IntegratorContext&, const scint::Spec&,
                                          std::span<double, 16>);

}  // namespace anadex::yield
