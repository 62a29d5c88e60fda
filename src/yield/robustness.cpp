#include "yield/robustness.hpp"

#include "common/check.hpp"
#include <array>
#include <cmath>

#include "common/rng.hpp"
#include "scint/batch_integrator.hpp"

namespace anadex::yield {

device::Process ProcessPerturbation::applied_to(const device::Process& base) const {
  device::Process p = base;
  p.nmos.vt0 += dvt_nmos;
  p.pmos.vt0 += dvt_pmos;
  p.nmos.mu_cox *= 1.0 + rel_mu_nmos;
  p.pmos.mu_cox *= 1.0 + rel_mu_pmos;
  p.cap_density *= 1.0 + rel_cap;
  return p;
}

std::vector<ProcessPerturbation> draw_perturbations(const MonteCarloParams& params) {
  ANADEX_REQUIRE(params.samples >= 1, "Monte-Carlo needs at least one sample");
  Rng rng(params.seed);
  std::vector<ProcessPerturbation> set;
  set.reserve(params.samples);
  for (std::size_t i = 0; i < params.samples; ++i) {
    ProcessPerturbation s;
    s.dvt_nmos = rng.normal(0.0, params.sigma_vt);
    s.dvt_pmos = rng.normal(0.0, params.sigma_vt);
    s.rel_mu_nmos = rng.normal(0.0, params.sigma_mu);
    s.rel_mu_pmos = rng.normal(0.0, params.sigma_mu);
    s.rel_cap = rng.normal(0.0, params.sigma_cap);
    if (params.include_pair_mismatch) {
      s.z_pair_input = rng.normal();
      s.z_pair_mirror = rng.normal();
      s.z_pair_stage2 = rng.normal();
    }
    set.push_back(s);
  }
  return set;
}

double ProcessPerturbation::pair_vt_mismatch(const device::Process& process,
                                             const device::Geometry& geom,
                                             double z) const {
  ANADEX_REQUIRE(geom.w > 0.0 && geom.l > 0.0, "pair geometry must be positive");
  return z * process.avt / std::sqrt(geom.w * geom.l);
}

double robustness(const device::Process& base, const scint::IntegratorDesign& design,
                  const scint::IntegratorContext& context, const scint::Spec& spec,
                  const std::vector<ProcessPerturbation>& perturbations) {
  ANADEX_REQUIRE(!perturbations.empty(), "robustness needs a non-empty perturbation set");
  std::size_t pass = 0;
  for (const auto& sample : perturbations) {
    device::Process shifted = sample.applied_to(base);
    // Local (Pelgrom) mismatch, when sampled: fold the input pair's VT
    // mismatch into the NMOS threshold and the mirror pair's into the PMOS
    // threshold — a conservative single-ended view of the differential
    // circuit.
    if (sample.design_dependent()) {
      shifted.nmos.vt0 +=
          sample.pair_vt_mismatch(shifted, design.opamp.m1, sample.z_pair_input);
      shifted.pmos.vt0 +=
          sample.pair_vt_mismatch(shifted, design.opamp.m3, sample.z_pair_mirror);
    }
    const scint::IntegratorPerformance perf = scint::evaluate(shifted, design, context);
    if (spec.satisfied_by(perf)) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(perturbations.size());
}

std::vector<device::Process> shifted_processes(
    const device::Process& base, const std::vector<ProcessPerturbation>& perturbations) {
  std::vector<device::Process> shifted;
  for (const auto& sample : perturbations) {
    if (sample.design_dependent()) return {};
    shifted.push_back(sample.applied_to(base));
  }
  return shifted;
}

template <std::size_t W>
void robustness_lanes(std::span<const device::Process> shifted,
                      std::span<const scint::IntegratorDesign, W> designs,
                      const scint::IntegratorContext& context, const scint::Spec& spec,
                      std::span<double, W> out) {
  ANADEX_REQUIRE(!shifted.empty(), "robustness needs a non-empty perturbation set");
  std::array<std::size_t, W> pass{};
  std::array<scint::IntegratorPerformance, W> perfs;
  for (const device::Process& process : shifted) {
    scint::evaluate_lanes<W>(process, designs, context,
                             std::span<scint::IntegratorPerformance, W>{perfs});
    for (std::size_t k = 0; k < W; ++k) {
      if (spec.satisfied_by(perfs[k])) ++pass[k];
    }
  }
  for (std::size_t k = 0; k < W; ++k) {
    out[k] = static_cast<double>(pass[k]) / static_cast<double>(shifted.size());
  }
}

template void robustness_lanes<4>(std::span<const device::Process>,
                                  std::span<const scint::IntegratorDesign, 4>,
                                  const scint::IntegratorContext&, const scint::Spec&,
                                  std::span<double, 4>);
template void robustness_lanes<8>(std::span<const device::Process>,
                                  std::span<const scint::IntegratorDesign, 8>,
                                  const scint::IntegratorContext&, const scint::Spec&,
                                  std::span<double, 8>);
template void robustness_lanes<16>(std::span<const device::Process>,
                                   std::span<const scint::IntegratorDesign, 16>,
                                   const scint::IntegratorContext&, const scint::Spec&,
                                   std::span<double, 16>);

}  // namespace anadex::yield
