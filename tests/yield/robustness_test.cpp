#include "yield/robustness.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "../support/reference_design.hpp"
#include "common/check.hpp"

namespace anadex::yield {
namespace {

const device::Process kProc = device::Process::typical();

TEST(Perturbations, DrawIsDeterministicPerSeed) {
  MonteCarloParams params;
  const auto a = draw_perturbations(params);
  const auto b = draw_perturbations(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dvt_nmos, b[i].dvt_nmos);
    EXPECT_EQ(a[i].rel_cap, b[i].rel_cap);
  }
}

TEST(Perturbations, DifferentSeedsDiffer) {
  MonteCarloParams pa;
  MonteCarloParams pb;
  pb.seed = pa.seed + 1;
  const auto a = draw_perturbations(pa);
  const auto b = draw_perturbations(pb);
  EXPECT_NE(a[0].dvt_nmos, b[0].dvt_nmos);
}

TEST(Perturbations, CountMatchesRequest) {
  MonteCarloParams params;
  params.samples = 33;
  EXPECT_EQ(draw_perturbations(params).size(), 33u);
}

TEST(Perturbations, ZeroSamplesRejected) {
  MonteCarloParams params;
  params.samples = 0;
  EXPECT_THROW(draw_perturbations(params), PreconditionError);
}

TEST(Perturbations, MagnitudesTrackSigmas) {
  MonteCarloParams params;
  params.samples = 2000;
  params.sigma_vt = 0.01;
  const auto set = draw_perturbations(params);
  double var = 0.0;
  for (const auto& s : set) var += s.dvt_nmos * s.dvt_nmos;
  var /= static_cast<double>(set.size());
  EXPECT_NEAR(std::sqrt(var), 0.01, 0.001);
}

TEST(Perturbations, AppliedToShiftsProcess) {
  ProcessPerturbation s;
  s.dvt_nmos = 0.02;
  s.rel_mu_pmos = -0.1;
  s.rel_cap = 0.05;
  const auto shifted = s.applied_to(kProc);
  EXPECT_NEAR(shifted.nmos.vt0, kProc.nmos.vt0 + 0.02, 1e-12);
  EXPECT_NEAR(shifted.pmos.mu_cox, kProc.pmos.mu_cox * 0.9, 1e-12);
  EXPECT_NEAR(shifted.cap_density, kProc.cap_density * 1.05, 1e-15);
  // Untouched fields stay.
  EXPECT_EQ(shifted.pmos.vt0, kProc.pmos.vt0);
  EXPECT_EQ(shifted.nmos.mu_cox, kProc.nmos.mu_cox);
}

TEST(Robustness, EmptyPerturbationSetRejected) {
  const auto design = testing_support::reference_design();
  EXPECT_THROW(robustness(kProc, design, scint::IntegratorContext{}, scint::Spec{}, {}),
               PreconditionError);
}

TEST(Robustness, ReferenceDesignScoresHigh) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  const double rob = robustness(kProc, design, scint::IntegratorContext{}, scint::Spec{}, set);
  EXPECT_GE(rob, 0.85);
  EXPECT_LE(rob, 1.0);
}

TEST(Robustness, TighterSpecScoresLower) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  scint::Spec loose;
  loose.dr_min_db = 90.0;
  scint::Spec tight;
  tight.dr_min_db = 96.05;  // right at the reference design's margin
  const scint::IntegratorContext ctx;
  EXPECT_GE(robustness(kProc, design, ctx, loose, set),
            robustness(kProc, design, ctx, tight, set));
}

TEST(Robustness, ImpossibleSpecScoresZero) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  scint::Spec impossible;
  impossible.dr_min_db = 200.0;
  EXPECT_EQ(robustness(kProc, design, scint::IntegratorContext{}, impossible, set), 0.0);
}

TEST(Robustness, DeterministicWithCommonRandomNumbers) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  const scint::IntegratorContext ctx;
  const scint::Spec spec;
  EXPECT_EQ(robustness(kProc, design, ctx, spec, set),
            robustness(kProc, design, ctx, spec, set));
}

TEST(Robustness, QuantizedToSampleCount) {
  const auto design = testing_support::reference_design();
  MonteCarloParams params;
  params.samples = 4;
  const auto set = draw_perturbations(params);
  const double rob =
      robustness(kProc, design, scint::IntegratorContext{}, scint::Spec{}, set);
  const double scaled = rob * 4.0;
  EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
}

TEST(PairMismatch, DisabledByDefault) {
  const auto set = draw_perturbations(MonteCarloParams{});
  for (const auto& s : set) {
    EXPECT_EQ(s.z_pair_input, 0.0);
    EXPECT_EQ(s.z_pair_mirror, 0.0);
    EXPECT_EQ(s.z_pair_stage2, 0.0);
  }
}

TEST(PairMismatch, DrawsWhenEnabled) {
  MonteCarloParams params;
  params.include_pair_mismatch = true;
  const auto set = draw_perturbations(params);
  bool any = false;
  for (const auto& s : set) any |= s.z_pair_input != 0.0;
  EXPECT_TRUE(any);
}

TEST(PairMismatch, PelgromScalesInverselyWithGateArea) {
  ProcessPerturbation s;
  const double small = s.pair_vt_mismatch(kProc, {2e-6, 0.5e-6}, 1.0);
  const double large = s.pair_vt_mismatch(kProc, {8e-6, 2.0e-6}, 1.0);
  EXPECT_NEAR(small / large, 4.0, 1e-9);  // 16x the area -> 4x less mismatch
  EXPECT_THROW(s.pair_vt_mismatch(kProc, {0.0, 1e-6}, 1.0), PreconditionError);
}

TEST(PairMismatch, MismatchNeverImprovesRobustness) {
  const auto design = testing_support::reference_design();
  MonteCarloParams base_params;
  MonteCarloParams mm_params;
  mm_params.include_pair_mismatch = true;
  const auto base_set = draw_perturbations(base_params);
  const auto mm_set = draw_perturbations(mm_params);
  const scint::IntegratorContext ctx;
  scint::Spec tight;
  tight.dr_min_db = 96.05;  // at the reference design's margin
  const double base_rob = robustness(kProc, design, ctx, tight, base_set);
  const double mm_rob = robustness(kProc, design, ctx, tight, mm_set);
  EXPECT_LE(mm_rob, base_rob + 0.26);  // extra variation can only hurt (noise slack)
}

TEST(ShiftedProcesses, EmptyWhenPairMismatchIsSampled) {
  MonteCarloParams params;
  params.include_pair_mismatch = true;
  EXPECT_TRUE(shifted_processes(kProc, draw_perturbations(params)).empty());
}

/// W variants of the reference design whose robustness against a spec at
/// its dynamic-range margin spreads over several sample counts.
template <std::size_t W>
std::array<scint::IntegratorDesign, W> robustness_spread() {
  std::array<scint::IntegratorDesign, W> designs;
  for (std::size_t k = 0; k < W; ++k) {
    designs[k] = testing_support::reference_design();
    designs[k].opamp.ibias *= 0.9 + 0.015 * static_cast<double>(k);
    designs[k].cload *= 0.8;
  }
  return designs;
}

template <std::size_t W>
void expect_lanes_match_scalar() {
  const auto set = draw_perturbations(MonteCarloParams{});
  const auto shifted = shifted_processes(kProc, set);
  const scint::IntegratorContext ctx;
  scint::Spec spec;
  spec.dr_min_db = 96.05;  // at the reference design's margin
  const auto designs = robustness_spread<W>();

  std::array<double, W> lanes{};
  robustness_lanes<W>(shifted, std::span<const scint::IntegratorDesign, W>{designs}, ctx, spec,
                      std::span<double, W>{lanes});
  std::set<double> distinct;
  for (std::size_t k = 0; k < W; ++k) {
    const double scalar = robustness(kProc, designs[k], ctx, spec, set);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[k]), std::bit_cast<std::uint64_t>(scalar))
        << "W=" << W << " lane " << k << ": " << lanes[k] << " vs " << scalar;
    distinct.insert(scalar);
  }
  // The check is only as strong as the spread of values it compares.
  EXPECT_GE(distinct.size(), W >= 8 ? 3u : 2u) << "W=" << W;
}

TEST(RobustnessLanes, BitIdenticalToScalarAtEveryLaneWidth) {
  expect_lanes_match_scalar<4>();
  expect_lanes_match_scalar<8>();
  expect_lanes_match_scalar<16>();
}

TEST(RobustnessLanes, EmptyProcessSetRejected) {
  const auto designs = robustness_spread<4>();
  std::array<double, 4> out{};
  EXPECT_THROW(robustness_lanes<4>({}, std::span<const scint::IntegratorDesign, 4>{designs},
                                   scint::IntegratorContext{}, scint::Spec{},
                                   std::span<double, 4>{out}),
               PreconditionError);
}

}  // namespace
}  // namespace anadex::yield
