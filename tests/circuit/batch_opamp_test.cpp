// analyze_lanes<W> vs scalar analyze(): the SoA opamp kernels must emit
// bit-identical analyses for every compiled lane width, through the
// dispatcher and through each instruction-set copy of the kernels.
// Field-by-field bit comparison (not EXPECT_DOUBLE_EQ) because checkpoint
// byte-identity between --batch-eval modes rides on exact doubles.
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "../support/lane_isa.hpp"
#include "circuit/batch_opamp.hpp"
#include "circuit/opamp.hpp"
#include "common/rng.hpp"
#include "device/process.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::circuit {
namespace {

const device::Process kProc = device::Process::typical();

/// Random designs drawn inside the optimization problem's own bounds, so
/// the suite stresses exactly the design space the engine explores.
std::vector<OpAmpDesign> random_designs(std::size_t count, std::uint64_t seed) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  const auto bounds = problem.bounds();
  Rng rng(seed);
  std::vector<OpAmpDesign> designs(count);
  std::vector<double> genes(bounds.size());
  for (auto& design : designs) {
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      genes[k] = rng.uniform(bounds[k].lower, bounds[k].upper);
    }
    design = problems::IntegratorProblem::decode(genes).opamp;
  }
  return designs;
}

using testing_support::expect_analysis_equal;

/// W lanes through copy `isa` of the kernels, or through the dispatching
/// analyze_lanes<W> when `isa` is empty.
template <std::size_t W>
std::array<OpAmpAnalysis, W> run_lanes(std::optional<LaneIsa> isa,
                                       const device::Process& process,
                                       const std::vector<OpAmpDesign>& designs,
                                       const OpAmpContext& context) {
  std::array<OpAmpAnalysis, W> lanes;
  const std::span<const OpAmpDesign, W> in(designs.data(), W);
  if (isa) {
    testing_support::analyze_lanes_on<W>(*isa, process, in, context,
                                         std::span<OpAmpAnalysis, W>(lanes));
  } else {
    analyze_lanes<W>(process, in, context, std::span<OpAmpAnalysis, W>(lanes));
  }
  return lanes;
}

template <std::size_t W>
void check_width(std::uint64_t seed, std::optional<LaneIsa> isa = std::nullopt) {
  const auto designs = random_designs(W, seed);
  const OpAmpContext context;
  const auto lanes = run_lanes<W>(isa, kProc, designs, context);
  for (std::size_t k = 0; k < W; ++k) {
    const OpAmpAnalysis scalar = analyze(kProc, designs[k], context);
    expect_analysis_equal(lanes[k], scalar, k);
  }
}

template <std::size_t W>
void check_corners(std::optional<LaneIsa> isa = std::nullopt) {
  const auto designs = random_designs(W, 99);
  const OpAmpContext context;
  for (const device::Corner corner : device::kAllCorners) {
    const device::Process process = kProc.at_corner(corner);
    const auto lanes = run_lanes<W>(isa, process, designs, context);
    for (std::size_t k = 0; k < W; ++k) {
      expect_analysis_equal(lanes[k], analyze(process, designs[k], context), k);
    }
  }
}

TEST(BatchOpAmp, WidthFourBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) check_width<4>(seed);
}

TEST(BatchOpAmp, WidthEightBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) check_width<8>(seed);
}

TEST(BatchOpAmp, WidthSixteenBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) check_width<16>(seed);
}

TEST(BatchOpAmp, EveryCornerBitIdentical) {
  // The engine evaluates each design on five process corners; the kernels
  // must agree on all of them, not just typical.
  check_corners<8>();
}

TEST(BatchOpAmp, DispatchesToTheBestRunnableCopy) {
  const LaneIsa expected =
      lane_isa_runnable(LaneIsa::kX86_64_V4) ? LaneIsa::kX86_64_V4 : LaneIsa::kBaseline;
  EXPECT_EQ(lane_isa(), expected) << lane_isa_name(lane_isa());
  EXPECT_TRUE(lane_isa_runnable(LaneIsa::kBaseline));
}

class BatchOpAmpPerIsa : public testing_support::PerLaneIsa {};

TEST_P(BatchOpAmpPerIsa, EveryWidthBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    check_width<4>(seed, GetParam());
    check_width<8>(seed, GetParam());
    check_width<16>(seed, GetParam());
  }
}

TEST_P(BatchOpAmpPerIsa, EveryCornerAtEveryWidthBitIdentical) {
  check_corners<4>(GetParam());
  check_corners<8>(GetParam());
  check_corners<16>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Isa, BatchOpAmpPerIsa, ::testing::ValuesIn(kLaneIsas),
                         testing_support::lane_isa_param_name);

}  // namespace
}  // namespace anadex::circuit
