// Golden coverage of every instruction-set copy of the lane kernels
// (circuit/batch_opamp.hpp). A PerLaneIsa test runs once per copy,
// reaching it through its namespace rather than through the dispatcher,
// and skips (naming the ISA) when the copy is not compiled in or this CPU
// cannot run it. Comparisons are by bit pattern, as in the dispatcher
// tests.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "circuit/batch_opamp.hpp"

namespace anadex::circuit {

/// gtest prints a parameter by name, not as a byte dump.
inline void PrintTo(LaneIsa isa, std::ostream* os) { *os << lane_isa_name(isa); }

}  // namespace anadex::circuit

namespace anadex::testing_support {

/// circuit::analyze_lanes<W> through copy `isa` of the kernels.
template <std::size_t W>
void analyze_lanes_on(circuit::LaneIsa isa, const device::Process& process,
                      std::span<const circuit::OpAmpDesign, W> designs,
                      const circuit::OpAmpContext& context,
                      std::span<circuit::OpAmpAnalysis, W> out) {
  switch (isa) {
    case circuit::LaneIsa::kBaseline:
      circuit::isa_base::analyze_lanes<W>(process, designs, context, out);
      return;
    case circuit::LaneIsa::kX86_64_V4:
#if ANADEX_LANE_ISA_V4
      circuit::isa_v4::analyze_lanes<W>(process, designs, context, out);
#else
      ADD_FAILURE() << "the x86-64-v4 copy is not compiled into this build";
#endif
      return;
  }
}

/// Parameterized over circuit::kLaneIsas; see the file comment.
class PerLaneIsa : public ::testing::TestWithParam<circuit::LaneIsa> {
 protected:
  void SetUp() override {
    const circuit::LaneIsa isa = GetParam();
    if (circuit::lane_isa_runnable(isa)) return;
#if ANADEX_LANE_ISA_V4
    GTEST_SKIP() << "this CPU lacks " << circuit::lane_isa_name(isa);
#else
    GTEST_SKIP() << "the " << circuit::lane_isa_name(isa)
                 << " copy is not compiled into this build";
#endif
  }
};

/// Test-name suffix: "baseline", "x86_64_v4".
inline std::string lane_isa_param_name(
    const ::testing::TestParamInfo<circuit::LaneIsa>& info) {
  std::string name = circuit::lane_isa_name(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

inline void expect_bits(double lanes, double scalar, const char* field, std::size_t lane) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes), std::bit_cast<std::uint64_t>(scalar))
      << field << " lane " << lane << ": " << lanes << " vs " << scalar;
}

/// Every field of a lane analysis against the scalar one, by bit pattern.
inline void expect_analysis_equal(const circuit::OpAmpAnalysis& lanes,
                                  const circuit::OpAmpAnalysis& scalar, std::size_t lane) {
  expect_bits(lanes.i5, scalar.i5, "i5", lane);
  expect_bits(lanes.i7, scalar.i7, "i7", lane);
  expect_bits(lanes.vgs_ref, scalar.vgs_ref, "vgs_ref", lane);
  expect_bits(lanes.gm1, scalar.gm1, "gm1", lane);
  expect_bits(lanes.gm3, scalar.gm3, "gm3", lane);
  expect_bits(lanes.gm6, scalar.gm6, "gm6", lane);
  expect_bits(lanes.a1, scalar.a1, "a1", lane);
  expect_bits(lanes.a2, scalar.a2, "a2", lane);
  expect_bits(lanes.a0, scalar.a0, "a0", lane);
  expect_bits(lanes.cc_eff, scalar.cc_eff, "cc_eff", lane);
  expect_bits(lanes.c_first, scalar.c_first, "c_first", lane);
  expect_bits(lanes.c_out_self, scalar.c_out_self, "c_out_self", lane);
  expect_bits(lanes.c_mirror, scalar.c_mirror, "c_mirror", lane);
  expect_bits(lanes.c_in, scalar.c_in, "c_in", lane);
  expect_bits(lanes.mirror_pole, scalar.mirror_pole, "mirror_pole", lane);
  expect_bits(lanes.slew_internal, scalar.slew_internal, "slew_internal", lane);
  expect_bits(lanes.swing, scalar.swing, "swing", lane);
  expect_bits(lanes.noise_psd, scalar.noise_psd, "noise_psd", lane);
  expect_bits(lanes.power, scalar.power, "power", lane);
  expect_bits(lanes.area, scalar.area, "area", lane);
  expect_bits(lanes.mirror_balance_error, scalar.mirror_balance_error,
              "mirror_balance_error", lane);
  expect_bits(lanes.vov_worst, scalar.vov_worst, "vov_worst", lane);
  expect_bits(lanes.margins.m1, scalar.margins.m1, "margins.m1", lane);
  expect_bits(lanes.margins.m5, scalar.margins.m5, "margins.m5", lane);
  expect_bits(lanes.margins.m6, scalar.margins.m6, "margins.m6", lane);
  expect_bits(lanes.margins.m7, scalar.margins.m7, "margins.m7", lane);
  expect_bits(lanes.margins.mref, scalar.margins.mref, "margins.mref", lane);
}

}  // namespace anadex::testing_support
