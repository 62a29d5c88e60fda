// Run-time dispatch between the instruction-set copies of the lane kernels
// (batch_opamp.hpp): batch_opamp_base.cpp and, on x86-64,
// batch_opamp_v4.cpp.
#include "circuit/batch_opamp.hpp"

namespace anadex::circuit {

const char* lane_isa_name(LaneIsa isa) {
  return isa == LaneIsa::kX86_64_V4 ? "x86-64-v4" : "baseline";
}

bool lane_isa_runnable(LaneIsa isa) {
  if (isa == LaneIsa::kBaseline) return true;
#if ANADEX_LANE_ISA_V4
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4") != 0;
#else
  return false;
#endif
}

LaneIsa lane_isa() {
  static const LaneIsa isa =
      lane_isa_runnable(LaneIsa::kX86_64_V4) ? LaneIsa::kX86_64_V4 : LaneIsa::kBaseline;
  return isa;
}

template <std::size_t W>
void analyze_lanes(const device::Process& process, std::span<const OpAmpDesign, W> designs,
                   const OpAmpContext& context, std::span<OpAmpAnalysis, W> out) {
#if ANADEX_LANE_ISA_V4
  if (lane_isa() == LaneIsa::kX86_64_V4) {
    isa_v4::analyze_lanes<W>(process, designs, context, out);
    return;
  }
#endif
  isa_base::analyze_lanes<W>(process, designs, context, out);
}

template void analyze_lanes<4>(const device::Process&, std::span<const OpAmpDesign, 4>,
                               const OpAmpContext&, std::span<OpAmpAnalysis, 4>);
template void analyze_lanes<8>(const device::Process&, std::span<const OpAmpDesign, 8>,
                               const OpAmpContext&, std::span<OpAmpAnalysis, 8>);
template void analyze_lanes<16>(const device::Process&, std::span<const OpAmpDesign, 16>,
                                const OpAmpContext&, std::span<OpAmpAnalysis, 16>);

}  // namespace anadex::circuit
