// SoA batch analysis of the two-stage Miller opamp — W designs per call.
//
// analyze_lanes<W>() produces, for each lane, the exact OpAmpAnalysis that
// scalar analyze() produces for that design (bit-identical doubles; see
// docs/performance.md for the contract and batch_mosfet.hpp for how the
// kernels achieve it). The hot inverse-model solves run vectorized across
// lanes; the cheap epilogue (capacitances, gains, margins) runs per lane
// with the scalar expression trees.
//
// The kernels are compiled once per instruction-set copy from one source
// (batch_opamp_kernel.hpp): isa_base for the build's own target, and on
// x86-64 isa_v4 for -march=x86-64-v4 (AVX-512), whose mask registers let
// the compiler vectorize the masked Newton loops that stay scalar below
// it. analyze_lanes<W> runs the best copy this CPU supports (lane_isa()).
// Every copy is bit-identical to the scalar oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "circuit/opamp.hpp"

namespace anadex::circuit {

/// Lane widths with compiled kernels (explicit instantiations in
/// batch_opamp_kernel.hpp). Callers pad short groups up to one of these.
inline constexpr std::size_t kLaneWidths[] = {4, 8, 16};
inline constexpr std::size_t kMaxLaneWidth = 16;

/// The instruction-set copies of the lane kernels.
enum class LaneIsa : std::uint8_t { kBaseline, kX86_64_V4 };
inline constexpr LaneIsa kLaneIsas[] = {LaneIsa::kBaseline, LaneIsa::kX86_64_V4};

/// "baseline" or "x86-64-v4".
const char* lane_isa_name(LaneIsa isa);

/// True when copy `isa` is compiled into this build and this CPU runs it.
bool lane_isa_runnable(LaneIsa isa);

/// The copy analyze_lanes<W> runs: x86-64-v4 when runnable, else the
/// baseline. Decided once per process by a CPUID check.
LaneIsa lane_isa();

/// Analyzes W amplifier designs on one process corner in SoA form.
/// out[k] is bit-identical to analyze(process, designs[k], context).
template <std::size_t W>
void analyze_lanes(const device::Process& process, std::span<const OpAmpDesign, W> designs,
                   const OpAmpContext& context, std::span<OpAmpAnalysis, W> out);

// The copies analyze_lanes<W> dispatches to, same contract. Call one
// directly only where lane_isa_runnable() holds for it.
namespace isa_base {
template <std::size_t W>
void analyze_lanes(const device::Process& process, std::span<const OpAmpDesign, W> designs,
                   const OpAmpContext& context, std::span<OpAmpAnalysis, W> out);
}  // namespace isa_base

#if ANADEX_LANE_ISA_V4
namespace isa_v4 {
template <std::size_t W>
void analyze_lanes(const device::Process& process, std::span<const OpAmpDesign, W> designs,
                   const OpAmpContext& context, std::span<OpAmpAnalysis, W> out);
}  // namespace isa_v4
#endif

}  // namespace anadex::circuit
