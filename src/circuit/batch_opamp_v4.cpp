// The x86-64-v4 (AVX-512) copy of the lane kernels. src/circuit/CMakeLists.txt
// compiles this file alone with -march=x86-64-v4; circuit::analyze_lanes<W>
// calls it only on a CPU that supports that level.
#ifndef __AVX512F__
#error "batch_opamp_v4.cpp must be compiled with -march=x86-64-v4"
#endif

#define ANADEX_LANE_ISA isa_v4
#include "circuit/batch_opamp_kernel.hpp"
