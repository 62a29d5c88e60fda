// The baseline copy of the lane kernels, built for the build's own target.
#define ANADEX_LANE_ISA isa_base
#include "circuit/batch_opamp_kernel.hpp"
