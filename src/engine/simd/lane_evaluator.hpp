// LaneEvaluator — the SoA batch-evaluation seam between EvalEngine and a
// Problem's vectorized kernels.
//
// A Problem that can evaluate several genomes per call (the SC-integrator
// model does, via the circuit/batch_opamp SoA kernels) additionally derives
// from this interface. EvalEngine discovers the capability per batch with a
// dynamic_cast of the batch's problem and — when the --batch-eval knob asks
// for it — hands items to evaluate_lanes() instead of evaluate(): a serial
// engine passes the whole batch in one call, so the evaluator can pool work
// across it, and a worker pool claims GROUPS of preferred_lane_width(), so
// its workers stay balanced.
//
// Determinism contract (docs/performance.md): evaluate_lanes() must produce
// BIT-IDENTICAL Evaluations to per-genome Problem::evaluate() for every
// genome, every group size, and every position within a group. The engine's
// scalar path stays intact as the oracle; --batch-eval {scalar,simd,auto}
// is a pure execution knob excluded from the checkpoint config digest, so
// fronts, traces and checkpoint bytes agree across modes and thread counts.
//
// Error contract: if any lane cannot be evaluated (a genome the scalar path
// would reject by throwing), evaluate_lanes() must throw WITHOUT writing to
// any output slot. The engine then falls back to the per-item scalar path
// for every member of the call, which reproduces the scalar behavior
// exactly — including which exception surfaces and the lowest-index-error
// rethrow semantics.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "moga/problem.hpp"

namespace anadex::engine {

/// Which evaluation kernels a batch dispatches to. A pure execution knob:
/// results are bit-identical in every mode (enforced by the golden
/// equivalence suite), so it is excluded from the checkpoint config digest
/// and may differ across a snapshot/resume boundary.
enum class BatchEval {
  /// Per-genome Problem::evaluate() only — the oracle path.
  Scalar,
  /// Lanes whenever the problem supports them, regardless of batch size
  /// (a one-item batch or pool group goes through the scalar path).
  Simd,
  /// Lane groups only when a batch has at least one full group's worth of
  /// items; small batches stay scalar to avoid lane-padding overhead.
  Auto,
};

/// Optional capability interface for problems with an SoA batch kernel.
/// Implementations are discovered by EvalEngine via dynamic_cast, so a
/// Problem opts in simply by additionally deriving from LaneEvaluator.
class LaneEvaluator {
 public:
  virtual ~LaneEvaluator() = default;

  /// Whether lane evaluation is actually available. Wrappers (e.g.
  /// GuardedProblem) forward this so a capable inner problem shines
  /// through, and chains broken by a lane-unaware layer report false.
  virtual bool lanes_supported() const = 0;

  /// Group size a worker pool claims per evaluate_lanes() call.
  /// Typically the SIMD width the kernels were tuned for (8 doubles on
  /// AVX-512, 4 on AVX2). Must be >= 2.
  virtual std::size_t preferred_lane_width() const = 0;

  /// Evaluates genes[i] into *outs[i] for every i. The spans are the same
  /// size and non-empty, of any length: one engine thread passes its whole
  /// batch, a pool passes preferred_lane_width() groups (shorter at batch
  /// remainders). Must be bit-identical to the scalar path, for every
  /// genome whatever its neighbours, and safe to call from several threads
  /// concurrently.
  /// On failure of ANY lane: throw without writing any output (see the
  /// error contract above).
  virtual void evaluate_lanes(std::span<const std::span<const double>> genes,
                              std::span<moga::Evaluation* const> outs) const = 0;
};

/// Round-trip helpers for the --batch-eval CLI/serve knob.
const char* to_string(BatchEval mode);
/// Parses "scalar" / "simd" / "auto"; throws PreconditionError otherwise.
BatchEval parse_batch_eval(std::string_view text);

}  // namespace anadex::engine
