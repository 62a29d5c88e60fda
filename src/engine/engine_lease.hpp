// EngineLease — the evolvers' evaluation front: either a private
// EvalEngine or a lease on a shared hub, behind one call shape.
//
// Each algorithm constructs one lease per run from (problem, EngineHandle,
// execution knobs). With an empty handle the lease OWNS an EvalEngine
// built from the knobs — exactly the engine the algorithm used to build
// itself, so results and traces are unchanged. With a hub handle the lease
// borrows the hub's worker pool and dedup cache, routing every batch
// through EvalEngine::evaluate_members_as under the handle's cache
// context and accumulating this client's EvalStats locally, so per-run
// requested/distinct/hit accounting stays exact even though the hub
// aggregates every job.
//
// Shared-mode restrictions (validated at construction):
//   - the per-run watchdog must be off — a deadline thread belongs to the
//     engine that owns the workers, so serve configures it on the hub;
//   - the per-run `threads` / `eval_cache` knobs are ignored in favour of
//     the hub's (documented in docs/serve.md).
// Each lease submits its batches one at a time, exactly as with a private
// engine. The serve scheduler runs several job slices at once as tasks on
// the hub's own pool (EvalEngine::run_tasks), so a hub may see one batch
// per concurrent job; each runs serially on its job's worker, and the
// cache keeps each job's hit counts independent of timing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "engine/engine_handle.hpp"
#include "engine/eval_engine.hpp"
#include "engine/eval_knobs.hpp"
#include "moga/individual.hpp"
#include "moga/problem.hpp"
#include "obs/event_sink.hpp"

namespace anadex::engine {

/// One run's evaluation seam: private engine or shared-hub lease.
class EngineLease {
 public:
  /// `handle` empty: builds a private EvalEngine(problem, threads, sink,
  /// cache_capacity, watchdog) running in `batch_eval` mode.
  /// `handle.shared()`: leases the hub; `threads` / `cache_capacity` /
  /// `batch_eval` are ignored (the hub's configuration governs) and
  /// `watchdog` must be disabled.
  EngineLease(const moga::Problem& problem, const EngineHandle& handle,
              std::size_t threads, obs::EventSink* sink,
              std::size_t cache_capacity, EvalWatchdog watchdog = {},
              BatchEval batch_eval = BatchEval::Scalar);

  /// Knob-bundle form: every evolver params struct and expt::RunSettings
  /// IS-A EvalKnobs, so the lease can be built straight from it —
  /// `EngineLease eval(problem, params, params.sink, watchdog)`. Exactly
  /// equivalent to spelling the four knobs out above.
  EngineLease(const moga::Problem& problem, const EvalKnobs& knobs,
              obs::EventSink* sink, EvalWatchdog watchdog = {});

  EngineLease(const EngineLease&) = delete;
  EngineLease& operator=(const EngineLease&) = delete;

  /// True when batches go through a shared hub engine.
  bool shared() const { return !owned_.has_value(); }

  const moga::Problem& problem() const { return problem_; }

  /// Effective worker count (the hub's when shared).
  std::size_t threads() const;

  /// Batch-evaluates `members[i].genes` into `members[i].eval`.
  void evaluate_members(std::span<moga::Individual> members) const;

  /// The single-item path (CLIs, archives, estimates).
  moga::Evaluation evaluate(std::span<const double> genes) const;

  /// THIS run's requested/distinct/cache-hit accounting — the engine
  /// totals when private, the locally-accumulated client stats when
  /// shared.
  EvalStats stats() const;

 private:
  const moga::Problem& problem_;
  EngineHandle handle_;
  std::optional<EvalEngine> owned_;  ///< engaged iff the handle was empty
  mutable EvalStats client_stats_;   ///< shared mode only
};

}  // namespace anadex::engine
