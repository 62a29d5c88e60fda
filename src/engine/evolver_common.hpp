// Knobs shared by every evolver's parameter struct.
//
// Each algorithm's *Params embeds these by inheritance
// (`struct Nsga2Params : engine::EvolverCommon<Nsga2State>`), so call sites
// keep writing `params.seed = ...` while generic code — expt::run's
// checkpoint wiring, the determinism test matrix — can operate on any
// algorithm through one `EvolverCommon<State>&`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/cancel.hpp"
#include "engine/eval_knobs.hpp"
#include "moga/individual.hpp"
#include "obs/event_sink.hpp"

namespace anadex::engine {

/// Computes the hypervolume of a (front) population for the per-generation
/// trace record. Problem-specific (needs a reference box), so the expt
/// layer supplies it; evolvers only forward.
using TraceHypervolume = std::function<double(const moga::Population&)>;

/// Observability wiring shared by every evolver, including WeightedSum
/// (which has no resumable state and therefore no EvolverCommon base).
/// Tracing is pure observation: it draws nothing from the RNG and mutates
/// no algorithm state, so fronts, evaluation counts and checkpoints are
/// byte-identical whether a sink is attached or not.
struct ObsConfig {
  /// Non-owning event destination; nullptr (the default) disables all
  /// telemetry at the cost of one pointer test per instrumentation site.
  obs::EventSink* sink = nullptr;

  /// Optional hypervolume metric added to each per-generation record.
  TraceHypervolume trace_hypervolume;
};

/// Configuration common to every evolver: the RNG seed, the pure execution
/// knobs (the engine::EvalKnobs base: threads / eval_cache / engine /
/// batch_eval), the checkpoint/resume hooks and the telemetry sink.
/// `State` is the algorithm's resumable-state type (e.g. moga::Nsga2State).
template <class State>
struct EvolverCommon : ObsConfig, EvalKnobs {
  std::uint64_t seed = 1;

  // Checkpoint/resume (see robust/checkpoint.hpp for the file format).
  /// Call on_snapshot every this many generations (0 disables).
  std::size_t snapshot_every = 0;
  std::function<void(const State&)> on_snapshot;
  /// When set, skip initialization and continue from this state. The state
  /// must come from a run with identical params; seed is ignored in favour
  /// of the stored RNG state. Caller keeps the state alive for the run.
  const State* resume = nullptr;

  // Graceful shutdown + stuck-eval watchdog (see docs/robustness.md).
  /// Non-owning stop-request token (e.g. robust::shutdown_token()). Checked
  /// once per generation by barrier(): when raised, the evolver snapshots
  /// (if on_snapshot is set), marks its result `interrupted` and returns.
  /// Stopping never consumes randomness, so a resumed run replays the
  /// remaining generations bit-identically.
  const CancelToken* stop = nullptr;

  /// Per-batch evaluation deadline in seconds (0 = no watchdog). Requires
  /// `eval_cancel`. A pure execution knob — excluded from config digests —
  /// but NOTE: a deadline that actually fires penalizes whichever items were
  /// still pending, which depends on wall-clock scheduling.
  double eval_deadline_s = 0.0;
  /// Token the watchdog raises and cooperative evaluators poll. Must also
  /// be handed to the GuardedProblem wrapping the evaluator (non-owning).
  CancelToken* eval_cancel = nullptr;

  /// The generation barrier: the one place an evolver decides, once
  /// `completed` generations are done, whether to snapshot and whether to
  /// stop. Writes the regular snapshot every `snapshot_every` generations;
  /// then, unless this is the run's `last` generation, polls `stop` via
  /// stop_requested(). Returns true when the evolver must mark its result
  /// `interrupted` and return. `make_state` builds the State and runs only
  /// when a snapshot is written.
  template <class MakeState>
  bool barrier(std::size_t completed, bool last, const MakeState& make_state) const {
    if (on_snapshot && snapshot_due(completed)) on_snapshot(make_state());
    return !last && stop_requested(completed, make_state);
  }

  /// The stop half of barrier(), alone for a loop that polls before its
  /// step (SACGA's phase I). When `stop` is raised, writes one off-cycle
  /// snapshot of generation `completed` (unless the regular cadence wrote
  /// it) and returns true.
  template <class MakeState>
  bool stop_requested(std::size_t completed, const MakeState& make_state) const {
    if (stop == nullptr || !stop->requested()) return false;
    if (on_snapshot && !snapshot_due(completed)) on_snapshot(make_state());
    return true;
  }

  /// True when the regular cadence snapshots generation `completed`.
  bool snapshot_due(std::size_t completed) const {
    return snapshot_every > 0 && completed != 0 && completed % snapshot_every == 0;
  }
};

}  // namespace anadex::engine
