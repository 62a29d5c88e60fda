// Experiment harness: uniform configuration, execution and measurement of
// the paper's algorithms (TPG / LocalOnly / SACGA / MESACGA plus the
// Island / WeightedSum / SPEA2 baselines) on the integrator problem, with
// physical-unit fronts and all the paper's quality metrics.
//
// The unit of execution is an expt::Job (expt/job.hpp): validated
// RunSettings + problem with a preemptible lifecycle
// (Pending -> Running -> Snapshotted -> Done/Failed/Cancelled) built on the
// v2 checkpoint chain — preempting a job snapshots it at a generation
// barrier and a later slice re-admits it with ResumeMode::Auto, replaying
// the remaining generations bit-identically. The free run() functions
// below are thin wrappers (construct a Job, run it to completion) kept for
// the existing call sites; new code — and the serve scheduler, which
// time-slices many Jobs over one shared EvalEngine — should hold a Job.
//
// This header owns the settings/outcome vocabulary: RunSettings (one
// struct for every algorithm; validate_run_settings rejects nonsense
// before a run starts) and RunOutcome (front + paper metrics + execution
// accounting). Determinism contract: for fixed settings the front,
// evaluation counts, checkpoints and gen-level traces are byte-identical
// across thread counts, cache capacities, shared-engine handles and
// slice boundaries (docs/serve.md, docs/engine.md).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.hpp"
#include "engine/eval_engine.hpp"
#include "engine/eval_knobs.hpp"
#include "moga/metrics.hpp"
#include "moga/nsga2.hpp"
#include "obs/event_sink.hpp"
#include "problems/integrator_problem.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injection.hpp"
#include "robust/guarded_problem.hpp"
#include "sacga/island.hpp"
#include "scint/spec.hpp"

namespace anadex::expt {

/// Which optimizer to run. TPG/SACGA/MESACGA are the paper's three
/// contestants; LocalOnly is §4.3's intermediate; Island and WeightedSum
/// are the alternatives the paper cites in §4.1 / §1, included as extra
/// baselines.
enum class Algo { TPG, LocalOnly, SACGA, MESACGA, Island, WeightedSum, SPEA2 };

/// One row of the algorithm table.
struct AlgoInfo {
  Algo algo;
  /// Display name; also robust::CheckpointMeta::algo, so it must never change.
  std::string_view name;
  /// Spelling of `anadex explore --algo` and serve's "algo" key.
  std::string_view vocabulary;
  /// Whether the evolver has a resumable checkpoint state.
  bool checkpoints;
};

/// Every Algo, in enum order. Adding an evolver adds one row here.
inline constexpr std::array<AlgoInfo, 7> kAlgos = {{
    {Algo::TPG, "TPG(NSGA-II)", "tpg", true},
    {Algo::LocalOnly, "LocalOnly", "localonly", true},
    {Algo::SACGA, "SACGA", "sacga", true},
    {Algo::MESACGA, "MESACGA", "mesacga", true},
    {Algo::Island, "IslandGA", "island", true},
    {Algo::WeightedSum, "WeightedSum", "wsum", false},
    {Algo::SPEA2, "SPEA2", "spea2", true},
}};

const AlgoInfo& algo_info(Algo algo);
std::string algo_name(Algo algo);

/// Parses the algorithm vocabulary (`nsga2` is an alias of `tpg`). Throws
/// PreconditionError `unknown algo "<name>" (expected tpg|...)` otherwise.
Algo algo_from_name(std::string_view name);

/// How a run treats an existing checkpoint chain at `checkpoint_path`.
enum class ResumeMode {
  Off,     ///< ignore any checkpoint; start fresh
  Strict,  ///< resume from checkpoint_path exactly; fail if missing/corrupt
  /// Scan the rotated chain (path, path.1, ...) newest-first, resume from
  /// the first slot that checksum-verifies, and start FRESH when no slot
  /// exists or validates — the crash-recovery default (`--resume auto`).
  Auto,
};

/// Uniform run configuration. Semantics of `generations`:
///   TPG / LocalOnly: total generations;
///   SACGA:           total budget = gen_t (<= phase1_cap) + phase-II span;
///   MESACGA:         phase-I runs up to phase1_cap, then each of the
///                    partition_schedule phases runs `span` generations; if
///                    span == 0 it is derived as
///                    (generations - phase1_cap) / #phases.
/// Every field is classified (META / DIGEST / KNOB / SEAM) in the
/// settings registry — src/expt/settings_registry.hpp is the one table
/// that the config-digest serializer, the CLI wiring, the digest audit
/// (`anadex-lint --digest-audit`) and the perturbation property test all
/// consume. ADD NEW FIELDS THERE TOO, or the build's static check and the
/// lint gate will fail. The engine::EvalKnobs base carries the four
/// evaluation execution knobs (threads / eval_cache / engine / batch_eval,
/// all result-invariant — see eval_knobs.hpp for their semantics here).
struct RunSettings : engine::EvalKnobs {
  Algo algo = Algo::TPG;
  scint::Spec spec;
  std::size_t population = 100;
  std::size_t generations = 800;
  std::size_t partitions = 8;                 ///< SACGA / LocalOnly
  std::size_t islands = 4;                    ///< Island GA
  std::size_t migration_interval = 25;        ///< Island GA
  std::size_t weight_count = 16;              ///< WeightedSum sweep
  std::vector<std::size_t> mesacga_schedule{20, 13, 8, 5, 3, 2, 1};
  std::size_t phase1_cap = 200;
  std::size_t span = 0;                        ///< MESACGA per-phase span (0 = derive)
  std::uint64_t seed = 1;
  bool record_history = false;
  std::size_t history_stride = 25;             ///< generations between history samples

  /// Multi-process sharding (docs/sharding.md): how many worker shards the
  /// island ring is split across. 1 (default) = ordinary in-process run.
  /// Values > 1 are only meaningful for Algo::Island and are executed by
  /// shard::run_sharded (`anadex explore --shards N`); expt::Job rejects
  /// them at admission. Like `threads`, a pure execution knob excluded from
  /// the config digest: fronts, evaluation counts and the final canonical
  /// checkpoint are byte-identical for every shard count.
  std::size_t shards = 1;
  /// Spool directory for the shard exchange (migrant files plus per-shard
  /// checkpoint chains). Empty = derived as "<checkpoint_path>.spool".
  /// Excluded from the config digest (a location, not a result input).
  std::string shard_dir;

  /// Fault-tolerance policy applied to every evaluation (see
  /// robust::GuardedProblem); the defaults retry twice then penalize.
  robust::GuardPolicy guard;

  /// Chaos-harness seam (tests and drills only): when set, the problem is
  /// wrapped in a robust::FaultInjectingProblem with these rates before the
  /// fault guard, so the whole run executes under deterministic evaluator
  /// faults. Unlike the execution knobs this DOES change results, so it
  /// participates in the checkpoint config digest.
  std::optional<robust::FaultInjectionConfig> fault_injection;

  // Checkpoint/resume (docs/robustness.md). Supported for every algorithm
  // whose kAlgos row says `checkpoints`; the others reject a checkpoint path.
  std::string checkpoint_path;         ///< empty = no checkpointing
  std::size_t checkpoint_every = 50;   ///< generations between snapshots
  ResumeMode resume = ResumeMode::Off;
  /// Rotated checkpoint slots kept on disk (1 = just checkpoint_path,
  /// N > 1 additionally keeps .1 .. .(N-1)). A pure durability knob —
  /// excluded from the config digest, never changes results.
  std::size_t checkpoint_keep = 1;
  /// Test seam forwarded to robust::write_checkpoint_file (the chaos
  /// harness injects mid-write crashes through it). Empty in production.
  robust::CheckpointWriteHook checkpoint_write_hook;

  // Robustness under faulty or stuck evaluators (docs/robustness.md).
  /// Graceful-stop token (non-owning; e.g. &robust::shutdown_token()).
  /// Polled at every generation barrier: when raised, the run snapshots,
  /// marks the outcome `interrupted` and returns normally.
  const CancelToken* stop = nullptr;
  /// Per-batch evaluation deadline in seconds. Unset = no watchdog. A pure
  /// execution knob (excluded from the config digest); see
  /// engine::EvalWatchdog for the determinism caveat when it fires.
  std::optional<double> eval_deadline_s;

  /// Extra per-generation observer, invoked after the internal history
  /// recorder with the same (generation, population) arguments. Tests use
  /// it to raise `stop` at an exact generation.
  moga::GenerationCallback on_generation;

  // Telemetry (docs/observability.md). When trace_path is non-empty the run
  // streams one JSON object per event to that file. Tracing is pure
  // observation: fronts, evaluation counts and checkpoint bytes are
  // identical with tracing on or off, and gen-level traces are bit-identical
  // across thread counts.
  std::string trace_path;                            ///< empty = no tracing
  obs::TraceLevel trace_level = obs::TraceLevel::Gen;
  /// Open the trace file in append mode, adding one self-delimiting
  /// header..trailer segment instead of truncating. Job slicing sets this
  /// from the second slice on, so a preempted job's trace is one segment
  /// per slice (scripts/check_trace.py --segments). An execution knob.
  bool trace_append = false;
};

/// Validates `settings` with ANADEX_REQUIRE (population even and >= 4,
/// partition/island counts sane, MESACGA schedule non-empty + strictly
/// decreasing + ending in 1, thread count within [0, 256], history stride
/// positive when history is recorded, checkpoint flags consistent, guard
/// policy fields finite and in range, watchdog deadline positive when set,
/// watchdog absent when a shared engine handle is set). Job admission runs
/// this FIRST — an invalid request is rejected before it can occupy a
/// scheduler slot or start a run; exposed so CLIs and the serve daemon can
/// fail fast and report the rejection instead of aborting.
void validate_run_settings(const RunSettings& settings);

/// One front design in physical units.
struct FrontSample {
  double power_w = 0.0;
  double cload_f = 0.0;
};

/// Metric trajectory sample.
struct HistoryPoint {
  std::size_t generation = 0;
  double front_area = 0.0;   ///< paper metric, 0.1 mW·pF units (lower better)
  std::size_t front_size = 0;
};

/// Per-MESACGA-phase metric (paper Fig 10).
struct PhaseMetric {
  std::size_t phase = 0;
  std::size_t partitions = 0;
  double front_area = 0.0;
};

struct RunOutcome {
  std::vector<FrontSample> front;  ///< final global Pareto front, physical units
  double front_area = 0.0;         ///< paper metric (0.1 mW·pF), lower better
  double hypervolume_norm = 0.0;   ///< standard HV / reference box, higher better
  double clustering_4to5 = 0.0;    ///< fraction of front with C_load in [4, 5] pF
  double load_span_pf = 0.0;       ///< covered C_load extent, pF
  std::size_t evaluations = 0;
  std::size_t distinct_evaluations = 0;  ///< evaluations actually dispatched to the problem
  std::size_t cache_hits = 0;            ///< requests served by the dedup cache (batch + LRU)
  std::size_t generations = 0;
  double seconds = 0.0;            ///< wall-clock of the optimization
  std::vector<HistoryPoint> history;
  std::vector<PhaseMetric> phases;  ///< MESACGA only
  robust::FaultReport faults;      ///< evaluation faults absorbed by the guard
  std::size_t resumed_from_generation = 0;  ///< 0 unless resumed mid-run
  std::string resumed_from_path;   ///< checkpoint slot actually loaded (if any)
  /// True when the stop token ended the run at a generation barrier before
  /// the configured generation count. The front/metrics describe the
  /// stopping point and a checkpoint of it was written (when checkpointing
  /// is on), so the run can be finished later with ResumeMode::Auto.
  bool interrupted = false;
};

/// Paper metric with the reproduction's standard parameters.
double front_area_of(const std::vector<FrontSample>& front);

/// Normalized reference-point hypervolume (higher better) of a front.
double hypervolume_of(const std::vector<FrontSample>& front);

/// Converts a population (internal objectives) to physical front samples.
std::vector<FrontSample> to_front_samples(const moga::Population& front);

/// One-line digest of every result-bearing setting, stored in checkpoint
/// meta so a resume refuses a mismatched configuration. Generated from the
/// DIGEST rows of the settings registry (settings_registry.hpp) in
/// registry order — spec and guard policy included, since resuming under a
/// different spec or fault-handling policy would silently change results.
/// Fields the registry classifies KNOB (threads, eval_cache, batch_eval,
/// engine handle, shards, shard_dir, checkpoint_keep, ...) are
/// deliberately excluded — a run may be checkpointed under one and resumed
/// under another; `anadex-lint --digest-audit` enforces that every field
/// is classified one way or the other. Exposed so the sharded coordinator
/// (src/shard) writes canonical checkpoints with exactly the digest a solo
/// run would.
std::string run_config_digest(const RunSettings& settings);

namespace detail {

/// The identity a checkpoint of `settings` carries (algo display name,
/// seed, sizes, run_config_digest); a resume requires it to match.
robust::CheckpointMeta checkpoint_meta(const RunSettings& settings);

/// Stores `front` in physical units, sorted by load, with every
/// front-derived metric — shared by run_impl and the sharded merge, so both
/// report the same numbers for the same population.
void set_front(RunOutcome& outcome, const moga::Population& front);

/// Island-GA parameters derived from RunSettings — the ONE place the
/// population-to-island split is computed, shared by run_impl and the
/// shard worker so both always agree on island sizing. The seed and the
/// rest of the EvolverCommon wiring are left to the caller.
sacga::IslandParams island_params_from(const RunSettings& settings);

/// The evaluation guard chain of one run over `problem`: the chaos seam's
/// fault injector (when settings.fault_injection is set), then the
/// robust::GuardedProblem every evaluation goes through, then the stuck-eval
/// watchdog's cancel token (when settings.eval_deadline_s is set), shared by
/// the engine's deadline thread (raiser), the guard and the injector
/// (pollers). Clean evaluators pass through untouched, so guarded runs are
/// bit-identical to unguarded ones. Built once by run_impl and by each shard
/// worker, so retry behaviour and fault accounting agree between them.
class GuardChain {
 public:
  GuardChain(const moga::Problem& problem, const RunSettings& settings);

  robust::GuardedProblem& problem() { return guarded_; }
  /// The engine watchdog: disabled unless a deadline is set.
  engine::EvalWatchdog watchdog();

 private:
  std::shared_ptr<robust::FaultInjectingProblem> injector_;
  robust::GuardedProblem guarded_;
  CancelToken cancel_;
  std::optional<double> deadline_s_;
};

/// The single-slice execution engine behind Job::run_slice: validates,
/// wires tracing/guard/watchdog/checkpointing and dispatches one
/// uninterrupted run of `settings` over `problem`. Everything above this —
/// lifecycle, slicing, resume chaining — lives in expt::Job. Not a public
/// entry point; call Job (or the run() shims) instead.
RunOutcome run_impl(const problems::IntegratorProblem& problem,
                    const RunSettings& settings);

}  // namespace detail

/// Compatibility shim for pre-Job call sites: validates `settings` into a
/// Job over the caller's problem and runs it to completion (rethrowing the
/// job's failure, returning an `interrupted` outcome when a stop token
/// ended it early — exactly the historical behaviour). Deterministic for
/// fixed settings. New code should construct an expt::Job directly; the
/// scheduler-grade lifecycle (preemption, resume, cancellation) is only
/// reachable there.
RunOutcome run(const problems::IntegratorProblem& problem, const RunSettings& settings);

/// Convenience form of the shim above: builds the problem from
/// settings.spec (Job::from_settings) and runs the Job to completion.
RunOutcome run(const RunSettings& settings);

}  // namespace anadex::expt
