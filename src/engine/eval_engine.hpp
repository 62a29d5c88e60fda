// EvalEngine — the batch evaluation seam between the evolvers and a
// Problem, with an optional fixed-size worker pool behind it.
//
// Every algorithm in the library evaluates offspring through one of these
// per run: it collects a generation's genomes into a single
// evaluate_batch() call instead of looping Problem::evaluate(), which is
// the API future scaling work (sharding, async islands, remote evaluators,
// surrogate caching) plugs into.
//
// Determinism contract: results are written by ITEM INDEX, never by
// completion order, and a Problem must be deterministic per genome, so a
// batch produces bit-identical Evaluations for every thread count —
// threads = 1 (serial, the pre-engine path), threads = N, and threads = 0
// (one worker per hardware thread) all agree. If items throw, the
// exception of the lowest-index faulting item is rethrown once the batch
// has been fully attempted, again independent of scheduling. See
// docs/engine.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "engine/eval_cache.hpp"
#include "engine/simd/lane_evaluator.hpp"
#include "moga/individual.hpp"
#include "moga/problem.hpp"
#include "obs/event_sink.hpp"

namespace anadex::engine {

/// One candidate genome, as submitted for evaluation.
using Genome = std::vector<double>;

/// Anything that can evaluate a batch of genomes into a parallel span of
/// results. EvalEngine is the in-process implementation; remote or
/// surrogate-backed evaluators implement the same interface.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Fills out[i] with the evaluation of genomes[i]. Spans must be the
  /// same size. Implementations must be deterministic: the result for a
  /// genome may not depend on the other batch members or on scheduling.
  virtual void evaluate_batch(std::span<const Genome> genomes,
                              std::span<moga::Evaluation> out) const = 0;
};

/// Stuck-evaluation watchdog configuration for an EvalEngine. When enabled,
/// a dedicated watchdog thread arms a wall-clock deadline around every batch
/// and raises `token` if the batch outlives it. Cooperative evaluators (and
/// GuardedProblem, which fail-fast-penalizes once the token is up) then
/// drain the rest of the batch in microseconds, returning control to the
/// generation barrier where the run can snapshot.
///
/// This is a pure EXECUTION knob, like `threads` and `eval_cache`: it is
/// excluded from the checkpoint config digest, and when the deadline never
/// fires, results are bit-identical with the watchdog on or off. When it
/// DOES fire, which items get penalized depends on wall-clock scheduling —
/// a fired watchdog trades determinism for liveness, and the run's fault
/// report says so (`timeouts` counter, `fault` trace event).
struct EvalWatchdog {
  /// Raised (non-owning) when a batch exceeds the deadline; reset by the
  /// engine once that batch has drained. Must outlive the engine.
  CancelToken* token = nullptr;
  /// Per-batch wall-clock budget. A null `token` disables the watchdog;
  /// with a token set, the engine requires this to be finite and positive.
  double deadline_s = 0.0;

  bool enabled() const { return token != nullptr && deadline_s > 0.0; }
};

/// Batch evaluator over a moga::Problem with an owned fixed-size worker
/// pool. The problem must be safe to evaluate from several threads
/// concurrently (the library's problems are stateless; GuardedProblem
/// synchronizes its fault accounting internally).
///
/// An engine is either BOUND (constructed over one problem — the classic
/// per-run shape) or a HUB (constructed without a problem): a hub serves
/// many clients through evaluate_members_as(), each naming its own problem
/// and a cache `context` word per batch, so `anadex serve` can multiplex
/// every job over one worker pool and one dedup cache.
///
/// Threading: one caller at a time submits top-level work — a batch or a
/// run_tasks() call — and the pool serves it. Tasks started by run_tasks()
/// may themselves submit batches concurrently; each such batch runs
/// serially on the worker that runs its task. Every batch owns its state
/// (a frame on the submitting thread's stack), and the engine-wide
/// counters, the trace sink and the cache are synchronized.
class EvalEngine final : public Evaluator {
 public:
  /// `threads`: 1 = serial on the calling thread (no pool is spawned),
  /// 0 = one worker per hardware thread, N = exactly N workers.
  /// `sink` (non-owning, may be nullptr): when enabled at TraceLevel::Eval,
  /// every batch records a timed "batch" event — size, submit-to-done wall
  /// time, queue wait, per-item latency min/mean/max and worker utilization
  /// — and destruction records an "eval_engine" totals event. Tracing never
  /// changes results; with no sink the hot path pays one pointer test.
  /// `cache_capacity`: 0 (default) disables memoization entirely — the
  /// exact pre-cache code path. N > 0 enables duplicate elimination: each
  /// distinct genome in a batch is dispatched once and the result fanned
  /// out to its clones by item index, plus a cross-batch LRU retaining the
  /// last N distinct evaluations. Because a Problem is a pure function of
  /// the genome, every result is bit-identical with the cache on or off
  /// (see docs/performance.md).
  /// `watchdog`: stuck-evaluation deadline; disabled by default (no thread
  /// is spawned and batches pay nothing).
  explicit EvalEngine(const moga::Problem& problem, std::size_t threads = 1,
                      obs::EventSink* sink = nullptr, std::size_t cache_capacity = 0,
                      EvalWatchdog watchdog = {});

  /// Hub form: no bound problem. Every batch must arrive through
  /// evaluate_members_as(), which names the problem to evaluate and the
  /// cache context that keeps different clients' designs from aliasing.
  /// The problem-bound entry points (evaluate_batch / evaluate_members /
  /// evaluate / problem()) are preconditions-violations on a hub.
  explicit EvalEngine(std::size_t threads, obs::EventSink* sink = nullptr,
                      std::size_t cache_capacity = 0, EvalWatchdog watchdog = {});

  ~EvalEngine() override;

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// True when constructed without a bound problem (the shared-hub form).
  bool is_hub() const { return problem_ == nullptr; }

  const moga::Problem& problem() const;

  /// Effective worker count (after resolving 0 to the hardware).
  std::size_t threads() const { return threads_; }

  /// LRU entry capacity the engine was built with (0 = memoization off).
  std::size_t cache_capacity() const { return cache_ ? cache_->capacity() : 0; }

  /// The watchdog configuration the engine was built with.
  const EvalWatchdog& watchdog() const { return watchdog_; }

  /// Selects how batches are mapped onto a LaneEvaluator-capable problem.
  /// A pure EXECUTION knob like `threads` and the cache: excluded from the
  /// checkpoint config digest, and results are bit-identical across all
  /// three modes (the SIMD path is the scalar model transliterated, see
  /// docs/performance.md). Scalar (default) never uses lanes; Simd groups
  /// every batch into lanes whenever the problem supports them; Auto uses
  /// lanes only when a batch has at least one full lane group. Problems
  /// without lane support always run scalar, in every mode. Call between
  /// batches only (not concurrently with an in-flight batch).
  void set_batch_eval(BatchEval mode) { batch_eval_ = mode; }
  BatchEval batch_eval() const { return batch_eval_; }

  /// Lane-path accounting across the engine's lifetime: evaluate_lanes()
  /// calls (a serial batch makes one, a pooled batch one per claimed group
  /// of preferred_lane_width() items), items inside those calls, and calls
  /// that threw and were re-run item-by-item on the scalar path.
  std::uint64_t lane_groups() const { return lane_groups_.load(std::memory_order_relaxed); }
  std::uint64_t lane_items() const { return lane_items_.load(std::memory_order_relaxed); }
  std::uint64_t lane_fallbacks() const { return lane_fallbacks_.load(std::memory_order_relaxed); }

  /// Number of batches whose deadline expired (watchdog enabled only).
  std::size_t watchdog_fires() const { return watchdog_fires_; }

  /// Cumulative requested/distinct/cache-hit accounting across the
  /// engine's lifetime. `requested` always counts submitted items, so the
  /// paper's evaluation-budget figures stay honest whether or not the
  /// cache absorbed any of them. On a hub this aggregates every client.
  EvalStats stats() const;

  /// Batches dispatched over the engine's lifetime (serial and pooled).
  std::uint64_t busy_batches() const;

  /// Wall-clock seconds spent inside batch dispatch, summed over the
  /// engine's batches. Batches submitted by concurrent tasks each count,
  /// so the sum may exceed elapsed time. Measurement only; it never feeds
  /// back into results.
  double busy_seconds() const;

  void evaluate_batch(std::span<const Genome> genomes,
                      std::span<moga::Evaluation> out) const override;

  /// Batch-evaluates `members[i].genes` into `members[i].eval` — the shape
  /// every evolver's generation loop needs.
  void evaluate_members(std::span<moga::Individual> members) const;

  /// The multi-client form of evaluate_members: evaluates `members` under
  /// `problem`, filing cache entries under `context` so two clients with
  /// different problems can never alias identical genes. When `client` is
  /// non-null the batch's requested/evaluated/hit deltas are accumulated
  /// into it as well as the engine totals. Works on bound engines too
  /// (EngineLease routes both modes through here).
  void evaluate_members_as(const moga::Problem& problem, std::uint64_t context,
                           std::span<moga::Individual> members,
                           EvalStats* client = nullptr) const;

  /// Runs task(0) .. task(n - 1) as one unit of pool work under the batch
  /// contract: every index runs exactly once, and once all have finished
  /// the exception of the lowest-index task that threw is rethrown. A
  /// single task, an engine without a pool, or a call from inside a task
  /// runs the tasks on the calling thread in index order. Otherwise the
  /// calling thread and the pool workers claim tasks one at a time, and a
  /// batch submitted from inside a task runs serially on its thread — with
  /// lanes engaged, as ONE evaluate_lanes() call, as on a 1-thread engine.
  ///
  /// While tasks run concurrently the shared cache is frozen: each client
  /// context reads the LRU without refreshing it and stages what it would
  /// have inserted or refreshed, seeing its own staged entries (at most the
  /// cache's capacity of them). When the last task has finished, the staged
  /// entries enter the LRU in ascending context order, so every client's
  /// hit counts are a function of the submitted work alone, never of timing. Concurrent tasks must
  /// therefore submit under distinct contexts. The watchdog tracks one
  /// in-flight batch, so tasks that submit batches need an engine without
  /// one (serve::JobScheduler refuses a hub that has one).
  void run_tasks(std::size_t n, const std::function<void(std::size_t)>& task) const;

  /// The single-item path: a checked evaluation of one genome, identical
  /// to Problem::evaluated(). One-off call sites (CLIs, archives, tests)
  /// route through here so the engine is the only evaluation entry point.
  moga::Evaluation evaluate(std::span<const double> genes) const;

  /// Maps the user-facing `threads` knob to a worker count:
  /// 0 -> hardware_concurrency (at least 1), otherwise unchanged.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  using Clock = std::chrono::steady_clock;

  /// One unit of batch work: a genome to evaluate and where the result goes.
  struct Item {
    const Genome* genes = nullptr;
    moga::Evaluation* out = nullptr;
  };

  /// The state of ONE batch (or one run_tasks call), owned by the call that
  /// submits it and living on its stack. Workers reach it only through
  /// `current_`, joined under `mu_`, so a worker that wakes late for a
  /// retired frame never touches the next one.
  struct Frame {
    // What runs: `count` evaluation items, or `count` tasks when `task` is set.
    const Item* items = nullptr;
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    const moga::Problem* problem = nullptr;
    /// Lane evaluator of this batch (null = scalar) and the group width
    /// workers claim by (1 for scalar batches and tasks).
    const LaneEvaluator* lanes = nullptr;
    std::size_t width = 1;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::size_t first_error_index = 0;
    // Timing (eval-level tracing only): per-item slots, each written by the
    // one worker that claimed the item and read after the batch barrier.
    bool timing = false;
    Clock::time_point submit;
    std::vector<double> start_s;  ///< per-item start, s after submit
    std::vector<double> dur_s;    ///< per-item evaluate duration, s
    std::uint64_t requested = 0;   ///< items submitted (before dedup)
    std::uint64_t cache_hits = 0;  ///< LRU hits of this batch

    /// Keeps the exception of the lowest-index failure.
    void record_error(std::size_t index);
  };

  /// The cache layer: dedups `items`, dispatches the distinct misses
  /// through run_batch under `problem` and fans results out by item index.
  /// With the cache disabled this forwards straight to run_batch. Cache
  /// keys are salted with `context`; `client` (optional) receives the
  /// batch's stats deltas alongside the engine totals.
  void submit(const moga::Problem& problem, std::uint64_t context,
              std::span<const Item> items, EvalStats* client) const;
  /// Cache access through `stage` while tasks run concurrently, straight
  /// to the LRU otherwise (stage == nullptr).
  bool cache_lookup(EvalCache::Stage* stage, const Genome& genes, std::uint64_t hash,
                    moga::Evaluation& out, std::uint64_t context) const;
  void cache_store(EvalCache::Stage* stage, const Genome& genes, std::uint64_t hash,
                   const moga::Evaluation& eval, std::uint64_t context) const;
  /// Evaluates `items` under `problem`; `requested`/`cache_hits` only feed
  /// the batch trace event.
  void run_batch(const moga::Problem& problem, std::span<const Item> items,
                 std::uint64_t requested, std::uint64_t cache_hits) const;
  /// Publishes `frame` to the pool and waits until every slot completed;
  /// for a task frame the caller claims tasks as well.
  void dispatch(Frame& frame) const;
  /// Claims and runs slots of `frame` on this thread until none is left.
  void claim_slots(Frame& frame) const;
  /// Runs the `count` slots of `frame` starting at `start` on this thread.
  void run_slots(Frame& frame, std::size_t start, std::size_t count) const;
  /// Starts the per-batch deadline clock (watchdog enabled only).
  void arm_watchdog() const;
  /// Stops the clock; if the deadline fired, clears the token (the batch
  /// has drained — the next batch starts with a clean slate) and counts
  /// the fire. Returns whether it fired.
  bool disarm_watchdog() const;
  void watchdog_loop();
  /// Evaluates frame.items[index], recording the lowest-index exception.
  void process_item(Frame& frame, std::size_t index) const;
  /// Evaluates the `count` items starting at frame.items[start]: through
  /// the batch's LaneEvaluator when one is active (falling back to per-item
  /// scalar evaluation if the call throws), item-by-item otherwise. A
  /// serial batch passes all of its items, pool workers one claimed group.
  void process_group(Frame& frame, std::size_t start, std::size_t count) const;
  void worker_loop();
  /// Folds the per-item clocks of the finished batch into one timed
  /// "batch" event (eval level only).
  void emit_batch_event(const Frame& frame, double wall_seconds,
                        std::size_t workers_used) const;

  const moga::Problem* problem_ = nullptr;  ///< null on a hub engine
  std::size_t threads_ = 1;
  obs::EventSink* sink_ = nullptr;

  // Memoization (null when cache_capacity == 0). EvalCache locks itself;
  // `staging_` is set only while run_tasks() runs tasks concurrently, and
  // is written before their frame is published and cleared after it is
  // retired, so tasks read it race-free.
  mutable std::unique_ptr<EvalCache> cache_;
  mutable bool staging_ = false;
  mutable std::mutex stage_mu_;  ///< guards the map; each Stage has one client
  mutable std::map<std::uint64_t, EvalCache::Stage> stages_;  ///< by context

  // Lifetime counters, written by every batch (concurrent tasks included).
  mutable std::mutex stats_mu_;
  mutable EvalStats stats_;
  mutable std::uint64_t busy_batches_ = 0;
  mutable double busy_seconds_ = 0.0;

  // Pool hand-off. The caller publishes a frame under `mu_` and waits on
  // `batch_done_`; workers claim slots via the frame's atomic cursor and
  // write results by index. `current_` changes only under `mu_` and only
  // while every worker is idle (active_ == 0); null means nothing is
  // published (a serial batch publishes nothing). A worker snapshots the
  // frame and joins it (++active_) in one critical section, so a late
  // wake-up can never join a retired frame.
  mutable std::mutex mu_;
  mutable std::condition_variable work_ready_;
  mutable std::condition_variable batch_done_;
  mutable Frame* current_ = nullptr;
  mutable std::size_t active_ = 0;        ///< workers inside the current frame
  mutable std::uint64_t batch_seq_ = 0;   ///< bumped per published frame
  BatchEval batch_eval_ = BatchEval::Scalar;
  mutable std::atomic<std::uint64_t> lane_groups_{0};
  mutable std::atomic<std::uint64_t> lane_items_{0};
  mutable std::atomic<std::uint64_t> lane_fallbacks_{0};
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Watchdog state. The batch thread arms/disarms under `watch_mu_`; the
  // watchdog thread waits on `watch_cv_` until armed, then until the
  // deadline or a disarm. Firing is just token->request() — async-safe,
  // lock-free for the workers, observed cooperatively by the evaluator.
  EvalWatchdog watchdog_;
  mutable std::mutex watch_mu_;
  mutable std::condition_variable watch_cv_;
  mutable Clock::time_point watch_deadline_;
  mutable bool watch_armed_ = false;
  mutable bool watch_fired_ = false;
  bool watch_stop_ = false;
  mutable std::size_t watchdog_fires_ = 0;
  std::thread watchdog_thread_;

  // Trace sink access and its totals; the sink itself need not be
  // thread-safe, so every record() holds `sink_mu_`.
  mutable std::mutex sink_mu_;
  mutable std::uint64_t trace_batches_ = 0;
  mutable std::uint64_t trace_items_ = 0;
};

}  // namespace anadex::engine
