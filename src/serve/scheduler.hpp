// serve::JobScheduler — fair round-robin time-slicing of many expt::Jobs
// over one shared EvalEngine.
//
// The scheduler owns an ordered list of admitted jobs and advances them one
// SLICE at a time: a slice is `slice_generations` generations of one job,
// enforced at the generation barrier through Job::run_slice — never wall
// clock, so for a fixed admission order the whole interleaving is a pure
// function of the settings and is reproducible run-to-run. Preemption
// snapshots the job into its own v2 checkpoint chain; the job's next slice
// re-admits it with ResumeMode::Auto, which replays bit-identically — so
// each job's front, evaluation count and final checkpoint are byte-identical
// to a solo run of the same settings (tests/serve/scheduler_test.cpp runs
// the {solo, 2-job, 4-job} x threads {1, 8} matrix).
//
// Sharing: when SchedulerConfig.hub is set, admit() stamps each job's
// settings with EngineHandle{hub, ordinal + 1} so every evaluation flows
// through the hub's worker pool and its context-partitioned dedup cache
// (contexts keep jobs from ever seeing each other's results — sharing is
// capacity, not data). With no hub each job builds private engines, which
// is how the solo path has always run.
//
// Waves: when at least as many preemptible jobs are runnable as the hub has
// threads, step() runs the next hub-threads of them in round-robin order as
// one WAVE — their slices run concurrently as tasks on the hub's own pool
// (EvalEngine::run_tasks, the calling thread taking one), each job's
// batches serially on its thread, so Monte Carlo pools across the whole
// batch exactly as on one thread. The bookkeeping (ServiceStats, job_slice
// events) then runs in wave order. A wave is a contiguous stretch of the
// round-robin lap, so the job_slice sequence is what one-slice-at-a-time
// scheduling gives. With fewer runnable jobs, or a job without a
// checkpoint path among the next ones, step() runs one slice on the
// calling thread and its batches fan out over the whole pool, as the
// scheduler always has — so a 1-thread hub never forms a wave. The
// scheduler serializes the jobs' on_generation and checkpoint_write_hook
// callbacks, so callers may keep unsynchronized state in them.
//
// Admit and step from one thread. Service shutdown is the `stop` token:
// run_all() returns between waves when it is raised, and each job in the
// current wave stops at its next generation barrier (the daemon wires the
// token into every job's settings.stop), leaving it Snapshotted for the
// next daemon start to resume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "engine/eval_engine.hpp"
#include "expt/job.hpp"
#include "obs/event_sink.hpp"

namespace anadex::serve {

struct SchedulerConfig {
  /// Generations each job runs per slice (the fairness quantum). Must be
  /// >= 1. Non-preemptible jobs (no checkpoint path) ignore it and run to
  /// completion in their single slice.
  std::size_t slice_generations = 25;
  /// Shared evaluation hub (engine::EvalEngine in hub mode), or nullptr for
  /// private per-job engines. Non-owning; must outlive the scheduler. Its
  /// thread count is the wave width. A hub with a watchdog is refused: its
  /// one deadline cannot time the concurrent batches of a wave.
  engine::EvalEngine* hub = nullptr;
  /// Service shutdown token (non-owning). Checked between waves by
  /// run_all(); a raised token stops scheduling after the current wave,
  /// whose jobs each stop at their next generation barrier (Job wires the
  /// same token into every slice via settings.stop).
  const CancelToken* stop = nullptr;
  /// Service-level telemetry (job_admitted / job_slice events); may be null.
  obs::EventSink* sink = nullptr;
};

/// Service-level counters, exported into the daemon's stats snapshot.
struct ServiceStats {
  std::uint64_t admitted = 0;    ///< jobs that passed admission
  std::uint64_t rejected = 0;    ///< requests refused at admission/parse
  std::uint64_t slices = 0;      ///< run_slice calls issued
  std::uint64_t preemptions = 0; ///< slices that ended Snapshotted
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerConfig config);

  /// Admits a job: stamps the settings with the shared-engine handle
  /// (context = admission ordinal + 1) and validates them through
  /// Job::from_settings. Throws PreconditionError on invalid settings —
  /// the caller reports the rejection (and calls note_rejected()); nothing
  /// is enqueued. Returns the job's slot index. Admission order defines
  /// both cache-context assignment and round-robin order, so a fixed
  /// request sequence yields a fully deterministic schedule.
  std::size_t admit(std::string id, expt::RunSettings settings);

  /// Records a request that failed parse/admission (stats only).
  void note_rejected() { ++stats_.rejected; }

  /// Runs one wave: a slice of each of the next hub-threads runnable jobs in
  /// round-robin order when they are that many and all preemptible, else a
  /// slice of the next runnable job alone (always so without a hub). Returns
  /// false when no job is runnable (all terminal, stuck, or none admitted)
  /// — it does NOT consult the stop token; run_all() owns that.
  bool step();

  /// Runs waves until no job is runnable or the stop token is raised.
  /// Returns true when every admitted job reached a terminal state
  /// (Done / Failed / Cancelled).
  bool run_all();

  std::size_t size() const { return slots_.size(); }
  const std::string& id(std::size_t slot) const { return slots_[slot].id; }
  expt::Job& job(std::size_t slot) { return slots_[slot].job; }
  const expt::Job& job(std::size_t slot) const { return slots_[slot].job; }

  bool all_terminal() const;
  const ServiceStats& stats() const { return stats_; }

 private:
  /// Books one finished slice: stats and the job_slice event.
  void record_slice(std::size_t slot, expt::JobState state);

  struct Slot {
    std::string id;
    expt::Job job;
  };

  SchedulerConfig config_;
  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;  ///< next slot considered by step()
  ServiceStats stats_;
  /// Held while any job's on_generation or checkpoint_write_hook runs.
  /// Shared with the wrappers admit() installs, which outlive moves.
  std::shared_ptr<std::mutex> callback_mu_ = std::make_shared<std::mutex>();
};

}  // namespace anadex::serve
