#include "expt/job.hpp"

#include <utility>

#include "common/check.hpp"

namespace anadex::expt {

std::string job_state_name(JobState state) {
  switch (state) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Snapshotted: return "snapshotted";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  ANADEX_ASSERT(false, "unknown job state");
  return {};
}

Job::Job(const problems::IntegratorProblem& problem, RunSettings settings)
    : problem_(std::shared_ptr<void>(), &problem),
      settings_(std::move(settings)),
      slice_stop_(std::make_unique<CancelToken>()) {
  validate_run_settings(settings_);
  // A Job is one process's run; the multi-process path has its own
  // coordinator. Reject at admission so `--shards` can never be silently
  // ignored by a code path that only knows how to run solo.
  ANADEX_REQUIRE(settings_.shards <= 1,
                 "Job: sharded runs (shards > 1) are executed by "
                 "shard::run_sharded (anadex explore --shards), not by an "
                 "in-process Job");
}

Job Job::from_settings(RunSettings settings) {
  // Validate BEFORE building the problem: admission must reject bad
  // settings without doing any work on their behalf.
  validate_run_settings(settings);
  auto problem = std::make_shared<const problems::IntegratorProblem>(settings.spec);
  Job job(*problem, std::move(settings));
  job.problem_ = std::move(problem);  // transfer ownership into the job
  return job;
}

void Job::cancel() {
  switch (state_) {
    case JobState::Pending:
    case JobState::Snapshotted:
      state_ = JobState::Cancelled;
      [[fallthrough]];
    case JobState::Running:
      cancel_requested_ = true;
      return;
    case JobState::Done:
    case JobState::Failed:
    case JobState::Cancelled:
      return;  // terminal; nothing to cancel
  }
}

JobState Job::run_slice(std::size_t budget) {
  ANADEX_REQUIRE(state_ == JobState::Pending || state_ == JobState::Snapshotted,
                 "Job::run_slice: job is " + job_state_name(state_) +
                     ", not runnable");
  if (state_ == JobState::Snapshotted) {
    ANADEX_REQUIRE(resumable_,
                   "Job::run_slice: the previous slice stopped without a "
                   "checkpoint path, so nothing was saved to resume from");
  }

  state_ = JobState::Running;
  RunSettings slice = settings_;
  if (slices_run_ > 0) {
    // Re-admission: pick up the newest valid slot of this job's own
    // checkpoint chain and extend the trace with a fresh segment.
    slice.resume = ResumeMode::Auto;
    slice.trace_append = true;
  }

  // The slice's stop wiring. The evolvers poll `stop` at the generation
  // barrier (engine::EvolverCommon::barrier) immediately after
  // on_generation, so raising the slice token
  // inside the chained callback preempts exactly at the barrier the budget
  // names — deterministically, with no wall clock involved. The caller's
  // own stop token and a pending cancel() route through the same seam;
  // when either is already up, the slice token starts raised, so the
  // evolvers see exactly what a token passed to them directly shows.
  slice_stop_->reset();
  CancelToken* slice_stop = slice_stop_.get();
  const CancelToken* user_stop = settings_.stop;
  const bool* cancelled = &cancel_requested_;
  if ((user_stop != nullptr && user_stop->requested()) || *cancelled) {
    slice_stop->request();
  }
  // Budget enforcement needs a checkpoint to hand the rest of the work to
  // the next slice; non-preemptible jobs run to completion instead.
  const std::size_t effective_budget = preemptible() ? budget : 0;
  std::size_t slice_generations = 0;
  moga::GenerationCallback user_callback = settings_.on_generation;
  slice.on_generation = [=, &slice_generations](std::size_t gen,
                                                const moga::Population& population) {
    if (user_callback) user_callback(gen, population);
    ++slice_generations;
    if ((effective_budget > 0 && slice_generations >= effective_budget) ||
        (user_stop != nullptr && user_stop->requested()) || *cancelled) {
      slice_stop->request();
    }
  };
  slice.stop = slice_stop;

  ++slices_run_;
  try {
    outcome_ = detail::run_impl(*problem_, slice);
  } catch (...) {
    error_ptr_ = std::current_exception();
    try {
      std::rethrow_exception(error_ptr_);
    } catch (const std::exception& e) {
      error_ = e.what();
    } catch (...) {
      error_ = "unknown error";
    }
    state_ = JobState::Failed;
    return state_;
  }

  if (!outcome_.interrupted) {
    state_ = JobState::Done;
  } else if (cancel_requested_) {
    state_ = JobState::Cancelled;
  } else {
    state_ = JobState::Snapshotted;
    resumable_ = preemptible();
  }
  return state_;
}

RunOutcome Job::run() {
  run_slice(0);
  if (state_ == JobState::Failed) std::rethrow_exception(error_ptr_);
  return outcome_;
}

}  // namespace anadex::expt
