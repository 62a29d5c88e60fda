#include "serve/scheduler.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace anadex::serve {

namespace {

bool terminal(expt::JobState state) {
  return state == expt::JobState::Done || state == expt::JobState::Failed ||
         state == expt::JobState::Cancelled;
}

}  // namespace

JobScheduler::JobScheduler(SchedulerConfig config) : config_(config) {
  ANADEX_REQUIRE(config_.slice_generations >= 1,
                 "scheduler: slice_generations must be >= 1");
  if (config_.hub != nullptr) {
    ANADEX_REQUIRE(config_.hub->is_hub(),
                   "scheduler: the shared engine must be a hub "
                   "(problem-less EvalEngine)");
    ANADEX_REQUIRE(!config_.hub->watchdog().enabled(),
                   "scheduler: a hub watchdog times one in-flight batch, and a "
                   "wave runs one batch per job at once");
  }
}

std::size_t JobScheduler::admit(std::string id, expt::RunSettings settings) {
  if (config_.hub != nullptr) {
    // Context 0 is reserved for private engines; admission ordinals start
    // at 1 so two jobs can never share cache entries.
    settings.engine.engine = config_.hub;
    settings.engine.context = static_cast<std::uint64_t>(slots_.size()) + 1;
    // The shared pool decides parallelism; the per-run thread knob only
    // matters for private engines (and EngineLease ignores it when shared).
  }
  // Jobs of one wave run concurrently, but their callbacks never do.
  if (settings.on_generation) {
    settings.on_generation = [mu = callback_mu_, inner = std::move(settings.on_generation)](
                                 std::size_t gen, const moga::Population& population) {
      const std::lock_guard<std::mutex> lock(*mu);
      inner(gen, population);
    };
  }
  if (settings.checkpoint_write_hook) {
    settings.checkpoint_write_hook =
        [mu = callback_mu_, inner = std::move(settings.checkpoint_write_hook)](
            robust::CheckpointWritePhase phase, const std::string& path) {
          const std::lock_guard<std::mutex> lock(*mu);
          inner(phase, path);
        };
  }
  // Throws PreconditionError on invalid settings; nothing is enqueued.
  expt::Job job = expt::Job::from_settings(std::move(settings));
  const std::size_t slot = slots_.size();
  slots_.push_back(Slot{std::move(id), std::move(job)});
  ++stats_.admitted;
  if (config_.sink != nullptr && config_.sink->enabled(obs::TraceLevel::Gen)) {
    const std::array<obs::Field, 3> fields = {
        obs::str("job", slots_[slot].id),
        obs::u64("slot", slot),
        obs::u64("context", slots_[slot].job.settings().engine.context),
    };
    config_.sink->record(obs::Event{"job_admitted", obs::TraceLevel::Gen,
                                    /*timed=*/false, fields});
  }
  return slot;
}

void JobScheduler::record_slice(std::size_t slot, expt::JobState state) {
  const expt::Job& job = slots_[slot].job;
  ++stats_.slices;
  switch (state) {
    case expt::JobState::Snapshotted:
      ++stats_.preemptions;
      break;
    case expt::JobState::Done:
      ++stats_.done;
      break;
    case expt::JobState::Failed:
      ++stats_.failed;
      break;
    case expt::JobState::Cancelled:
      ++stats_.cancelled;
      break;
    case expt::JobState::Pending:
    case expt::JobState::Running:
      ANADEX_ASSERT(false, "scheduler: run_slice returned a non-final state");
      break;
  }
  if (config_.sink != nullptr && config_.sink->enabled(obs::TraceLevel::Gen)) {
    const std::string state_name = expt::job_state_name(state);
    const std::array<obs::Field, 4> fields = {
        obs::str("job", slots_[slot].id),
        obs::str("state", state_name),
        obs::u64("slices", job.slices_run()),
        obs::u64("generations", job.generations_done()),
    };
    config_.sink->record(obs::Event{"job_slice", obs::TraceLevel::Gen,
                                    /*timed=*/false, fields});
  }
}

bool JobScheduler::step() {
  // The wave: the next runnable jobs of one lap from the cursor, one per
  // hub worker. Only a full wave of preemptible jobs runs its slices at
  // once. Otherwise the first job runs alone and its batches fan out over
  // the whole pool: a narrower wave would leave workers idle, and a job
  // without a checkpoint runs whole in its one slice, holding the other
  // workers until it ends.
  const std::size_t width = config_.hub != nullptr ? config_.hub->threads() : 1;
  std::vector<std::size_t> wave;
  for (std::size_t i = 0; i < slots_.size() && wave.size() < width; ++i) {
    const std::size_t slot = (cursor_ + i) % slots_.size();
    if (slots_[slot].job.runnable()) wave.push_back(slot);
  }
  if (wave.empty()) return false;
  const bool full = wave.size() == width &&
                    std::all_of(wave.begin(), wave.end(), [&](std::size_t slot) {
                      return slots_[slot].job.preemptible();
                    });
  if (!full) wave.resize(1);

  std::vector<expt::JobState> states(wave.size());
  const auto run = [&](std::size_t k) {
    states[k] = slots_[wave[k]].job.run_slice(config_.slice_generations);
  };
  if (config_.hub != nullptr) {
    config_.hub->run_tasks(wave.size(), run);
  } else {
    run(0);
  }
  for (std::size_t k = 0; k < wave.size(); ++k) record_slice(wave[k], states[k]);
  cursor_ = (wave.back() + 1) % slots_.size();
  return true;
}

bool JobScheduler::run_all() {
  for (;;) {
    if (config_.stop != nullptr && config_.stop->requested()) break;
    if (!step()) break;
  }
  return all_terminal();
}

bool JobScheduler::all_terminal() const {
  for (const Slot& slot : slots_) {
    if (!terminal(slot.job.state())) return false;
  }
  return true;
}

}  // namespace anadex::serve
