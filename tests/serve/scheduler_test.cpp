// JobScheduler determinism matrix — the serve acceptance criterion:
// interleaved jobs sharing one hub engine and one dedup cache produce
// per-job fronts, evaluation counts and final checkpoints byte-identical
// to solo runs of the same settings, at thread counts {1, 8}, for
// {solo, 2-job, 4-job} interleavings — including a mid-slice stop drill
// that snapshots every job and resumes them all in a fresh scheduler. The
// wave matrix runs seven jobs of different lengths, one without a
// checkpoint, over hubs of {1, 2, 4, 8} threads, so waves of concurrent
// slices form, wrap around the lap and give way to single pooled slices.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "engine/eval_engine.hpp"
#include "obs/event_sink.hpp"
#include "problems/spec_suite.hpp"
#include "serve/spool.hpp"

namespace anadex::serve {
namespace {

scint::Spec easy_spec() { return problems::spec_suite().front(); }

/// The four acceptance jobs: distinct algorithms and seeds, one shared
/// spec, generation counts small enough to keep the matrix fast.
std::vector<expt::RunSettings> matrix_jobs() {
  std::vector<expt::RunSettings> jobs(4);
  for (auto& s : jobs) {
    s.spec = easy_spec();
    s.population = 16;
    s.generations = 36;
    s.partitions = 4;
    s.mesacga_schedule = {4, 2, 1};
    s.phase1_cap = 12;
    s.checkpoint_every = 12;
  }
  jobs[0].algo = expt::Algo::TPG;
  jobs[0].seed = 3;
  jobs[1].algo = expt::Algo::SACGA;
  jobs[1].seed = 5;
  jobs[2].algo = expt::Algo::SPEA2;
  jobs[2].seed = 7;
  jobs[3].algo = expt::Algo::TPG;
  jobs[3].seed = 9;
  return jobs;
}

bool same_front(const std::vector<expt::FrontSample>& a,
                const std::vector<expt::FrontSample>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(expt::FrontSample)) == 0;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string unique_path(const std::string& tag) {
  const std::string path = testing::TempDir() + "anadex_sched_" + tag + ".cp";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  return path;
}

/// Solo baseline: each job run to completion on a PRIVATE engine.
struct Baseline {
  expt::RunOutcome outcome;
  std::string checkpoint;  ///< final checkpoint file bytes
};

std::vector<Baseline> solo_baselines(std::size_t threads) {
  std::vector<Baseline> baselines;
  const auto jobs = matrix_jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expt::RunSettings settings = jobs[i];
    settings.threads = threads;
    settings.checkpoint_path =
        unique_path("solo_t" + std::to_string(threads) + "_" + std::to_string(i));
    expt::Job job = expt::Job::from_settings(settings);
    Baseline b;
    b.outcome = job.run();
    b.checkpoint = file_bytes(settings.checkpoint_path);
    baselines.push_back(std::move(b));
  }
  return baselines;
}

void expect_matches_baseline(const expt::Job& job, const Baseline& baseline,
                             const std::string& checkpoint_path,
                             const std::string& label) {
  EXPECT_EQ(job.state(), expt::JobState::Done) << label;
  EXPECT_TRUE(same_front(job.outcome().front, baseline.outcome.front)) << label;
  EXPECT_EQ(job.outcome().evaluations, baseline.outcome.evaluations) << label;
  EXPECT_EQ(job.outcome().front_area, baseline.outcome.front_area) << label;
  EXPECT_EQ(file_bytes(checkpoint_path), baseline.checkpoint)
      << label << ": final checkpoints differ";
}

TEST(JobScheduler, MatrixFrontsAndCheckpointsMatchSolo) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto baselines = solo_baselines(threads);
    const auto jobs = matrix_jobs();
    for (const std::size_t fleet : {std::size_t{2}, std::size_t{4}}) {
      engine::EvalEngine hub(threads, nullptr, /*cache_capacity=*/512);
      SchedulerConfig config;
      config.slice_generations = 10;  // off-cycle vs checkpoint_every = 12
      config.hub = &hub;
      JobScheduler scheduler(config);
      std::vector<std::string> paths;
      for (std::size_t i = 0; i < fleet; ++i) {
        expt::RunSettings settings = jobs[i];
        settings.checkpoint_path = unique_path(
            "fleet" + std::to_string(fleet) + "_t" + std::to_string(threads) +
            "_" + std::to_string(i));
        paths.push_back(settings.checkpoint_path);
        scheduler.admit("job" + std::to_string(i), std::move(settings));
      }
      EXPECT_TRUE(scheduler.run_all());
      EXPECT_EQ(scheduler.stats().done, fleet);
      EXPECT_EQ(scheduler.stats().failed, 0u);
      for (std::size_t i = 0; i < fleet; ++i) {
        expect_matches_baseline(
            scheduler.job(i), baselines[i], paths[i],
            "threads=" + std::to_string(threads) + " fleet=" +
                std::to_string(fleet) + " job=" + std::to_string(i));
      }
      // The shared cache actually served cross-batch hits; sharing is real,
      // not a disabled code path.
      EXPECT_GT(hub.stats().requested, 0u);
      EXPECT_GT(hub.busy_batches(), 0u);
    }
  }
}

TEST(JobScheduler, MidSliceStopDrillResumesAllJobs) {
  // The SIGINT drill: raise the service stop token from inside a running
  // generation, let every job snapshot, then resume the whole fleet in a
  // FRESH scheduler (new hub, ResumeMode::Auto) — as a restarted daemon
  // would — and require the solo-identical results anyway.
  const std::size_t threads = 8;
  const auto baselines = solo_baselines(threads);
  const auto jobs = matrix_jobs();
  CancelToken stop;
  std::vector<std::string> paths;

  {
    engine::EvalEngine hub(threads, nullptr, 512);
    SchedulerConfig config;
    config.slice_generations = 10;
    config.hub = &hub;
    config.stop = &stop;
    JobScheduler scheduler(config);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expt::RunSettings settings = jobs[i];
      settings.checkpoint_path = unique_path("drill_" + std::to_string(i));
      paths.push_back(settings.checkpoint_path);
      settings.stop = &stop;  // the daemon wires every job to the token
      if (i == 1) {
        // "SIGINT" lands mid-slice, between this job's budget boundaries.
        settings.on_generation = [&stop](std::size_t gen, const moga::Population&) {
          if (gen == 14) stop.request();
        };
      }
      scheduler.admit("drill" + std::to_string(i), std::move(settings));
    }
    EXPECT_FALSE(scheduler.run_all());  // interrupted, not all terminal
    EXPECT_FALSE(scheduler.all_terminal());
  }

  // Restart: new hub, new scheduler, same ids and checkpoint chains.
  stop.reset();
  engine::EvalEngine hub(threads, nullptr, 512);
  SchedulerConfig config;
  config.slice_generations = 10;
  config.hub = &hub;
  JobScheduler scheduler(config);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expt::RunSettings settings = jobs[i];
    settings.checkpoint_path = paths[i];
    settings.resume = expt::ResumeMode::Auto;  // pick up the snapshot
    scheduler.admit("drill" + std::to_string(i), std::move(settings));
  }
  EXPECT_TRUE(scheduler.run_all());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_matches_baseline(scheduler.job(i), baselines[i], paths[i],
                            "drill job=" + std::to_string(i));
  }
}

/// Six jobs of six algorithms and different lengths: as the short ones
/// finish, waves shrink and wrap around the round-robin lap.
std::vector<expt::RunSettings> wave_jobs() {
  // The weighted-sum job has no checkpoint, so it runs whole in one slice.
  const expt::Algo algos[] = {expt::Algo::TPG,       expt::Algo::SACGA,
                              expt::Algo::SPEA2,     expt::Algo::MESACGA,
                              expt::Algo::LocalOnly, expt::Algo::Island,
                              expt::Algo::WeightedSum};
  const std::size_t generations[] = {36, 22, 30, 32, 14, 40, 20};
  std::vector<expt::RunSettings> jobs(7);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expt::RunSettings& s = jobs[i];
    s.algo = algos[i];
    s.spec = easy_spec();
    s.population = 16;
    s.generations = generations[i];
    s.partitions = 4;
    s.mesacga_schedule = {4, 2, 1};
    s.phase1_cap = 12;
    s.checkpoint_every = 12;
    s.seed = 11 + i;
    s.trace_level = obs::TraceLevel::Gen;
  }
  return jobs;
}

/// Records the service's job_slice events as "job/state/slices/generations".
class SliceLog final : public obs::EventSink {
 public:
  bool enabled(obs::TraceLevel level) const override {
    return level == obs::TraceLevel::Gen;
  }
  void record(const obs::Event& event) override {
    if (event.name != "job_slice") return;
    std::string line;
    for (const obs::Field& f : event.fields) {
      line += f.kind == obs::Field::Kind::Str ? std::string(f.str) : std::to_string(f.u64);
      line += '/';
    }
    lines.push_back(line);
  }
  std::vector<std::string> lines;
};

/// What one job of a wave run leaves behind.
struct WaveJob {
  expt::RunOutcome outcome;
  std::string checkpoint;
  std::string trace;
  std::string result;  ///< the daemon's result file
};

struct WaveRun {
  std::vector<WaveJob> jobs;
  std::vector<std::string> slices;  ///< job_slice sequence
};

/// Runs `jobs` through one scheduler: over a hub of `threads` threads with
/// a 512-entry cache that overflows, or with private engines (threads 0).
WaveRun run_wave(const std::vector<expt::RunSettings>& jobs, std::size_t threads,
                 const std::string& tag) {
  engine::EvalEngine hub(std::max<std::size_t>(threads, 1), nullptr, 512);
  SliceLog log;
  SchedulerConfig config;
  config.slice_generations = 10;  // off-cycle vs checkpoint_every = 12
  config.hub = threads > 0 ? &hub : nullptr;
  config.sink = &log;
  JobScheduler scheduler(config);
  std::vector<expt::RunSettings> admitted;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expt::RunSettings settings = jobs[i];
    const std::string path = unique_path(tag + "_" + std::to_string(i));
    if (expt::algo_info(settings.algo).checkpoints) settings.checkpoint_path = path;
    settings.trace_path = path + ".trace.jsonl";
    std::filesystem::remove(settings.trace_path);
    admitted.push_back(settings);
    scheduler.admit("job" + std::to_string(i), std::move(settings));
  }
  EXPECT_TRUE(scheduler.run_all()) << tag;
  const std::filesystem::path results = testing::TempDir() + "anadex_wave_" + tag;
  std::filesystem::remove_all(results);
  std::filesystem::create_directories(results);
  WaveRun run;
  run.slices = log.lines;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const expt::Job& job = scheduler.job(i);
    EXPECT_EQ(job.state(), expt::JobState::Done) << tag << " job " << i;
    JobResult result;
    result.id = scheduler.id(i);
    result.state = expt::job_state_name(job.state());
    result.has_outcome = true;
    result.outcome = job.outcome();
    write_result_file(results, result);
    const std::string& checkpoint = admitted[i].checkpoint_path;
    run.jobs.push_back(WaveJob{job.outcome(), checkpoint.empty() ? "" : file_bytes(checkpoint),
                               file_bytes(admitted[i].trace_path),
                               file_bytes(result_path(results, result.id).string())});
  }
  return run;
}

TEST(JobScheduler, WaveMatrixMatchesSoloAndKeepsTheSliceSequence) {
  const auto jobs = wave_jobs();
  // Solo: each job alone in its own scheduler, sliced the same way.
  std::vector<WaveJob> solo;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    solo.push_back(run_wave({jobs[i]}, 0, "solo" + std::to_string(i)).jobs.front());
  }
  std::vector<std::string> sequential;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const std::string tag = "t" + std::to_string(threads);
    const WaveRun first = run_wave(jobs, threads, tag + "a");
    const WaveRun second = run_wave(jobs, threads, tag + "b");
    if (threads == 1) sequential = first.slices;
    EXPECT_EQ(first.slices, sequential) << tag;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string label = tag + " job " + std::to_string(i);
      const WaveJob& got = first.jobs[i];
      EXPECT_TRUE(same_front(got.outcome.front, solo[i].outcome.front)) << label;
      EXPECT_EQ(got.outcome.evaluations, solo[i].outcome.evaluations) << label;
      EXPECT_EQ(got.checkpoint, solo[i].checkpoint) << label;
      EXPECT_EQ(got.trace, solo[i].trace) << label;
      // The cache overflows, yet each job's hit counts — and so its whole
      // result file — are a function of the requests, threads and capacity.
      EXPECT_EQ(got.result, second.jobs[i].result) << label;
    }
  }
  // Seven jobs, slices of 10 generations: 4+3+3+4+2+4+1 slices in all.
  EXPECT_EQ(sequential.size(), 21u);
}

/// Counts the hub's batches by where they ran: on one thread, inside a
/// wave, or fanned out over the whole pool. The hub records under its own
/// lock, so concurrent batches need nothing more here.
class BatchLog final : public obs::EventSink {
 public:
  bool enabled(obs::TraceLevel) const override { return true; }
  void record(const obs::Event& event) override {
    if (event.name != "batch") return;
    for (const obs::Field& f : event.fields) {
      if (f.key == "workers") ++(f.u64 == 1 ? serial : pooled);
    }
  }
  std::size_t serial = 0;
  std::size_t pooled = 0;
};

TEST(JobScheduler, OnlyAFullWaveOfPreemptibleJobsRunsConcurrently) {
  using expt::Algo;
  struct Case {
    std::vector<Algo> algos;
    bool waves;
  };
  // Four threads: three jobs cannot fill a wave, four can, and a job
  // without a checkpoint keeps every wave it would join from forming.
  const Case cases[] = {{{Algo::TPG, Algo::TPG, Algo::TPG}, false},
                        {{Algo::TPG, Algo::TPG, Algo::TPG, Algo::TPG}, true},
                        {{Algo::TPG, Algo::TPG, Algo::TPG, Algo::WeightedSum}, false}};
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    BatchLog batches;
    engine::EvalEngine hub(4, &batches);
    SchedulerConfig config;
    config.slice_generations = 4;
    config.hub = &hub;
    JobScheduler scheduler(config);
    for (std::size_t i = 0; i < cases[c].algos.size(); ++i) {
      expt::RunSettings settings;
      settings.algo = cases[c].algos[i];
      settings.spec = easy_spec();
      settings.population = 16;
      settings.generations = 12;
      settings.seed = i + 1;
      settings.checkpoint_every = 4;
      if (expt::algo_info(settings.algo).checkpoints) {
        settings.checkpoint_path =
            unique_path("fullwave" + std::to_string(c) + "_" + std::to_string(i));
      }
      scheduler.admit("job" + std::to_string(i), std::move(settings));
    }
    EXPECT_TRUE(scheduler.run_all()) << "case " << c;
    EXPECT_GT(batches.serial + batches.pooled, 0u) << "case " << c;
    if (cases[c].waves) {
      EXPECT_EQ(batches.pooled, 0u) << "case " << c;
    } else {
      EXPECT_EQ(batches.serial, 0u) << "case " << c;
    }
  }
}

TEST(JobScheduler, RefusesAHubWithAWatchdog) {
  CancelToken token;
  engine::EvalEngine hub(2, nullptr, 64, engine::EvalWatchdog{&token, 5.0});
  SchedulerConfig config;
  config.hub = &hub;
  EXPECT_THROW(JobScheduler{config}, PreconditionError);
}

TEST(JobScheduler, AdmissionRejectsInvalidSettingsWithoutEnqueueing) {
  engine::EvalEngine hub(1, nullptr, 64);
  SchedulerConfig config;
  config.hub = &hub;
  JobScheduler scheduler(config);
  expt::RunSettings bad;
  bad.spec = easy_spec();
  bad.population = 3;  // must be even and >= 4
  EXPECT_THROW(scheduler.admit("bad", std::move(bad)), PreconditionError);
  scheduler.note_rejected();
  EXPECT_EQ(scheduler.size(), 0u);
  EXPECT_EQ(scheduler.stats().admitted, 0u);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_TRUE(scheduler.run_all());  // vacuously: nothing admitted
}

TEST(JobScheduler, SharedDeadlineIsRejectedAtAdmission) {
  // The watchdog belongs to the hub; per-job deadlines are a settings
  // error under a shared handle, reported at admission like any other.
  engine::EvalEngine hub(1, nullptr, 64);
  SchedulerConfig config;
  config.hub = &hub;
  JobScheduler scheduler(config);
  expt::RunSettings settings;
  settings.spec = easy_spec();
  settings.population = 16;
  settings.generations = 8;
  settings.eval_deadline_s = 1.0;
  EXPECT_THROW(scheduler.admit("deadline", std::move(settings)), PreconditionError);
}

TEST(JobScheduler, ContextsFollowAdmissionOrder) {
  engine::EvalEngine hub(1, nullptr, 64);
  SchedulerConfig config;
  config.hub = &hub;
  JobScheduler scheduler(config);
  for (std::size_t i = 0; i < 3; ++i) {
    expt::RunSettings settings;
    settings.spec = easy_spec();
    settings.population = 16;
    settings.generations = 8;
    settings.seed = i + 1;
    scheduler.admit("ctx" + std::to_string(i), std::move(settings));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scheduler.job(i).settings().engine.engine, &hub);
    EXPECT_EQ(scheduler.job(i).settings().engine.context, i + 1);
    EXPECT_EQ(scheduler.id(i), "ctx" + std::to_string(i));
  }
}

}  // namespace
}  // namespace anadex::serve
