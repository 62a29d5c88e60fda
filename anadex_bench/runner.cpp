// anadex_bench_runner — executes ONE benchmark operation per process and
// prints its result as one JSON object on the last line of stdout. run.py
// drives it; see README.md for the workloads and metrics.
//
//   anadex_bench_runner run   --workload W --seed S --work DIR [--worker BIN]
//       One timed, untraced run of the workload: wall/CPU/RSS and a digest
//       of every front it produced.
//   anadex_bench_runner probe --workload W --seed S --work DIR [--worker BIN]
//       One set-up probe: the workload cut at its first generation barrier.
//   anadex_bench_runner ref   --workload W --seed S [--jobs A:B]
//       The reference fronts: the same inputs through the scalar oracle on
//       one thread, with no cache, hub, shards, slicing or checkpoints.
//   anadex_bench_runner trace --workload W --seed S --work DIR --seconds T
//                             [--worker BIN]
//       Alternates untraced and traced runs for T seconds, then replays the
//       harvested populations through the layer entry points and prints the
//       per-layer metrics. Every span is taken here, around calls into the
//       library's public functions; nothing inside the program is timed.
//   anadex_bench_runner env
//       Environment stamp: CPUs, compiler, build flags, lane path.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "common/cancel.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "engine/eval_engine.hpp"
#include "expt/figures.hpp"
#include "expt/job.hpp"
#include "expt/runner.hpp"
#include "moga/nds.hpp"
#include "moga/operators.hpp"
#include "moga/selection.hpp"
#include "obs/event_sink.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "robust/checkpoint.hpp"
#include "serve/job_request.hpp"
#include "serve/scheduler.hpp"
#include "serve/spool.hpp"
#include "shard/coordinator.hpp"

namespace {

using namespace anadex;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Workload { Paper, IslandThreads, IslandShards, Serve };

Workload parse_workload(const std::string& name) {
  if (name == "mesacga-paper") return Workload::Paper;
  if (name == "island-threads4") return Workload::IslandThreads;
  if (name == "island-shards4") return Workload::IslandShards;
  if (name == "serve-screen") return Workload::Serve;
  throw std::runtime_error("unknown workload '" + name + "'");
}

constexpr std::size_t kServeJobs = 20;
constexpr std::size_t kServeSlice = 4;
constexpr std::size_t kWorkers = 4;  // threads or shards: the workloads are sized for 4 CPUs
constexpr std::size_t kSpecIndex = 10;

scint::Spec spec_number(std::size_t number) { return problems::spec_suite()[number - 1]; }

// MESACGA at the paper's scale on one thread: evaluation-bound, MC-heavy.
expt::RunSettings paper_settings(std::uint64_t seed) {
  expt::RunSettings s;
  s.algo = expt::Algo::MESACGA;
  s.spec = spec_number(kSpecIndex);
  s.population = 200;
  s.generations = 140;
  s.seed = seed;
  s.threads = 1;
  s.batch_eval = engine::BatchEval::Simd;
  return s;
}

// The island GA on four engine threads; island-shards4 splits the same input
// across four worker processes instead.
expt::RunSettings island_settings(std::uint64_t seed) {
  expt::RunSettings s;
  s.algo = expt::Algo::Island;
  s.spec = spec_number(kSpecIndex);
  s.islands = 8;
  s.population = 200;
  s.generations = 150;
  s.seed = seed;
  s.threads = kWorkers;
  s.batch_eval = engine::BatchEval::Simd;
  return s;
}

expt::RunSettings shard_settings(std::uint64_t seed, const fs::path& spool) {
  expt::RunSettings s = island_settings(seed);
  s.threads = 1;
  s.shards = kWorkers;
  s.shard_dir = spool.string();
  return s;
}

shard::ShardOptions shard_options(const std::string& worker) {
  shard::ShardOptions options;
  options.mode = shard::LaunchMode::Processes;
  options.worker_binary = worker;
  options.spec_arg = std::to_string(kSpecIndex);
  return options;
}

// One job request line of the serve-screen spool: spec i, algorithms
// rotating TPG / SACGA / MESACGA, a short screening budget.
std::string serve_job_id(std::size_t i) {
  char id[8];
  std::snprintf(id, sizeof id, "j%02zu", i);
  return id;
}

std::string serve_request(std::size_t i, std::uint64_t seed) {
  static const std::array<const char*, 3> algos = {"tpg", "sacga", "mesacga"};
  std::ostringstream line;
  line << "{\"id\":\"" << serve_job_id(i) << "\",\"algo\":\"" << algos[(i - 1) % 3]
       << "\",\"spec\":" << i << ",\"population\":100,\"generations\":24,\"seed\":"
       << seed * 100 + i << "}";
  return line.str();
}

// ---------------------------------------------------------------------------
// Output records

struct FrontRecord {
  std::string id;
  std::string state = "done";
  std::string digest;
  std::size_t evals = 0;
  double front_area = 0.0;
};

FrontRecord front_record(std::string id, const expt::RunOutcome& outcome) {
  std::vector<double> flat;
  flat.reserve(2 * outcome.front.size());
  for (const auto& sample : outcome.front) {
    flat.push_back(sample.power_w);
    flat.push_back(sample.cload_f);
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(hash_genes(flat, outcome.evaluations)));
  FrontRecord r;
  r.id = std::move(id);
  r.digest = digest;
  r.evals = outcome.evaluations;
  r.front_area = outcome.front_area;
  return r;
}

/// Minimal JSON object writer; doubles keep all 17 significant digits.
class Json {
 public:
  Json& num(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string fronts_json(const std::vector<FrontRecord>& fronts) {
  std::string out = "[";
  for (const auto& f : fronts) {
    if (out.size() > 1) out += ",";
    out += Json()
               .str("id", f.id)
               .str("state", f.state)
               .str("digest", f.digest)
               .num("evals", static_cast<double>(f.evals))
               .num("front_area", f.front_area)
               .text();
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Process accounting

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

struct Usage {
  double self_cpu = 0.0;
  double child_cpu = 0.0;
  double peak_rss_mb = 0.0;  ///< largest peak RSS of this process or a reaped child
};

/// This process's own resident high-water mark (VmHWM), in KiB. Unlike
/// ru_maxrss it starts afresh at exec, so it excludes the launching process.
long own_peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

Usage usage_now() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  Usage u;
  u.self_cpu = timeval_s(self.ru_utime) + timeval_s(self.ru_stime);
  u.child_cpu = timeval_s(kids.ru_utime) + timeval_s(kids.ru_stime);
  u.peak_rss_mb = static_cast<double>(std::max(own_peak_rss_kib(), kids.ru_maxrss)) / 1024.0;
  return u;
}

// ---------------------------------------------------------------------------
// Bench-side trace: batch events from a bench-owned hub engine, generation
// barriers, checkpoint writes and scheduler slices, all stamped here.

struct BatchRecord {
  double end_s = 0.0;
  double wall_s = 0.0;
  double queue_wait_s = 0.0;
  double lat_mean_s = 0.0;
  double lat_max_s = 0.0;
  double size = 0.0;
  double workers = 0.0;
};

class BatchSink final : public obs::EventSink {
 public:
  explicit BatchSink(Clock::time_point origin) : origin_(origin) {}

  bool enabled(obs::TraceLevel level) const override {
    return level != obs::TraceLevel::Off;
  }

  void record(const obs::Event& event) override {
    if (event.name != "batch") return;
    BatchRecord r;
    r.end_s = seconds_between(origin_, Clock::now());
    for (const obs::Field& f : event.fields) {
      const double value =
          f.kind == obs::Field::Kind::F64 ? f.f64 : static_cast<double>(f.u64);
      if (f.key == "wall_s") r.wall_s = value;
      if (f.key == "queue_wait_s") r.queue_wait_s = value;
      if (f.key == "lat_mean_s") r.lat_mean_s = value;
      if (f.key == "lat_max_s") r.lat_max_s = value;
      if (f.key == "size") r.size = value;
      if (f.key == "workers") r.workers = value;
    }
    batches.push_back(r);
  }

  std::vector<BatchRecord> batches;

 private:
  Clock::time_point origin_;
};

struct Harvest {
  std::size_t job = 0;
  std::size_t generation = 0;
  moga::Population population;
};

struct Trace {
  Clock::time_point origin = Clock::now();
  BatchSink sink{origin};
  std::vector<std::pair<double, std::size_t>> barriers;  ///< (time, job)
  std::vector<double> checkpoint_done;                   ///< AfterRename times
  double checkpoint_bytes = 0.0;
  std::vector<std::pair<double, double>> slices;         ///< scheduler steps
  std::vector<Harvest> harvest;                          ///< generations 0, 10, 50
  std::map<std::size_t, Harvest> last;                   ///< final population per job

  double now() const { return seconds_between(origin, Clock::now()); }

  /// Wires the generation and checkpoint seams of `settings` (job `job`).
  void instrument(expt::RunSettings& settings, std::size_t job) {
    settings.on_generation = [this, job](std::size_t gen, const moga::Population& pop) {
      barriers.emplace_back(now(), job);
      if (gen == 0 || gen == 10 || gen == 50) harvest.push_back(Harvest{job, gen, pop});
      last[job] = Harvest{job, gen, pop};
    };
    settings.checkpoint_write_hook = [this](robust::CheckpointWritePhase phase,
                                            const std::string& path) {
      if (phase != robust::CheckpointWritePhase::AfterRename) return;
      checkpoint_done.push_back(now());
      std::error_code ec;
      const auto size = fs::file_size(path, ec);
      if (!ec) checkpoint_bytes += static_cast<double>(size);
    };
  }
};

// ---------------------------------------------------------------------------
// One run of a workload. `trace` (optional) instruments it; `probe` cuts it at
// the first generation barrier and reports the time to reach it.

struct RunResult {
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< probes only
  Usage before;
  Usage after;
  std::vector<FrontRecord> fronts;
  std::vector<double> turnaround_s;
  serve::ServiceStats service;
  std::vector<std::size_t> slices_per_job;
  std::string captured_stdout;  ///< shard coordinator messages
  // Held for the replay after a traced run (problems outlive the run).
  std::vector<std::shared_ptr<const problems::IntegratorProblem>> problems;
  std::vector<std::size_t> evals_per_job;
  std::uint64_t lane_groups = 0;
  std::uint64_t lane_fallbacks = 0;
  double distinct_evals = 0.0;
  double requested_evals = 0.0;
  double faults = 0.0;
};

struct FirstBarrier {
  CancelToken token;
  Clock::time_point at{};
  bool seen = false;

  moga::GenerationCallback callback() {
    return [this](std::size_t, const moga::Population&) {
      if (!seen) {
        seen = true;
        at = Clock::now();
        token.request();
      }
    };
  }
};

// A problem equal to the job's (construction is deterministic in the spec),
// owned by the replay so it may outlive the job.
std::shared_ptr<const problems::IntegratorProblem> problem_of(const expt::Job& job) {
  return std::make_shared<const problems::IntegratorProblem>(job.problem().spec());
}

RunResult run_single(const expt::RunSettings& base, Trace* trace, bool probe) {
  RunResult r;
  expt::RunSettings settings = base;
  FirstBarrier first;
  if (probe) {
    settings.on_generation = first.callback();
    settings.stop = &first.token;
  }
  std::unique_ptr<engine::EvalEngine> hub;
  r.before = usage_now();
  const Clock::time_point t0 = Clock::now();
  if (trace != nullptr) {
    trace->origin = t0;
    trace->sink = BatchSink(t0);
    hub = std::make_unique<engine::EvalEngine>(settings.threads, &trace->sink,
                                               settings.eval_cache);
    hub->set_batch_eval(settings.batch_eval);
    settings.engine = engine::EngineHandle{hub.get(), 1};
    trace->instrument(settings, 0);
  }
  expt::Job job = expt::Job::from_settings(settings);
  const expt::RunOutcome outcome = job.run();
  const Clock::time_point t1 = Clock::now();
  r.after = usage_now();
  r.wall_s = seconds_between(t0, t1);
  if (probe) {
    r.setup_s = seconds_between(t0, first.at);
    return r;
  }
  r.fronts.push_back(front_record("run", outcome));
  r.turnaround_s.push_back(r.wall_s);
  r.evals_per_job.push_back(outcome.evaluations);
  r.faults = static_cast<double>(outcome.faults.total_faults());
  if (trace != nullptr) {
    trace->slices.emplace_back(0.0, r.wall_s);
    r.problems.push_back(problem_of(job));
    r.lane_groups = hub->lane_groups();
    r.lane_fallbacks = hub->lane_fallbacks();
    r.distinct_evals = static_cast<double>(hub->stats().evaluated);
    r.requested_evals = static_cast<double>(hub->stats().requested);
  }
  return r;
}

// Parent-side fork times of this process: the shard coordinator forks one
// worker per shard right after preparing the spool.
std::array<Clock::time_point, 64> g_fork_times;
std::size_t g_forks = 0;

void note_fork() {
  if (g_forks < g_fork_times.size()) g_fork_times[g_forks++] = Clock::now();
}

RunResult run_shards(std::uint64_t seed, const fs::path& work, const std::string& worker,
                     bool probe) {
  RunResult r;
  fs::remove_all(work);
  fs::create_directories(work);
  expt::RunSettings settings = shard_settings(seed, work / "spool");
  // Worker processes cannot report their first barrier, so the set-up probe
  // of this workload ends when the coordinator has forked the last worker:
  // spool preparation and fork. The probe's run is cut to one generation.
  if (probe) {
    settings.generations = 1;
    pthread_atfork(nullptr, note_fork, nullptr);
  }
  std::ostringstream captured;
  std::streambuf* const saved = std::cout.rdbuf(captured.rdbuf());
  r.before = usage_now();
  const Clock::time_point t0 = Clock::now();
  expt::RunOutcome outcome;
  try {
    outcome = shard::run_sharded(settings, shard_options(worker));
  } catch (...) {
    std::cout.rdbuf(saved);
    throw;
  }
  const Clock::time_point t1 = Clock::now();
  r.after = usage_now();
  std::cout.rdbuf(saved);
  r.captured_stdout = captured.str();
  r.wall_s = seconds_between(t0, t1);
  if (probe) {
    if (g_forks < kWorkers) throw std::runtime_error("shard workers were not forked");
    r.setup_s = seconds_between(t0, g_fork_times[kWorkers - 1]);
    return r;
  }
  r.fronts.push_back(front_record("run", outcome));
  r.turnaround_s.push_back(r.wall_s);
  r.evals_per_job.push_back(outcome.evaluations);
  r.faults = static_cast<double>(outcome.faults.total_faults());
  return r;
}

bool terminal(expt::JobState state) {
  return state == expt::JobState::Done || state == expt::JobState::Failed ||
         state == expt::JobState::Cancelled;
}

// The serve-screen spool drained by one hub through serve::JobScheduler, with
// the daemon's per-job wiring: private traces, a two-slot checkpoint chain,
// resume on every slice, a result file and front CSV per finished job.
RunResult run_serve(std::uint64_t seed, const fs::path& work, Trace* trace, bool probe) {
  RunResult r;
  const fs::path spool = work / "spool";
  fs::remove_all(work);
  fs::create_directories(spool);
  for (std::size_t i = 1; i <= kServeJobs; ++i) {
    std::ofstream(spool / (serve_job_id(i) + ".job")) << serve_request(i, seed) << "\n";
  }
  FirstBarrier first;

  r.before = usage_now();
  const Clock::time_point t0 = Clock::now();
  if (trace != nullptr) {
    trace->origin = t0;
    trace->sink = BatchSink(t0);
  }
  engine::EvalEngine hub(kWorkers, trace != nullptr ? &trace->sink : nullptr, 1 << 16);
  hub.set_batch_eval(engine::BatchEval::Simd);
  serve::SchedulerConfig config;
  config.slice_generations = kServeSlice;
  config.hub = &hub;
  if (probe) config.stop = &first.token;
  serve::JobScheduler scheduler(config);
  std::vector<Clock::time_point> admitted;
  for (const fs::path& request : serve::pending_requests(spool)) {
    const fs::path claimed = serve::claim_request(request);
    serve::JobRequest parsed = serve::parse_job_request(serve::read_request_line(claimed));
    expt::RunSettings settings = std::move(parsed.settings);
    settings.threads = 1;
    settings.eval_cache = 0;
    settings.trace_path = (spool / (parsed.id + ".trace.jsonl")).string();
    settings.trace_level = obs::TraceLevel::Gen;
    settings.checkpoint_path = (spool / (parsed.id + ".ckpt")).string();
    settings.checkpoint_keep = 2;
    settings.resume = expt::ResumeMode::Auto;
    if (probe) {
      settings.stop = &first.token;
      settings.on_generation = first.callback();
    }
    if (trace != nullptr) trace->instrument(settings, scheduler.size());
    scheduler.admit(parsed.id, std::move(settings));
    admitted.push_back(Clock::now());
  }
  if (probe) {
    scheduler.run_all();
    r.setup_s = seconds_between(t0, first.at);
    r.wall_s = seconds_between(t0, Clock::now());
    return r;
  }
  std::vector<bool> reported(scheduler.size(), false);
  r.turnaround_s.assign(scheduler.size(), 0.0);
  for (;;) {
    const double step_start = trace != nullptr ? trace->now() : 0.0;
    const bool progressed = scheduler.step();
    if (trace != nullptr && progressed) trace->slices.emplace_back(step_start, trace->now());
    for (std::size_t slot = 0; slot < scheduler.size(); ++slot) {
      const expt::Job& job = scheduler.job(slot);
      if (reported[slot] || !terminal(job.state())) continue;
      reported[slot] = true;
      r.turnaround_s[slot] = seconds_between(admitted[slot], Clock::now());
      serve::JobResult result;
      result.id = scheduler.id(slot);
      result.state = expt::job_state_name(job.state());
      result.error = job.error();
      result.has_outcome = job.state() == expt::JobState::Done;
      if (result.has_outcome) result.outcome = job.outcome();
      serve::write_result_file(spool, result);
      if (result.has_outcome) {
        std::ofstream csv(spool / (result.id + ".front.csv"));
        expt::front_series("front", job.outcome().front).write_csv(csv);
      }
    }
    if (!progressed) break;
  }
  const Clock::time_point t1 = Clock::now();
  r.after = usage_now();
  r.wall_s = seconds_between(t0, t1);
  r.service = scheduler.stats();
  for (std::size_t slot = 0; slot < scheduler.size(); ++slot) {
    const expt::Job& job = scheduler.job(slot);
    FrontRecord f = front_record(scheduler.id(slot), job.outcome());
    f.state = expt::job_state_name(job.state());
    r.fronts.push_back(f);
    r.slices_per_job.push_back(job.slices_run());
    r.evals_per_job.push_back(job.outcome().evaluations);
    r.faults += static_cast<double>(job.outcome().faults.total_faults());
    if (trace != nullptr) r.problems.push_back(problem_of(job));
  }
  r.lane_groups = hub.lane_groups();
  r.lane_fallbacks = hub.lane_fallbacks();
  r.distinct_evals = static_cast<double>(hub.stats().evaluated);
  r.requested_evals = static_cast<double>(hub.stats().requested);
  return r;
}

RunResult run_workload(Workload w, std::uint64_t seed, const fs::path& work,
                       const std::string& worker, Trace* trace, bool probe) {
  switch (w) {
    case Workload::Paper:
      return run_single(paper_settings(seed), trace, probe);
    case Workload::IslandThreads:
      return run_single(island_settings(seed), trace, probe);
    case Workload::IslandShards:
      return run_shards(seed, work, worker, probe);
    case Workload::Serve:
      return run_serve(seed, work, trace, probe);
  }
  throw std::logic_error("unhandled workload");
}

std::string run_json(const RunResult& r) {
  std::string turnaround = "[";
  for (double t : r.turnaround_s) {
    if (turnaround.size() > 1) turnaround += ",";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", t);
    turnaround += buf;
  }
  turnaround += "]";
  return Json()
      .num("wall_s", r.wall_s)
      .num("cpu_s", (r.after.self_cpu - r.before.self_cpu) +
                        (r.after.child_cpu - r.before.child_cpu))
      .num("peak_rss_mb", r.after.peak_rss_mb)
      .raw("turnaround_s", turnaround)
      .raw("fronts", fronts_json(r.fronts))
      .text();
}

// ---------------------------------------------------------------------------
// Reference: the scalar oracle on one thread, no hub/cache/slicing/shards.

std::vector<FrontRecord> reference(Workload w, std::uint64_t seed, std::size_t job_begin,
                                   std::size_t job_end) {
  std::vector<FrontRecord> fronts;
  const auto oracle = [](expt::RunSettings s) {
    s.threads = 1;
    s.eval_cache = 0;
    s.batch_eval = engine::BatchEval::Scalar;
    return expt::Job::from_settings(std::move(s)).run();
  };
  switch (w) {
    case Workload::Paper:
      fronts.push_back(front_record("run", oracle(paper_settings(seed))));
      break;
    case Workload::IslandThreads:
    case Workload::IslandShards:
      // One reference for both island workloads: for any seed, the threaded
      // and the sharded run must each equal it, hence each other.
      fronts.push_back(front_record("run", oracle(island_settings(seed))));
      break;
    case Workload::Serve:
      for (std::size_t i = job_begin; i < job_end; ++i) {
        serve::JobRequest parsed = serve::parse_job_request(serve_request(i + 1, seed));
        fronts.push_back(front_record(parsed.id, oracle(std::move(parsed.settings))));
      }
      break;
  }
  return fronts;
}

// ---------------------------------------------------------------------------
// Replay of harvested populations through the layer entry points.

struct Replay {
  double corner_s = 0.0;  ///< lane-path evaluation of TT-failing offspring
  double corner_evals = 0.0;
  double mc_s = 0.0;  ///< design_robustness on TT-passing offspring
  double mc_calls = 0.0;
  double rank_s = 0.0;       ///< non-dominated sort + crowding of parents+offspring
  double variation_s = 0.0;  ///< tournament + SBX + mutation
  double generations = 0.0;
  double robustness_sum = 0.0;  ///< keeps the timed calls observable
  std::map<std::size_t, std::vector<std::pair<double, double>>> pass;  ///< job -> (gen, ratio)
};

Replay replay(const std::vector<Harvest>& corpus,
              const std::vector<std::shared_ptr<const problems::IntegratorProblem>>& problems,
              std::uint64_t seed) {
  Replay out;
  const moga::Preference prefer = [](const moga::Individual& a, const moga::Individual& b) {
    return moga::crowded_less(a, b);
  };
  for (const Harvest& h : corpus) {
    const problems::IntegratorProblem& problem = *problems.at(h.job);
    const auto bounds = problem.bounds();
    Rng rng(seed ^ (h.generation * 0x9e3779b97f4a7c15ULL) ^ h.job);

    Clock::time_point t = Clock::now();
    const auto offspring = moga::make_offspring(h.population, bounds, moga::VariationParams{},
                                                prefer, h.population.size(), rng);
    out.variation_s += seconds_between(t, Clock::now());

    moga::Population combined = h.population;
    std::vector<std::span<const double>> failing;
    std::vector<scint::IntegratorDesign> passing;
    for (const auto& genes : offspring) {
      moga::Individual child;
      child.genes = genes;
      problem.evaluate(child.genes, child.eval);
      combined.push_back(std::move(child));
      const auto design = problems::IntegratorProblem::decode(genes);
      if (problem.spec().satisfied_by(problem.typical_performance(design))) {
        passing.push_back(design);
      } else {
        failing.push_back(genes);
      }
    }
    out.pass[h.job].emplace_back(static_cast<double>(h.generation),
                                 static_cast<double>(passing.size()) /
                                     static_cast<double>(offspring.size()));

    t = Clock::now();
    moga::RankingScratch ranking;
    const auto fronts = ranking.sort(combined);
    for (const auto& front : fronts) ranking.crowding(combined, front);
    out.rank_s += seconds_between(t, Clock::now());
    out.generations += 1.0;

    std::vector<moga::Evaluation> evals(failing.size());
    std::vector<moga::Evaluation*> outs(failing.size());
    for (std::size_t i = 0; i < failing.size(); ++i) outs[i] = &evals[i];
    t = Clock::now();
    for (std::size_t pos = 0; pos < failing.size(); pos += 16) {
      const std::size_t n = std::min<std::size_t>(16, failing.size() - pos);
      problem.evaluate_lanes(std::span(failing).subspan(pos, n),
                             std::span<moga::Evaluation* const>(outs).subspan(pos, n));
    }
    out.corner_s += seconds_between(t, Clock::now());
    out.corner_evals += static_cast<double>(failing.size());

    t = Clock::now();
    for (const auto& design : passing) out.robustness_sum += problem.design_robustness(design);
    out.mc_s += seconds_between(t, Clock::now());
    out.mc_calls += static_cast<double>(passing.size());
  }
  return out;
}

/// TT-pass ratio of one job's evaluations, interpolating the replayed ratios
/// linearly between harvested generations over its `generations`.
double job_pass_ratio(std::vector<std::pair<double, double>> points, double generations) {
  if (points.empty() || generations < 1.0) return 0.0;
  std::sort(points.begin(), points.end());
  double sum = 0.0;
  for (double g = 0.0; g < generations; g += 1.0) {
    double value = points.back().second;
    if (g <= points.front().first) {
      value = points.front().second;
    } else {
      for (std::size_t k = 1; k < points.size(); ++k) {
        if (g <= points[k].first) {
          const auto& [g0, p0] = points[k - 1];
          const auto& [g1, p1] = points[k];
          value = p0 + (p1 - p0) * (g - g0) / (g1 - g0);
          break;
        }
      }
    }
    sum += value;
  }
  return sum / generations;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double dir_bytes(const fs::path& dir, const std::string& suffix, double* count) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    bytes += static_cast<double>(entry.file_size());
    if (count != nullptr) *count += 1.0;
  }
  return bytes;
}

// Shard-spool checkpoint files: rewritten and re-read once each through the
// robust layer to time checkpoint I/O the worker processes did.
void replay_checkpoints(const fs::path& spool, const fs::path& scratch,
                        std::map<std::string, double>& m) {
  fs::create_directories(scratch);
  double writes = 0.0;
  double bytes = 0.0;
  double write_s = 0.0;
  double read_s = 0.0;
  for (const auto& entry : fs::directory_iterator(spool)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.rfind("shard", 0) != 0 ||
        name.find(".cp") == std::string::npos) {
      continue;
    }
    Clock::time_point t = Clock::now();
    const robust::Checkpoint cp = robust::read_checkpoint_file(entry.path().string());
    read_s += seconds_between(t, Clock::now());
    t = Clock::now();
    robust::write_checkpoint_file((scratch / name).string(), cp);
    write_s += seconds_between(t, Clock::now());
    writes += 1.0;
    bytes += static_cast<double>(entry.file_size());
  }
  m["robust.checkpoint_writes"] = writes;
  m["robust.checkpoint_bytes"] = bytes;
  m["robust.checkpoint_write_s"] = write_s;
  m["robust.checkpoint_read_s"] = read_s;
}

// ---------------------------------------------------------------------------
// Trace mode

struct LayerSplit {
  double setup = 0.0;
  double eval = 0.0;
  double ga = 0.0;
  double checkpoint = 0.0;
  double slice_overhead = 0.0;
};

// Splits each scheduler slice (or the single run) into: time before its
// first batch, evaluation batches, GA work between them up to the last
// generation barrier, checkpoint writes after a barrier, and the rest.
LayerSplit split_layers(const Trace& trace, bool sliced) {
  LayerSplit split;
  bool first_slice = true;
  for (const auto& [start, end] : trace.slices) {
    double first_batch = end;
    double eval = 0.0;
    for (const BatchRecord& b : trace.sink.batches) {
      if (b.end_s <= start || b.end_s > end) continue;
      first_batch = std::min(first_batch, b.end_s - b.wall_s);
      eval += b.wall_s;
    }
    double last_barrier = first_batch;
    for (const auto& [t, job] : trace.barriers) {
      if (t > start && t <= end) last_barrier = std::max(last_barrier, t);
    }
    double checkpoint = 0.0;
    double mark = last_barrier;
    for (double t : trace.checkpoint_done) {
      if (t <= mark || t > end) continue;
      checkpoint += t - mark;
      mark = t;
    }
    const double pre = first_batch - start;
    split.eval += eval;
    split.ga += std::max(0.0, last_barrier - first_batch - eval);
    split.checkpoint += checkpoint;
    if (first_slice) {
      // Set-up runs from the start of the run to its first batch.
      split.setup = first_batch;
    } else {
      split.slice_overhead += pre;
    }
    if (sliced) split.slice_overhead += end - mark;
    first_slice = false;
  }
  return split;
}

// Replay-derived metrics: cost classes of the evaluator, MC share, ranking and
// variation cost, from the populations `trace` harvested during `run`.
void add_replay_metrics(const Trace& trace, const RunResult& run, std::uint64_t seed,
                        double cpu, std::map<std::string, double>& m) {
  double evals = 0.0;
  for (std::size_t e : run.evals_per_job) evals += static_cast<double>(e);
  // The replay corpus: generations 0, 10, 50 and the final one of every job.
  std::vector<Harvest> corpus = trace.harvest;
  for (const auto& [job, h] : trace.last) {
    if (h.generation != 0 && h.generation != 10 && h.generation != 50) corpus.push_back(h);
  }
  const Replay rp = replay(corpus, run.problems, seed);
  double mc_calls = 0.0;
  for (std::size_t job = 0; job < run.evals_per_job.size(); ++job) {
    const auto it = trace.last.find(job);
    const double gens = it == trace.last.end() ? 0.0 : static_cast<double>(it->second.generation + 1);
    const auto points = rp.pass.find(job);
    if (points == rp.pass.end()) continue;
    mc_calls += static_cast<double>(run.evals_per_job[job]) * job_pass_ratio(points->second, gens);
  }
  const double mc_us = rp.mc_calls > 0.0 ? 1e6 * rp.mc_s / rp.mc_calls : 0.0;
  m["problems.tt_pass_ratio"] = evals > 0.0 ? mc_calls / evals : 0.0;
  m["yield.mc_calls"] = mc_calls;
  m["yield.mc_us_per_call"] = mc_us;
  m["yield.mc_share"] = cpu > 0.0 ? mc_calls * mc_us * 1e-6 / cpu : 0.0;
  m["scint.corner_us_per_eval"] = rp.corner_evals > 0.0 ? 1e6 * rp.corner_s / rp.corner_evals : 0.0;
  m["moga.rank_us_per_gen"] = rp.generations > 0.0 ? 1e6 * rp.rank_s / rp.generations : 0.0;
  m["moga.variation_us_per_gen"] =
      rp.generations > 0.0 ? 1e6 * rp.variation_s / rp.generations : 0.0;
}

int cmd_trace(Workload w, std::uint64_t seed, const fs::path& work, const std::string& worker,
              double seconds) {
  std::vector<double> untraced;
  std::vector<RunResult> traced_runs;
  std::deque<Trace> traces;  // stable addresses: hooks point into them
  std::vector<FrontRecord> fronts;
  const Clock::time_point start = Clock::now();
  const bool shards = w == Workload::IslandShards;
  // Alternate untraced and traced runs so both see the same machine state.
  while (traced_runs.empty() || seconds_between(start, Clock::now()) < seconds) {
    RunResult plain = run_workload(w, seed, work / "u", worker, nullptr, false);
    untraced.push_back(plain.wall_s);
    fronts.insert(fronts.end(), plain.fronts.begin(), plain.fronts.end());
    traces.emplace_back();
    Trace* trace = shards ? nullptr : &traces.back();
    traced_runs.push_back(run_workload(w, seed, work / "t", worker, trace, false));
    fronts.insert(fronts.end(), traced_runs.back().fronts.begin(),
                  traced_runs.back().fronts.end());
  }
  // Report the traced run with the median wall time (lower median).
  std::vector<std::size_t> order(traced_runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return traced_runs[a].wall_s < traced_runs[b].wall_s;
  });
  const std::size_t pick = order[(order.size() - 1) / 2];
  RunResult& run = traced_runs[pick];
  const Trace& trace = traces[pick];
  const double wall_untraced = median(untraced);

  // Only the metrics that apply to the workload; run.py reports the rest as 0.
  std::map<std::string, double> m;

  const double cpu =
      (run.after.self_cpu - run.before.self_cpu) + (run.after.child_cpu - run.before.child_cpu);
  double evals = 0.0;
  for (std::size_t e : run.evals_per_job) evals += static_cast<double>(e);
  m["problems.evals"] = evals;
  m["problems.faults"] = run.faults;
  m["run.wall_untraced_s"] = wall_untraced;
  m["run.wall_traced_s"] = run.wall_s;
  m["obs.trace_overhead_s"] = run.wall_s - wall_untraced;

  if (shards) {
    // Worker processes are opaque to the benchmark: their CPU comes from
    // rusage, their exchange and checkpoints from the spool they leave.
    const fs::path spool = work / "t" / "spool";
    const double child_cpu = run.after.child_cpu - run.before.child_cpu;
    m["shard.busy_s"] = child_cpu / static_cast<double>(kWorkers);
    m["shard.idle_s"] = static_cast<double>(kWorkers) * run.wall_s - child_cpu;
    double files = 0.0;
    m["shard.migrant_bytes"] = dir_bytes(spool, ".mig", &files);
    m["shard.migrant_files"] = files;
    std::vector<std::size_t> epochs;
    for (const auto& entry : fs::directory_iterator(spool)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("epoch", 0) == 0) epochs.push_back(std::stoul(name.substr(5)));
    }
    std::sort(epochs.begin(), epochs.end());
    m["shard.epochs"] = static_cast<double>(
        std::unique(epochs.begin(), epochs.end()) - epochs.begin());
    std::size_t restarts = 0;
    for (std::size_t pos = run.captured_stdout.find("restarted shard"); pos != std::string::npos;
         pos = run.captured_stdout.find("restarted shard", pos + 1)) {
      ++restarts;
    }
    m["shard.restarts"] = static_cast<double>(restarts);
    replay_checkpoints(spool, work / "replay", m);
    m["run.unaccounted_s"] = run.wall_s - m["shard.busy_s"];
    // The workers' populations are byte-identical to the in-process island
    // run of the same input, so the replay corpus is harvested from that run
    // (its engine figures are not reported: they describe another process).
    Trace harvest;
    const RunResult solo = run_single(island_settings(seed), &harvest, false);
    add_replay_metrics(harvest, solo, seed, cpu, m);
  } else {
    const bool sliced = w == Workload::Serve;
    const LayerSplit split = split_layers(trace, sliced);
    m["run.setup_s"] = split.setup;
    m["engine.busy_s"] = split.eval;
    m["sacga.gen_self_s"] = split.ga;
    m["robust.checkpoint_write_s"] = split.checkpoint;
    m["serve.slice_overhead_s"] = split.slice_overhead;
    m["run.unaccounted_s"] = run.wall_s - split.setup - split.eval - split.ga -
                             split.checkpoint - split.slice_overhead;

    double capacity = 0.0;
    double item_time = 0.0;
    double items = 0.0;
    double queue_wait = 0.0;
    double imbalance = 0.0;
    for (const BatchRecord& b : trace.sink.batches) {
      capacity += b.workers * b.wall_s;
      item_time += b.lat_mean_s * b.size;
      items += b.size;
      queue_wait += b.queue_wait_s;
      if (b.lat_mean_s > 0.0) imbalance += b.lat_max_s / b.lat_mean_s;
    }
    const double batches = static_cast<double>(trace.sink.batches.size());
    m["engine.batches"] = batches;
    m["engine.queue_wait_s"] = queue_wait;
    m["engine.idle_s"] = capacity - item_time;
    m["engine.utilization"] = capacity > 0.0 ? item_time / capacity : 0.0;
    m["engine.lat_max_over_mean"] = batches > 0.0 ? imbalance / batches : 0.0;
    m["engine.lane_groups"] = static_cast<double>(run.lane_groups);
    m["engine.lane_fallbacks"] = static_cast<double>(run.lane_fallbacks);
    m["engine.distinct_evals"] = run.distinct_evals;
    m["engine.cache_hit_ratio"] =
        run.requested_evals > 0.0 ? 1.0 - run.distinct_evals / run.requested_evals : 0.0;

    add_replay_metrics(trace, run, seed, cpu, m);

    if (sliced) {
      const fs::path spool = work / "t" / "spool";
      m["serve.slices"] = static_cast<double>(run.service.slices);
      m["serve.preemptions"] = static_cast<double>(run.service.preemptions);
      m["robust.checkpoint_writes"] = static_cast<double>(trace.checkpoint_done.size());
      m["robust.checkpoint_bytes"] = trace.checkpoint_bytes;
      m["obs.trace_bytes"] = dir_bytes(spool, ".trace.jsonl", nullptr);
      // Every slice after a job's first re-reads its checkpoint chain.
      double read_s = 0.0;
      for (std::size_t slot = 0; slot < run.slices_per_job.size(); ++slot) {
        const fs::path ckpt = spool / (run.fronts[slot].id + ".ckpt");
        if (run.slices_per_job[slot] < 2 || !fs::exists(ckpt)) continue;
        const Clock::time_point t = Clock::now();
        robust::read_checkpoint_file(ckpt.string());
        read_s += seconds_between(t, Clock::now()) *
                  static_cast<double>(run.slices_per_job[slot] - 1);
      }
      m["robust.checkpoint_read_s"] = read_s;
    }
  }

  // The spans that partition the traced run's wall time (run.py prints them
  // as the layer table). Shard checkpoint figures come from a replay, so
  // they are not among them.
  const std::vector<std::string> rows =
      shards ? std::vector<std::string>{"shard.busy_s", "run.unaccounted_s"}
             : std::vector<std::string>{"run.setup_s", "engine.busy_s", "sacga.gen_self_s",
                                        "robust.checkpoint_write_s", "serve.slice_overhead_s",
                                        "run.unaccounted_s"};
  std::string rows_json = "[";
  for (const std::string& row : rows) {
    if (rows_json.size() > 1) rows_json += ",";
    rows_json += "\"" + row + "\"";
  }
  Json metrics;
  for (const auto& [name, value] : m) metrics.num(name, value);
  std::cout << Json()
                   .raw("metrics", metrics.text())
                   .raw("rows", rows_json + "]")
                   .raw("fronts", fronts_json(fronts))
                   .text()
            << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------

int cmd_env() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t nproc = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) nproc = static_cast<std::size_t>(CPU_COUNT(&set));
  const std::string flags = ANADEX_BENCH_CXX_FLAGS;
  const auto march = flags.find("-march=");
  // Does the SIMD lane path engage on this build and CPU?
  const problems::IntegratorProblem problem(spec_number(kSpecIndex));
  engine::EvalEngine probe(problem, 1);
  probe.set_batch_eval(engine::BatchEval::Simd);
  Rng rng(1);
  const auto bounds = problem.bounds();
  std::vector<engine::Genome> genomes;
  for (int i = 0; i < 16; ++i) genomes.push_back(moga::random_genome(bounds, rng));
  std::vector<moga::Evaluation> out(genomes.size());
  probe.evaluate_batch(genomes, out);
  std::cout << Json()
                   .num("nproc", static_cast<double>(nproc))
                   .num("hardware_concurrency", std::thread::hardware_concurrency())
#if defined(__clang__)
                   .str("compiler", std::string("clang ") + __clang_version__)
#else
                   .str("compiler", std::string("gcc ") + __VERSION__)
#endif
                   .str("build_type", ANADEX_BENCH_BUILD_TYPE)
                   .str("cxx_flags", flags)
                   .str("march", march == std::string::npos
                                     ? "none (portable)"
                                     : flags.substr(march, flags.find(' ', march) - march))
                   .raw("lane_path", probe.lane_groups() > 0 ? "true" : "false")
                   .text()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.positionals().empty()) {
      std::cerr << "usage: anadex_bench_runner run|probe|ref|trace|env [options]\n";
      return 2;
    }
    const std::string mode = args.positionals().front();
    if (mode == "env") return cmd_env();
    const Workload w = parse_workload(args.get("workload", ""));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const fs::path work = args.get("work", "");
    const std::string worker = args.get("worker", "");
    if (mode == "ref") {
      const std::string jobs = args.get("jobs", "0:20");
      const std::size_t colon = jobs.find(':');
      const std::size_t begin = std::stoul(jobs.substr(0, colon));
      const std::size_t end = std::stoul(jobs.substr(colon + 1));
      std::cout << Json().raw("fronts", fronts_json(reference(w, seed, begin, end))).text()
                << std::endl;
      return 0;
    }
    if (work.empty()) throw std::runtime_error("--work DIR is required");
    if (mode == "run") {
      std::cout << run_json(run_workload(w, seed, work, worker, nullptr, false)) << std::endl;
      return 0;
    }
    if (mode == "probe") {
      const RunResult r = run_workload(w, seed, work, worker, nullptr, true);
      std::cout << Json().num("setup_s", r.setup_s).text() << std::endl;
      return 0;
    }
    if (mode == "trace") return cmd_trace(w, seed, work, worker, args.get_double("seconds", 10));
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
