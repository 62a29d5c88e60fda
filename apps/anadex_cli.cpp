// anadex — command-line front-end to the design-space exploration library.
//
// Subcommands:
//   anadex specs
//       List the 20 graded circuit specifications.
//   anadex explore [--algo tpg|localonly|sacga|mesacga|island|wsum|spea2]
//                  [--spec 1..20|chosen] [--generations N] [--population N]
//                  [--partitions M] [--seed S] [--threads T] [--eval-cache N]
//                  [--batch-eval scalar|simd|auto] [--csv FILE]
//                  [--history] [--checkpoint FILE] [--checkpoint-every N]
//                  [--checkpoint-keep N] [--resume [auto]]
//                  [--eval-deadline S]
//                  [--trace FILE] [--trace-level off|gen|eval]
//       Run one design-space exploration and print the Pareto surface.
//       --threads T evaluates each generation's offspring on T worker
//       threads (0 = one per hardware thread); results are bit-identical
//       for every thread count. --eval-cache N memoizes up to N distinct
//       genotype evaluations (0 = off, the default); like --threads it is a
//       pure execution knob — results are bit-identical on or off
//       (docs/performance.md). --batch-eval simd maps evaluation batches
//       onto the SoA SIMD kernels (auto = lanes when the batch fills a
//       group); a third pure execution knob — the lane path is bit-exact
//       against the scalar oracle, so fronts, traces and checkpoints are
//       byte-identical in every mode. With --checkpoint, the run state is
//       snapshotted every N generations (keeping the last --checkpoint-keep
//       rotated slots) so an interrupted exploration can continue with
//       --resume (strict: the file must exist and verify) or --resume auto
//       (crash recovery: scan the rotated chain for the newest slot that
//       checksum-verifies, or start fresh) — also across different
//       --threads values. SIGINT/SIGTERM stop the run gracefully at the
//       next generation barrier (snapshot + exit 130); a second signal
//       aborts immediately. --eval-deadline S arms a watchdog that cancels
//       evaluation batches stuck longer than S seconds
//       (docs/robustness.md). --trace streams run telemetry as JSONL
//       (docs/observability.md); gen level records per-generation metrics,
//       eval level adds batch evaluation timing. Tracing never changes
//       results. --shards N (island algorithm) forks N worker processes
//       (or threads with --shard-mode thread) that exchange migrants at
//       deterministic epoch barriers through --shard-dir and merge into
//       the SAME front and checkpoint bytes as --shards 1; crashed
//       workers are relaunched and resume from their own checkpoint
//       chains (docs/sharding.md).
//   anadex shard-worker --dir DIR --shard K --shards N ... (internal)
//       One worker of a sharded exploration; spawned by the coordinator.
//   anadex evaluate --genes g1,...,g15 [--spec ...]
//       Datasheet of a single design vector (SI units).
//   anadex simulate [--order 1..4] [--osr X] [--amplitude A] [--samples N]
//       Behavioral sigma-delta simulation with ideal integrators.
//   anadex compare [--spec ...] [--generations N] [--seed S]
//       All algorithms head-to-head on one specification.
//   anadex serve --spool DIR [--threads T] [--eval-cache N] [--slice N]
//                [--batch-eval scalar|simd|auto] [--poll-ms M] [--drain]
//                [--trace-level off|gen|eval]
//       Multi-job exploration daemon (docs/serve.md). Watches DIR for
//       one-line JSON job requests (*.job), admits them as expt::Jobs and
//       round-robins generation slices over ONE shared evaluation engine
//       (--threads workers, --eval-cache shared dedup capacity). Each
//       job's front and checkpoints are byte-identical to a solo
//       `anadex explore` of the same settings. Per-job results land in
//       DIR/<id>.result.json (+ .front.csv, .trace.jsonl); service stats
//       in DIR/serve_stats.json. SIGINT snapshots every running job at
//       its generation barrier and exits 130; a restarted daemon resumes
//       them. --drain exits when the spool is empty (CI one-shot mode).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "common/args.hpp"
#include "common/check.hpp"
#include "engine/eval_engine.hpp"
#include "expt/figures.hpp"
#include "expt/job.hpp"
#include "expt/runner.hpp"
#include "expt/settings_registry.hpp"
#include "obs/event_sink.hpp"
#include "obs/jsonl_writer.hpp"
#include "obs/stats_snapshot.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "robust/shutdown.hpp"
#include "serve/job_request.hpp"
#include "serve/scheduler.hpp"
#include "serve/spool.hpp"
#include "shard/coordinator.hpp"
#include "sysdes/modulator_sim.hpp"

namespace {

using namespace anadex;

int usage() {
  std::cout <<
      "usage: anadex <specs|knobs|explore|evaluate|simulate|compare|serve> [options]\n"
      "  specs                          list the 20 graded specifications\n"
      "  knobs                          print the settings registry: which\n"
      "                                 settings bind the resume digest and\n"
      "                                 which are free execution knobs\n"
      "  explore  --algo A --spec S --generations N [--population N]\n"
      "           [--partitions M] [--seed S] [--threads T] [--eval-cache N]\n"
      "           [--batch-eval scalar|simd|auto] [--csv FILE]\n"
      "           [--history] [--checkpoint FILE] [--checkpoint-every N]\n"
      "           [--checkpoint-keep N] [--resume [auto]] [--eval-deadline S]\n"
      "           [--trace FILE] [--trace-level off|gen|eval]\n"
      "           [--islands N] [--migration-interval N] [--shards N]\n"
      "           [--shard-dir DIR] [--shard-mode process|thread]\n"
      "           (--threads: evaluation workers; 0 = hardware count;\n"
      "            results are identical for every thread count;\n"
      "            --eval-cache: dedup-cache capacity, 0 = off; results\n"
      "            are identical with the cache on or off;\n"
      "            --batch-eval: SIMD lane mapping for batch evaluation\n"
      "            (simd = SoA kernels, auto = when the batch fills a\n"
      "            group); bit-identical results in every mode;\n"
      "            --resume auto: recover from the newest verifiable\n"
      "            checkpoint slot, or start fresh; Ctrl-C snapshots and\n"
      "            exits 130, see docs/robustness.md;\n"
      "            --eval-deadline: per-batch watchdog deadline in seconds;\n"
      "            --trace: JSONL run telemetry, see docs/observability.md;\n"
      "            --shards N: run the island algorithm across N worker\n"
      "            shards (processes, or threads with --shard-mode thread)\n"
      "            exchanging migrants through --shard-dir; the merged\n"
      "            front and checkpoint are byte-identical to --shards 1,\n"
      "            and crashed workers restart from their own checkpoints\n"
      "            — see docs/sharding.md)\n"
      "  evaluate --genes g1,...,g15 [--spec S]\n"
      "  simulate [--order 1..4] [--osr X] [--amplitude A] [--samples N]\n"
      "  compare  [--spec S] [--generations N] [--seed S] [--threads T]\n"
      "  serve    --spool DIR [--threads T] [--eval-cache N] [--slice N]\n"
      "           [--batch-eval scalar|simd|auto] [--poll-ms M] [--drain]\n"
      "           [--trace-level off|gen|eval]\n"
      "           (multi-job daemon over one shared engine; drop one-line\n"
      "            JSON requests as DIR/*.job, results appear as\n"
      "            DIR/<id>.result.json — see docs/serve.md;\n"
      "            --slice: generations per round-robin turn;\n"
      "            --drain: exit once the spool is empty)\n";
  return 2;
}

scint::Spec spec_from_arg(const ArgParser& args) {
  const std::string which = args.get("spec", "chosen");
  if (which == "chosen") return problems::chosen_spec();
  const auto suite = problems::spec_suite();
  const std::size_t index = args.get_count("spec", 0);
  ANADEX_REQUIRE(index >= 1 && index <= suite.size(),
                 "--spec must be 'chosen' or 1.." + std::to_string(suite.size()));
  return suite[index - 1];
}

void warn_unused(const ArgParser& args) {
  for (const auto& key : args.unused()) {
    std::cerr << "warning: unrecognized option --" << key << "\n";
  }
}

int cmd_specs() {
  std::cout << "  #  name           DR(dB)   OR(V)   ST(ns)   SE        robustness\n";
  const auto suite = problems::spec_suite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& s = suite[i];
    std::printf("  %-2zu %-14s %6.1f  %5.2f   %6.1f   %.1e   %.2f\n", i + 1,
                s.name.c_str(), s.dr_min_db, s.or_min, s.st_max * 1e9, s.se_max,
                s.robustness_min);
  }
  return 0;
}

int cmd_knobs() {
  // Printed from expt::kSettingsRegistry — the same table the digest
  // serializer, the perturbation property test and `anadex-lint
  // --digest-audit` consume — so this listing cannot drift from the code.
  // `digest` settings bind the checkpoint resume digest; `knob` settings
  // may change freely between a checkpoint and its resume; `meta` fields
  // live in CheckpointMeta; `seam` entries are runtime wiring.
  std::cout << "  field                  class   digest-tag   --flag\n";
  for (const auto& row : expt::kSettingsRegistry) {
    std::cout << "  " << std::left << std::setw(23) << row.field
              << std::setw(8) << expt::setting_kind_name(row.kind)
              << std::setw(13) << (row.digest_tag.empty() ? "-" : row.digest_tag)
              << (row.cli_flag.empty() ? "-" : row.cli_flag) << "\n";
  }
  return 0;
}

int cmd_explore(const ArgParser& args) {
  expt::RunSettings settings;
  settings.spec = spec_from_arg(args);
  settings.algo = expt::algo_from_name(args.get("algo", "mesacga"));
  settings.generations = args.get_count("generations", 800);
  settings.population = args.get_count("population", 100);
  settings.partitions = args.get_count("partitions", 8);
  settings.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  settings.islands = args.get_count("islands", settings.islands);
  settings.migration_interval =
      args.get_count("migration-interval", settings.migration_interval);
  settings.shards = args.get_count("shards", 1);
  settings.shard_dir = args.get("shard-dir", "");
  settings.threads = args.get_count("threads", 1);
  settings.eval_cache = args.get_count("eval-cache", 0);
  settings.batch_eval = engine::parse_batch_eval(args.get("batch-eval", "scalar"));
  settings.record_history = args.get_flag("history");
  settings.checkpoint_path = args.get("checkpoint", "");
  settings.checkpoint_every = args.get_count("checkpoint-every", 50);
  settings.checkpoint_keep = args.get_count("checkpoint-keep", 1);
  if (args.has("resume")) {
    // Bare `--resume` is strict (the file must exist and verify);
    // `--resume auto` recovers from the newest good rotated slot, or starts
    // fresh when none exists — the crash-recovery mode.
    const std::string mode = args.get("resume", "");
    if (mode.empty() || mode == "strict") {
      settings.resume = expt::ResumeMode::Strict;
    } else if (mode == "auto") {
      settings.resume = expt::ResumeMode::Auto;
    } else {
      ANADEX_REQUIRE(false, "--resume takes no value, 'strict' or 'auto'; got '" +
                                mode + "'");
    }
  }
  if (args.has("eval-deadline")) {
    settings.eval_deadline_s = args.get_double("eval-deadline", 0.0);
  }
  const std::string shard_mode = args.get("shard-mode", "process");
  ANADEX_REQUIRE(shard_mode == "process" || shard_mode == "thread",
                 "--shard-mode takes 'process' or 'thread'; got '" + shard_mode +
                     "'");
  if (settings.shards <= 1) {
    // Graceful shutdown: SIGINT/SIGTERM raise the process stop token; the
    // run snapshots at the next generation barrier and returns
    // `interrupted`. Sharded runs skip this: a stop token is process-local
    // and cannot span shards (interrupt and `--resume auto` instead).
    robust::install_shutdown_handlers();
    settings.stop = &robust::shutdown_token();
  }
  settings.trace_path = args.get("trace", "");
  settings.trace_level = obs::trace_level_from_string(args.get("trace-level", "gen"));
  const std::string csv_path = args.get("csv", "");
  warn_unused(args);
  expt::validate_run_settings(settings);

  std::cout << "exploring spec '" << settings.spec.name << "' with "
            << expt::algo_name(settings.algo) << " (" << settings.generations
            << " generations, population " << settings.population;
  if (settings.shards > 1) {
    std::cout << ", " << settings.shards << " " << shard_mode << " shards";
  }
  std::cout << ")\n";
  expt::RunOutcome outcome;
  if (settings.shards > 1) {
    shard::ShardOptions options;
    options.mode = shard_mode == "thread" ? shard::LaunchMode::Threads
                                          : shard::LaunchMode::Processes;
    options.spec_arg = args.get("spec", "chosen");
    outcome = shard::run_sharded(settings, options);
  } else {
    // One exploration == one Job run to completion; `anadex serve` runs the
    // same Jobs preemptively, many at a time.
    expt::Job job = expt::Job::from_settings(settings);
    outcome = job.run();
  }

  if (outcome.resumed_from_generation > 0) {
    std::cout << "resumed from '" << outcome.resumed_from_path
              << "' at generation " << outcome.resumed_from_generation << "\n";
  }
  expt::print_fronts(std::cout, {{expt::algo_name(settings.algo), outcome.front}});
  expt::print_outcome_summary(std::cout, expt::algo_name(settings.algo), outcome);
  if (outcome.faults.any()) {
    std::cout << "evaluation faults: " << outcome.faults.summary() << "\n";
  }
  if (settings.record_history) {
    std::cout << "metric trajectory (generation, front_area):\n";
    for (const auto& point : outcome.history) {
      std::cout << "  " << point.generation << "  " << point.front_area << "\n";
    }
  }
  if (!csv_path.empty()) {
    std::ofstream file(csv_path);
    ANADEX_REQUIRE(file.good(), "cannot open '" + csv_path + "' for writing");
    expt::front_series("front", outcome.front).write_csv(file);
    std::cout << "front written to " << csv_path << "\n";
  }
  if (!settings.trace_path.empty() && settings.trace_level != obs::TraceLevel::Off) {
    std::cout << "trace written to " << settings.trace_path << " (level "
              << obs::to_string(settings.trace_level) << ")\n";
  }
  if (outcome.interrupted) {
    std::cout << "interrupted at generation " << outcome.generations;
    if (!settings.checkpoint_path.empty()) {
      std::cout << " (state saved; continue with --resume auto)";
    }
    std::cout << "\n";
    return 130;  // 128 + SIGINT, the conventional interrupted-exit status
  }
  return 0;
}

// Internal subcommand: one forked worker of `explore --shards N --shard-mode
// process`. The coordinator spawns it with the exact flag set below
// (src/shard/coordinator.cpp worker_argv); every flag feeds either the run
// digest or an execution knob, so a relaunched worker reproduces its shard's
// byte stream. Exit 0 only after the shard's final checkpoint is renamed
// into place — the supervisor treats anything else as a crash and relaunches
// within the restart budget.
int cmd_shard_worker(const ArgParser& args) {
  ANADEX_REQUIRE(args.has("dir") && args.has("shard") && args.has("shards"),
                 "shard-worker needs --dir DIR --shard K --shards N");
  expt::RunSettings settings;
  settings.spec = spec_from_arg(args);
  settings.algo = expt::Algo::Island;
  settings.generations = args.get_count("generations", 800);
  settings.population = args.get_count("population", 100);
  settings.partitions = args.get_count("partitions", 8);
  settings.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  settings.islands = args.get_count("islands", settings.islands);
  settings.migration_interval =
      args.get_count("migration-interval", settings.migration_interval);
  settings.shards = args.get_count("shards", 1);
  settings.threads = args.get_count("threads", 1);
  settings.eval_cache = args.get_count("eval-cache", 0);
  settings.batch_eval = engine::parse_batch_eval(args.get("batch-eval", "scalar"));
  settings.checkpoint_every = args.get_count("checkpoint-every", 50);
  settings.checkpoint_keep = args.get_count("checkpoint-keep", 1);
  if (args.has("eval-deadline")) {
    settings.eval_deadline_s = args.get_double("eval-deadline", 0.0);
  }

  shard::WorkerContext ctx;
  ctx.topology =
      shard::Topology::make(settings.islands, settings.shards, settings.seed);
  ctx.shard = args.get_count("shard", 0);
  ctx.dir = std::filesystem::path(args.get("dir", ""));
  ctx.settings = std::move(settings);
  warn_unused(args);

  const problems::IntegratorProblem problem(ctx.settings.spec);
  shard::run_shard_worker(problem, ctx);
  return 0;
}

int cmd_evaluate(const ArgParser& args) {
  const std::string genes_arg = args.get("genes", "");
  ANADEX_REQUIRE(!genes_arg.empty(), "evaluate needs --genes g1,...,g15");
  std::vector<double> genes;
  std::stringstream stream(genes_arg);
  std::string token;
  while (std::getline(stream, token, ',')) genes.push_back(std::strtod(token.c_str(), nullptr));
  ANADEX_REQUIRE(genes.size() == problems::kNumGenes,
                 "need exactly 15 comma-separated gene values (SI units)");

  const problems::IntegratorProblem problem(spec_from_arg(args));
  warn_unused(args);
  const auto design = problems::IntegratorProblem::decode(genes);
  const auto perf = problem.typical_performance(design);
  // One-off evaluations go through the engine's single-item path too, so
  // the engine is the library's only evaluation entry point.
  const engine::EvalEngine eval_engine(problem);
  const auto eval = eval_engine.evaluate(genes);

  std::printf("power            %.4f mW\n", perf.power * 1e3);
  std::printf("load capacitance %.3f pF\n", design.cload * 1e12);
  std::printf("dynamic range    %.1f dB\n", perf.dynamic_range_db);
  std::printf("output range     %.2f V\n", perf.output_range);
  std::printf("settling time    %.1f ns\n", perf.settling_time * 1e9);
  std::printf("settling error   %.2e\n", perf.settling_error);
  std::printf("phase margin     %.1f deg\n", perf.phase_margin_deg);
  std::printf("unity gain       %.1f MHz (beta %.2f)\n", perf.unity_gain_hz / 1e6,
              perf.feedback_factor);
  std::printf("area             %.4f mm^2\n", perf.area * 1e6);
  std::printf("robustness       %.2f\n", problem.design_robustness(design));
  std::printf("feasible         %s (total violation %.3f)\n",
              eval.feasible() ? "YES" : "no", eval.total_violation());
  return eval.feasible() ? 0 : 1;
}

int cmd_simulate(const ArgParser& args) {
  const int order = static_cast<int>(args.get_int("order", 4));
  sysdes::SimulationConfig config;
  config.osr = args.get_double("osr", 128.0);
  config.input_amplitude = args.get_double("amplitude", 0.5);
  config.samples = args.get_count("samples", 1 << 14);
  warn_unused(args);

  const auto result = sysdes::simulate_modulator(sysdes::ideal_stages(order), config);
  sysdes::ModulatorSpec spec;
  spec.order = order;
  spec.osr = config.osr;
  std::printf("order-%d modulator at OSR %.0f:\n", order, config.osr);
  std::printf("  simulated SNDR   %.1f dB (%s)\n", result.sndr_db,
              result.stable ? "stable" : "UNSTABLE");
  std::printf("  ideal formula    %.1f dB\n", sysdes::ideal_sqnr_db(spec));
  std::printf("  max state        %.2f x reference\n", result.max_state);
  return result.stable ? 0 : 1;
}

int cmd_compare(const ArgParser& args) {
  expt::RunSettings settings;
  settings.spec = spec_from_arg(args);
  settings.generations = args.get_count("generations", 800);
  settings.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  settings.threads = args.get_count("threads", 1);
  settings.batch_eval = engine::parse_batch_eval(args.get("batch-eval", "scalar"));
  warn_unused(args);

  const problems::IntegratorProblem problem(settings.spec);
  std::cout << "spec '" << settings.spec.name << "', " << settings.generations
            << " generations:\n";
  for (const expt::AlgoInfo& algo : expt::kAlgos) {
    settings.algo = algo.algo;
    expt::Job job(problem, settings);
    const auto outcome = job.run();
    expt::print_outcome_summary(std::cout, std::string(algo.name), outcome);
  }
  return 0;
}

// The spool daemon (docs/serve.md). Deterministic core: admission order is
// the lexicographic filename order of the request files, slicing is pure
// generation counting, and every job's evaluations flow through one shared
// hub engine with a context-partitioned dedup cache — so for a fixed set
// of requests the per-job fronts, checkpoints and gen-level traces are
// byte-identical to solo `anadex explore` runs of the same settings. Only
// the polling sleep and stats timestamps touch the clock, and neither
// feeds back into results.
int cmd_serve(const ArgParser& args) {
  namespace fs = std::filesystem;
  const std::string spool_arg = args.get("spool", "");
  ANADEX_REQUIRE(!spool_arg.empty(), "serve needs --spool DIR");
  const fs::path spool(spool_arg);
  fs::create_directories(spool);
  const std::size_t threads = args.get_count("threads", 0);
  const std::size_t cache_capacity = args.get_count("eval-cache", 1 << 16);
  const std::size_t slice = args.get_count("slice", 25);
  const engine::BatchEval batch_eval =
      engine::parse_batch_eval(args.get("batch-eval", "scalar"));
  const long long poll_ms = args.get_int("poll-ms", 200);
  const bool drain = args.get_flag("drain");
  const auto trace_level =
      obs::trace_level_from_string(args.get("trace-level", "gen"));
  warn_unused(args);
  ANADEX_REQUIRE(poll_ms >= 0, "--poll-ms must be >= 0");

  // SIGINT/SIGTERM raise the shutdown token: every slice of the current
  // wave stops at its next generation barrier, every running job snapshots,
  // and a restarted daemon resumes them all (ResumeMode::Auto at admission).
  robust::install_shutdown_handlers();
  const CancelToken& stop = robust::shutdown_token();

  // Service telemetry: one appended header..trailer segment per daemon
  // lifetime (scripts/check_trace.py --segments).
  std::optional<obs::JsonlTraceWriter> service_trace;
  if (trace_level != obs::TraceLevel::Off) {
    service_trace.emplace((spool / "serve_trace.jsonl").string(), trace_level,
                          /*append=*/true);
  }

  engine::EvalEngine hub(threads, nullptr, cache_capacity);
  // The hub owns the batch→lane mode for every job it serves (per-run
  // batch_eval is inert under a shared handle, like threads/eval_cache).
  // Pure execution knob: job results are bit-identical in every mode.
  hub.set_batch_eval(batch_eval);
  serve::SchedulerConfig config;
  config.slice_generations = slice;
  config.hub = &hub;
  config.stop = &stop;
  config.sink = service_trace ? &*service_trace : nullptr;
  serve::JobScheduler scheduler(config);

  std::vector<bool> reported;      // slot -> result file written
  std::set<std::string> admitted;  // ids, to refuse duplicates

  const auto write_stats = [&] {
    obs::StatsSnapshot snap;
    const serve::ServiceStats& st = scheduler.stats();
    snap.set("schema", std::string_view("anadex-serve-stats/v1"));
    snap.set("admitted", st.admitted);
    snap.set("rejected", st.rejected);
    snap.set("slices", st.slices);
    snap.set("preemptions", st.preemptions);
    snap.set("done", st.done);
    snap.set("failed", st.failed);
    snap.set("cancelled", st.cancelled);
    const std::uint64_t terminal = st.done + st.failed + st.cancelled;
    snap.set("active", st.admitted - terminal);
    snap.set("engine_threads", std::uint64_t{hub.threads()});
    snap.set("engine_busy_batches", hub.busy_batches());
    snap.set("engine_busy_seconds", hub.busy_seconds());
    const engine::EvalStats& es = hub.stats();
    snap.set("eval_requested", es.requested);
    snap.set("eval_evaluated", es.evaluated);
    snap.set("eval_cache_hits", es.cache_hits());
    snap.set("cache_hit_rate",
             es.requested == 0
                 ? 0.0
                 : static_cast<double>(es.cache_hits()) /
                       static_cast<double>(es.requested));
    snap.write(spool / "serve_stats.json");
  };

  // `fallback_id` is the request filename stem — the reject-report id when
  // parsing dies before the request's own id is known. In recovery mode
  // (claimed by a previous daemon run) already-reported requests are
  // skipped silently so restarts stay idempotent.
  const auto admit_claimed = [&](const fs::path& claimed,
                                 std::string fallback_id, bool recovery) {
    std::string id = std::move(fallback_id);
    try {
      serve::JobRequest parsed =
          serve::parse_job_request(serve::read_request_line(claimed));
      id = parsed.id;
      if (recovery && fs::exists(serve::result_path(spool, id))) return;
      ANADEX_REQUIRE(admitted.find(id) == admitted.end(),
                     "job request: duplicate id \"" + id + "\"");
      expt::RunSettings settings = std::move(parsed.settings);
      // Service-owned execution knobs. The hub's pool and cache serve
      // every job (per-run threads/eval_cache are inert under a shared
      // handle, which scheduler.admit stamps in).
      settings.threads = 1;
      settings.eval_cache = 0;
      settings.stop = &stop;
      settings.trace_path = (spool / (id + ".trace.jsonl")).string();
      settings.trace_level = trace_level;
      if (expt::algo_info(settings.algo).checkpoints) {
        // Preemption + daemon-restart recovery ride the checkpoint chain.
        // An algorithm without one runs whole in one slice.
        settings.checkpoint_path = (spool / (id + ".ckpt")).string();
        settings.checkpoint_keep = 2;
        settings.resume = expt::ResumeMode::Auto;
      }
      scheduler.admit(id, std::move(settings));
      admitted.insert(id);
      reported.push_back(false);
      std::cout << (recovery ? "recovered job '" : "admitted job '") << id
                << "'\n";
    } catch (const std::exception& e) {
      if (recovery && serve::valid_job_id(id) &&
          fs::exists(serve::result_path(spool, id))) {
        return;  // this rejection was already reported before the restart
      }
      scheduler.note_rejected();
      std::cerr << "rejected request " << claimed.filename().string() << ": "
                << e.what() << "\n";
      if (serve::valid_job_id(id)) {
        serve::JobResult result;
        result.id = id;
        result.state = "rejected";
        result.error = e.what();
        serve::write_result_file(spool, result);
      }
    }
  };

  const auto admit_new = [&] {
    for (const fs::path& request : serve::pending_requests(spool)) {
      if (stop.requested()) return;
      const fs::path claimed = serve::claim_request(request);
      admit_claimed(claimed, request.stem().string(), /*recovery=*/false);
    }
  };

  const auto report_terminal = [&] {
    for (std::size_t slot = 0; slot < scheduler.size(); ++slot) {
      if (reported[slot]) continue;
      const expt::Job& job = scheduler.job(slot);
      const expt::JobState state = job.state();
      if (state != expt::JobState::Done && state != expt::JobState::Failed &&
          state != expt::JobState::Cancelled) {
        continue;
      }
      serve::JobResult result;
      result.id = scheduler.id(slot);
      result.state = expt::job_state_name(state);
      result.error = job.error();
      result.has_outcome = state == expt::JobState::Done;
      if (result.has_outcome) result.outcome = job.outcome();
      serve::write_result_file(spool, result);
      if (state == expt::JobState::Done) {
        // Same writer and format as `explore --csv`, so a serve front can
        // be diffed byte-for-byte against a solo run's.
        std::ofstream csv(spool / (result.id + ".front.csv"));
        ANADEX_REQUIRE(csv.good(), "serve: cannot write front csv for " + result.id);
        expt::front_series("front", job.outcome().front).write_csv(csv);
      }
      reported[slot] = true;
      std::cout << "job '" << result.id << "' " << result.state << " ("
                << job.generations_done() << " generations, "
                << job.slices_run() << " slices)\n";
    }
  };

  std::cout << "serving spool " << spool.string() << " (engine threads "
            << hub.threads() << ", shared cache " << cache_capacity
            << ", slice " << slice << " generations"
            << (drain ? ", drain" : "") << ")\n";
  // Startup recovery: requests a previous daemon claimed but never
  // reported are re-admitted first (filename order, so contexts and the
  // schedule replay deterministically); their checkpoint chains resume
  // them via ResumeMode::Auto.
  for (const fs::path& taken : serve::taken_requests(spool)) {
    // "<name>.job.taken" -> "<name>".
    admit_claimed(taken, taken.stem().stem().string(), /*recovery=*/true);
  }
  for (;;) {
    if (stop.requested()) break;
    admit_new();
    const bool progressed = scheduler.step();
    report_terminal();
    write_stats();
    if (!progressed) {
      if (drain || stop.requested()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
  report_terminal();
  write_stats();

  if (stop.requested()) {
    std::cout << "shutdown: snapshotted jobs will resume on the next serve\n";
    return 130;  // same convention as an interrupted explore
  }
  for (std::size_t slot = 0; slot < scheduler.size(); ++slot) {
    if (scheduler.job(slot).state() == expt::JobState::Failed) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.positionals().empty()) return usage();
    const std::string command = args.positionals().front();
    if (command == "specs") return cmd_specs();
    if (command == "knobs") return cmd_knobs();
    if (command == "explore") return cmd_explore(args);
    if (command == "shard-worker") return cmd_shard_worker(args);
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "serve") return cmd_serve(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
