#include "expt/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/textio.hpp"
#include "engine/evolver_common.hpp"
#include "expt/job.hpp"
#include "expt/settings_registry.hpp"
#include "moga/nsga2.hpp"
#include "moga/scalarize.hpp"
#include "moga/spea2.hpp"
#include "obs/jsonl_writer.hpp"
#include "robust/checkpoint.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"

namespace anadex::expt {

namespace {

using Clock = std::chrono::steady_clock;

/// Reference box for the normalized hypervolume: power up to 1.2 mW,
/// transformed load axis up to 5.1 pF (slightly beyond the explored box so
/// extreme points still contribute).
constexpr double kHvPowerRef = 1.2e-3;
constexpr double kHvAxisRef = 5.1e-12;

moga::GenerationCallback make_history_recorder(const RunSettings& settings,
                                               std::vector<HistoryPoint>& history) {
  if (!settings.record_history) return {};
  const std::size_t stride = settings.history_stride;  // validated > 0
  return [&history, stride](std::size_t gen, const moga::Population& population) {
    if ((gen + 1) % stride != 0) return;
    const moga::Population front = moga::extract_global_front(population);
    HistoryPoint point;
    point.generation = gen + 1;
    point.front_size = front.size();
    point.front_area = front_area_of(to_front_samples(front));
    history.push_back(point);
  };
}

/// Non-owning alias of a problem the caller keeps alive for the run.
std::shared_ptr<const moga::Problem> borrow(const moga::Problem& problem) {
  return {std::shared_ptr<void>(), &problem};
}

}  // namespace

namespace {

/// Per-type digest serializers: one `put` overload per DIGEST-row field
/// type, each emitting " tag=value" with a canonical, locale-free value
/// spelling (textio::exact for doubles — resume compares the digest
/// verbatim, so the encoding must be bit-faithful and stable). Empty
/// optionals emit nothing, preserving the historical "no chaos = no chaos
/// key" wire format.
class DigestWriter {
 public:
  void put(const char* tag, std::size_t v) { key(tag) << v; }
  void put(const char* tag, bool v) { key(tag) << (v ? 1 : 0); }
  void put(const char* tag, const std::vector<std::size_t>& v) {
    auto& os = key(tag);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) os << ',';
      os << v[i];
    }
  }
  void put(const char* tag, const scint::Spec& spec) {
    // The spec defines what "satisfies" means, so resuming under a
    // different one would keep the old population but change selection —
    // every limit participates. The name rides along for diagnostics.
    key(tag) << spec.name << ',' << textio::exact(spec.dr_min_db) << ','
             << textio::exact(spec.or_min) << ',' << textio::exact(spec.st_max)
             << ',' << textio::exact(spec.se_max) << ','
             << textio::exact(spec.robustness_min) << ','
             << textio::exact(spec.area_max) << ','
             << textio::exact(spec.balance_max) << ','
             << textio::exact(spec.vov_min);
  }
  void put(const char* tag, const robust::GuardPolicy& g) {
    // Retry/penalty policy shapes the objective values a faulty evaluation
    // leaves in the population. backoff_spin_base is excluded: it only
    // paces the retry loop (a pure execution knob inside the policy).
    key(tag) << g.max_retries << ',' << textio::exact(g.perturbation) << ','
             << textio::exact(g.penalty_objective) << ','
             << textio::exact(g.penalty_violation) << ',' << g.seed;
  }
  void put(const char* tag,
           const std::optional<robust::FaultInjectionConfig>& fi) {
    // Chaos faults change results, so a chaotic checkpoint must not resume
    // under different rates (or under no chaos at all).
    if (!fi.has_value()) return;
    key(tag) << fi->seed << ',' << textio::exact(fi->exception_rate) << ','
             << textio::exact(fi->nan_rate) << ',' << textio::exact(fi->slow_rate)
             << ',' << fi->slow_spin_iterations;
  }

  std::string str() const { return os_.str(); }

 private:
  std::ostream& key(const char* tag) {
    if (!first_) os_ << ' ';
    first_ = false;
    os_ << tag << '=';
    return os_;
  }

  std::ostringstream os_;
  bool first_ = true;
};

/// Expands every registry row into a member access, so the registry and
/// the RunSettings struct cannot drift: a field renamed or removed without
/// its registry row fails to compile right here. The converse direction —
/// a field ADDED without a row — is textual, so the Python side owns it
/// (`anadex-lint --digest-audit`). Called (as a no-op) from
/// validate_run_settings to keep it anchored in always-built code.
inline void settings_registry_static_check(const RunSettings& s) {
#define ANADEX_CHECK_META(field, flag) (void)s.field;
#define ANADEX_CHECK_DIGEST(field, tag, flag) (void)s.field;
#define ANADEX_CHECK_KNOB(field, flag) (void)s.field;
#define ANADEX_CHECK_SEAM(field) (void)s.field;
  ANADEX_RUN_SETTINGS_REGISTRY(ANADEX_CHECK_META, ANADEX_CHECK_DIGEST,
                               ANADEX_CHECK_KNOB, ANADEX_CHECK_SEAM)
#undef ANADEX_CHECK_META
#undef ANADEX_CHECK_DIGEST
#undef ANADEX_CHECK_KNOB
#undef ANADEX_CHECK_SEAM
}

}  // namespace

/// Generated from the settings registry: every DIGEST row becomes one
/// " tag=value" entry, in registry order (the wire order). Compared
/// verbatim on resume, so a checkpoint cannot silently continue under a
/// different configuration. KNOB rows (`threads`, `eval_cache`,
/// `batch_eval`, the engine handle, `shards`/`shard_dir`, ...) are
/// deliberately NOT part of the digest: results are invariant under all of
/// them (pure execution knobs — the SIMD lane path is bit-identical to the
/// scalar oracle, the sharded merge to the solo run), so a run may be
/// checkpointed under one setting and resumed under another — including a
/// checkpoint written at 2 shards resumed at 4.
std::string run_config_digest(const RunSettings& s) {
  DigestWriter w;
#define ANADEX_DIGEST_META(field, flag)
#define ANADEX_DIGEST_DIGEST(field, tag, flag) w.put(tag, s.field);
#define ANADEX_DIGEST_KNOB(field, flag)
#define ANADEX_DIGEST_SEAM(field)
  ANADEX_RUN_SETTINGS_REGISTRY(ANADEX_DIGEST_META, ANADEX_DIGEST_DIGEST,
                               ANADEX_DIGEST_KNOB, ANADEX_DIGEST_SEAM)
#undef ANADEX_DIGEST_META
#undef ANADEX_DIGEST_DIGEST
#undef ANADEX_DIGEST_KNOB
#undef ANADEX_DIGEST_SEAM
  return w.str();
}

void validate_run_settings(const RunSettings& s) {
  settings_registry_static_check(s);
  ANADEX_REQUIRE(s.population >= 4 && s.population % 2 == 0,
                 "run settings: population must be even and >= 4");
  // MESACGA with an explicit per-phase span takes its budget from the span,
  // so its `generations` may be 0 (the Fig 10/11 benches run it that way).
  ANADEX_REQUIRE(s.generations >= 1 || (s.algo == Algo::MESACGA && s.span > 0),
                 "run settings: generations must be >= 1 (or MESACGA with span > 0)");
  // 0 means "one worker per hardware thread"; an explicit count is capped
  // so a typo (e.g. threads=10000) cannot exhaust the process thread limit.
  ANADEX_REQUIRE(s.threads <= 256, "run settings: threads must be in [0, 256] (0 = auto)");
  if (s.record_history) {
    ANADEX_REQUIRE(s.history_stride > 0,
                   "run settings: history_stride must be > 0 when record_history is set");
  }
  if (s.algo == Algo::LocalOnly || s.algo == Algo::SACGA) {
    ANADEX_REQUIRE(s.partitions >= 1, "run settings: partitions must be >= 1");
  }
  if (s.algo == Algo::MESACGA) {
    const auto& sched = s.mesacga_schedule;
    ANADEX_REQUIRE(!sched.empty(), "run settings: MESACGA schedule must be non-empty");
    ANADEX_REQUIRE(sched.back() == 1,
                   "run settings: MESACGA schedule must end with a single partition");
    for (std::size_t i = 0; i + 1 < sched.size(); ++i) {
      ANADEX_REQUIRE(sched[i] > sched[i + 1],
                     "run settings: MESACGA schedule must be strictly decreasing");
    }
  }
  // Sharding (docs/sharding.md). Checked before the per-algorithm blocks so
  // a degenerate shard config gets the shard-specific message.
  ANADEX_REQUIRE(s.shards >= 1 && s.shards <= 64,
                 "run settings: shards must be in [1, 64]");
  if (s.shards > 1) {
    ANADEX_REQUIRE(s.algo == Algo::Island,
                   "run settings: --shards > 1 requires the island algorithm "
                   "(--algo island); only the island ring partitions across "
                   "processes");
    ANADEX_REQUIRE(s.shards <= s.islands,
                   "run settings: shards must not exceed islands (every shard "
                   "needs at least one island to run)");
    ANADEX_REQUIRE(s.migration_interval >= 1,
                   "run settings: migration_interval must be >= 1 when "
                   "shards > 1 (the migrant exchange is the shard barrier)");
    ANADEX_REQUIRE(!s.shard_dir.empty() || !s.checkpoint_path.empty(),
                   "run settings: a sharded run needs --shard-dir or "
                   "--checkpoint to locate the exchange spool");
    ANADEX_REQUIRE(!s.record_history,
                   "run settings: record_history is unsupported with "
                   "shards > 1 (history samples the global population, which "
                   "no single shard holds)");
    ANADEX_REQUIRE(s.trace_path.empty(),
                   "run settings: tracing is unsupported with shards > 1 "
                   "(gen-level traces sample the global population)");
    ANADEX_REQUIRE(!s.engine.shared(),
                   "run settings: a shared engine handle cannot span shard "
                   "processes; each shard builds its own engine");
  }
  if (s.algo == Algo::Island) {
    ANADEX_REQUIRE(s.islands >= 2, "run settings: island GA needs >= 2 islands");
    ANADEX_REQUIRE(s.population / s.islands >= 4,
                   "run settings: each island needs >= 4 members");
    ANADEX_REQUIRE(s.migration_interval >= 1,
                   "run settings: migration_interval must be >= 1");
  }
  if (s.algo == Algo::WeightedSum) {
    ANADEX_REQUIRE(s.weight_count >= 1, "run settings: weight_count must be >= 1");
  }
  if (!s.checkpoint_path.empty()) {
    ANADEX_REQUIRE(s.checkpoint_every > 0, "run settings: checkpoint_every must be > 0");
    ANADEX_REQUIRE(algo_info(s.algo).checkpoints,
                   "run settings: checkpointing is not supported for " + algo_name(s.algo));
  }
  if (s.resume != ResumeMode::Off) {
    ANADEX_REQUIRE(!s.checkpoint_path.empty(),
                   "run settings: resume requires a checkpoint path");
  }
  ANADEX_REQUIRE(s.checkpoint_keep >= 1 && s.checkpoint_keep <= 100,
                 "run settings: checkpoint_keep must be in [1, 100]");

  // Guard-policy sanity: these are user-reachable knobs (CLI, sweep
  // configs), so a NaN penalty or an absurd retry count must fail here, at
  // startup, not corrupt selection hours into a run.
  ANADEX_REQUIRE(s.guard.max_retries <= 1000,
                 "run settings: guard max_retries must be <= 1000");
  ANADEX_REQUIRE(std::isfinite(s.guard.perturbation) && s.guard.perturbation > 0.0,
                 "run settings: guard perturbation must be finite and > 0");
  ANADEX_REQUIRE(std::isfinite(s.guard.penalty_objective),
                 "run settings: guard penalty_objective must be finite (not NaN/inf)");
  ANADEX_REQUIRE(std::isfinite(s.guard.penalty_violation),
                 "run settings: guard penalty_violation must be finite (not NaN/inf)");
  ANADEX_REQUIRE(s.guard.backoff_spin_base <= (std::size_t{1} << 30),
                 "run settings: guard backoff_spin_base must be <= 2^30");
  if (s.eval_deadline_s.has_value()) {
    ANADEX_REQUIRE(std::isfinite(*s.eval_deadline_s) && *s.eval_deadline_s > 0.0,
                   "run settings: eval deadline must be finite and > 0 seconds");
    // A per-run deadline thread belongs to the engine that owns the worker
    // pool; on a shared hub the deadline is the hub's to enforce. Checked
    // here so Job admission rejects the request instead of an EngineLease
    // precondition killing the run (or the serve daemon) later.
    ANADEX_REQUIRE(!s.engine.shared(),
                   "run settings: eval_deadline_s is unsupported with a shared "
                   "engine handle (configure the deadline on the hub)");
  }
  if (!s.trace_path.empty()) {
    // Fail before the run starts, not after hours of optimization when the
    // writer first tries to open the file.
    const std::filesystem::path parent =
        std::filesystem::path(s.trace_path).parent_path();
    ANADEX_REQUIRE(parent.empty() || std::filesystem::is_directory(parent),
                   "run settings: trace path parent directory does not exist: '" +
                       parent.string() + "'");
  }
}

const AlgoInfo& algo_info(Algo algo) {
  const auto index = static_cast<std::size_t>(algo);
  ANADEX_ASSERT(index < kAlgos.size() && kAlgos[index].algo == algo,
                "kAlgos must hold one row per Algo, in enum order");
  return kAlgos[index];
}

std::string algo_name(Algo algo) { return std::string(algo_info(algo).name); }

Algo algo_from_name(std::string_view name) {
  if (name == "nsga2") return Algo::TPG;
  std::string expected;
  for (const AlgoInfo& info : kAlgos) {
    if (name == info.vocabulary) return info.algo;
    expected += (expected.empty() ? "" : "|") + std::string(info.vocabulary);
  }
  ANADEX_REQUIRE(false, "unknown algo \"" + std::string(name) + "\" (expected " +
                            expected + ")");
  return Algo::TPG;
}

std::vector<FrontSample> to_front_samples(const moga::Population& front) {
  std::vector<FrontSample> samples;
  samples.reserve(front.size());
  for (const auto& ind : front) {
    ANADEX_REQUIRE(ind.eval.objectives.size() == 2, "front must be two-objective");
    FrontSample s;
    s.power_w = ind.eval.objectives[0];
    s.cload_f = problems::kLoadMax - ind.eval.objectives[1];
    samples.push_back(s);
  }
  return samples;
}

double front_area_of(const std::vector<FrontSample>& front) {
  std::vector<double> cost;
  std::vector<double> cover;
  cost.reserve(front.size());
  cover.reserve(front.size());
  for (const auto& s : front) {
    cost.push_back(s.power_w);
    cover.push_back(s.cload_f);
  }
  return moga::front_area_metric(cost, cover, moga::FrontAreaParams{});
}

double hypervolume_of(const std::vector<FrontSample>& front) {
  moga::FrontPoints points;
  points.reserve(front.size());
  for (const auto& s : front) {
    points.push_back({s.power_w, problems::kLoadMax - s.cload_f});
  }
  const std::vector<double> ref{kHvPowerRef, kHvAxisRef};
  return moga::hypervolume(points, ref) / (kHvPowerRef * kHvAxisRef);
}

detail::GuardChain::GuardChain(const moga::Problem& problem, const RunSettings& settings)
    : injector_(settings.fault_injection.has_value()
                    ? std::make_shared<robust::FaultInjectingProblem>(
                          borrow(problem), *settings.fault_injection)
                    : nullptr),
      guarded_(injector_ != nullptr ? injector_ : borrow(problem), settings.guard),
      deadline_s_(settings.eval_deadline_s) {
  if (deadline_s_.has_value()) {
    guarded_.set_cancel_token(&cancel_);
    if (injector_ != nullptr) injector_->set_cancel_token(&cancel_);
  }
}

engine::EvalWatchdog detail::GuardChain::watchdog() {
  if (!deadline_s_.has_value()) return {};
  return {&cancel_, *deadline_s_};
}

robust::CheckpointMeta detail::checkpoint_meta(const RunSettings& settings) {
  robust::CheckpointMeta meta;
  meta.algo = algo_name(settings.algo);
  meta.seed = settings.seed;
  meta.population = settings.population;
  meta.generations = settings.generations;
  meta.config = run_config_digest(settings);
  return meta;
}

void detail::set_front(RunOutcome& outcome, const moga::Population& front) {
  outcome.front = to_front_samples(front);
  std::sort(outcome.front.begin(), outcome.front.end(),
            [](const FrontSample& a, const FrontSample& b) { return a.cload_f < b.cload_f; });
  outcome.front_area = front_area_of(outcome.front);
  outcome.hypervolume_norm = hypervolume_of(outcome.front);

  std::vector<double> loads;
  loads.reserve(outcome.front.size());
  for (const auto& s : outcome.front) loads.push_back(s.cload_f);
  outcome.clustering_4to5 = moga::clustering_fraction(loads, 4e-12, 5e-12);
  if (!loads.empty()) {
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    outcome.load_span_pf = (*hi - *lo) * 1e12;
  }
}

sacga::IslandParams detail::island_params_from(const RunSettings& settings) {
  sacga::IslandParams params;
  params.islands = settings.islands;
  params.island_population =
      std::max<std::size_t>((settings.population / settings.islands) & ~1ULL, 4);
  params.generations = settings.generations;
  params.migration_interval = settings.migration_interval;
  return params;
}

RunOutcome detail::run_impl(const problems::IntegratorProblem& problem,
                            const RunSettings& settings) {
  validate_run_settings(settings);
  // Sharded execution never reaches run_impl: the coordinator
  // (shard::run_sharded) runs one worker per shard and merges. A sharded
  // RunSettings silently executed solo would LOOK fine but ignore --shards,
  // so refuse loudly instead.
  ANADEX_REQUIRE(settings.shards <= 1,
                 "run_impl: shards > 1 must be executed via shard::run_sharded "
                 "(anadex explore --shards), not an in-process Job");

  const bool checkpointing = !settings.checkpoint_path.empty();
  const robust::CheckpointMeta meta = detail::checkpoint_meta(settings);

  // Reads the checkpoint to resume from before the trace file is created:
  // jobs whose slices start together in one serve wave then read their
  // checkpoint directory while no file is being created in it. The restored
  // state stays alive for the whole run (the algo params keep only a
  // non-owning pointer into it).
  robust::Checkpoint resume_cp;
  std::string resumed_from_path;
  bool resumed = false;
  if (settings.resume == ResumeMode::Strict) {
    resume_cp = robust::read_checkpoint_file(settings.checkpoint_path);
    resumed_from_path = settings.checkpoint_path;
    resumed = true;
  } else if (settings.resume == ResumeMode::Auto) {
    // Crash recovery: fall back past corrupt/truncated slots to the newest
    // one that checksum-verifies; with no usable slot, start fresh — so the
    // same `--resume auto` invocation works on the very first run too.
    auto recovered = robust::recover_checkpoint(settings.checkpoint_path);
    if (recovered.has_value()) {
      resume_cp = std::move(recovered->checkpoint);
      resumed_from_path = recovered->path;
      resumed = true;
    }
  }

  // Telemetry sink for the whole run. Stays null (and costs one pointer
  // test per instrumentation site) unless a trace file was requested.
  std::optional<obs::JsonlTraceWriter> trace;
  obs::EventSink* sink = nullptr;
  if (!settings.trace_path.empty() && settings.trace_level != obs::TraceLevel::Off) {
    trace.emplace(settings.trace_path, settings.trace_level, settings.trace_append);
    sink = &*trace;
  }
  if (sink != nullptr && sink->enabled(obs::TraceLevel::Gen)) {
    // Deliberately no thread count or timestamps here: the gen-level trace
    // must be bit-identical across thread counts (docs/observability.md).
    const std::string algo = algo_name(settings.algo);
    const obs::Field fields[] = {
        obs::str("algo", algo),
        obs::str("spec", settings.spec.name),
        obs::u64("population", settings.population),
        obs::u64("generations", settings.generations),
        obs::u64("seed", settings.seed),
    };
    sink->record(obs::Event{"run_start", obs::TraceLevel::Gen, false, fields});
  }
  if (sink != nullptr && sink->enabled(obs::TraceLevel::Eval)) {
    const obs::Field fields[] = {
        obs::u64("threads", settings.threads),
        obs::u64("hardware_concurrency", std::thread::hardware_concurrency()),
        obs::str("batch_eval", engine::to_string(settings.batch_eval)),
    };
    sink->record(obs::Event{"env", obs::TraceLevel::Eval, true, fields});
  }

  GuardChain guard(problem, settings);
  robust::GuardedProblem& guarded = guard.problem();
  const engine::EvalWatchdog watchdog = guard.watchdog();

  RunOutcome outcome;
  outcome.resumed_from_path = resumed_from_path;
  moga::GenerationCallback callback = make_history_recorder(settings, outcome.history);
  if (settings.on_generation) {
    if (callback) {
      callback = [history = std::move(callback), user = settings.on_generation](
                     std::size_t gen, const moga::Population& population) {
        history(gen, population);
        user(gen, population);
      };
    } else {
      callback = settings.on_generation;
    }
  }

  if (resumed) {
    ANADEX_REQUIRE(resume_cp.meta == meta,
                   "checkpoint '" + outcome.resumed_from_path +
                       "' was written by a different run configuration");
    guarded.set_report(resume_cp.faults);
    for (const auto& s : resume_cp.history) {
      outcome.history.push_back({s.generation, s.front_area, s.front_size});
    }
  }

  // Shared epilogue for every algorithm's on_snapshot hook: attach the run
  // identity, cumulative faults and history, then write atomically (with
  // rotation and the chaos harness's crash seam).
  robust::CheckpointWriteOptions cp_options;
  cp_options.keep = settings.checkpoint_keep;
  cp_options.hook = settings.checkpoint_write_hook;
  const auto write_cp = [&](robust::CheckpointState state) {
    robust::Checkpoint cp;
    cp.meta = meta;
    cp.faults = guarded.report();
    for (const auto& h : outcome.history) {
      cp.history.push_back({h.generation, h.front_area, h.front_size});
    }
    cp.state = std::move(state);
    robust::write_checkpoint_file(settings.checkpoint_path, cp, cp_options);
  };

  // Wiring shared by every algorithm: seed, execution knobs and telemetry.
  const auto wire_base = [&](auto& params) {
    static_cast<engine::EvalKnobs&>(params) = settings;
    params.seed = settings.seed;
    params.sink = sink;
    if (sink != nullptr) {
      params.trace_hypervolume = [](const moga::Population& front) {
        return hypervolume_of(to_front_samples(front));
      };
    }
  };
  // Plus, for every checkpointable algorithm: stop token, watchdog, the
  // snapshot hook and the resume pointer into the restored state.
  const auto wire_common = [&]<class State>(engine::EvolverCommon<State>& common,
                                            auto&& resumed_generation) {
    wire_base(common);
    common.stop = settings.stop;
    common.eval_deadline_s = watchdog.deadline_s;
    common.eval_cancel = watchdog.token;
    if (checkpointing) {
      common.snapshot_every = settings.checkpoint_every;
      common.on_snapshot = [&write_cp](const State& state) { write_cp(state); };
    }
    if (resumed) {
      const State* stored = std::get_if<State>(&resume_cp.state);
      ANADEX_REQUIRE(stored != nullptr,
                     "checkpoint state does not match the requested algorithm");
      common.resume = stored;
      outcome.resumed_from_generation = resumed_generation(*stored);
    }
  };

  moga::Population front;
  // Every evolver's result carries the front, evaluation counts and cache
  // accounting (with the cache off distinct == requested, cache_hits == 0).
  const auto take = [&](auto&& result) {
    front = std::move(result.front);
    outcome.evaluations = result.evaluations;
    outcome.distinct_evaluations = result.eval_stats.evaluated;
    outcome.cache_hits = result.eval_stats.cache_hits();
    if constexpr (requires { result.generations_run; }) {
      outcome.generations = result.generations_run;
      outcome.interrupted = result.interrupted;
    } else {
      outcome.generations = settings.generations;  // a fixed sweep; never stops early
    }
  };

  // The phase-I cap kept sensible for small total budgets (SACGA, and
  // MESACGA when its span is derived from the budget).
  const std::size_t short_phase1 = std::min<std::size_t>(
      settings.phase1_cap, std::max<std::size_t>(settings.generations / 4, 1));

  const auto start = Clock::now();
  obs::ScopedTimer run_timer(sink, "run", obs::TraceLevel::Eval);

  switch (settings.algo) {
    case Algo::TPG: {
      moga::Nsga2Params params;
      params.population_size = settings.population;
      params.generations = settings.generations;
      wire_common(params, [](const moga::Nsga2State& s) { return s.next_generation; });
      take(moga::run_nsga2(guarded, params, callback));
      break;
    }
    case Algo::LocalOnly: {
      sacga::LocalOnlyParams params;
      params.population_size = settings.population;
      params.partitions = settings.partitions;
      params.axis_objective = 1;
      params.axis_lo = 0.0;
      params.axis_hi = problems::kLoadMax;
      params.generations = settings.generations;
      wire_common(params, [](const sacga::LocalOnlyState& s) { return s.evolver.generation; });
      take(sacga::run_local_only(guarded, params, callback));
      break;
    }
    case Algo::SACGA: {
      sacga::SacgaParams params;
      params.population_size = settings.population;
      params.partitions = settings.partitions;
      params.axis_objective = 1;
      params.axis_lo = 0.0;
      params.axis_hi = problems::kLoadMax;
      params.phase1_max_generations = short_phase1;
      params.span = settings.generations;
      params.span_is_total_budget = true;
      wire_common(params, [](const sacga::SacgaState& s) { return s.evolver.generation; });
      take(sacga::run_sacga(guarded, params, callback));
      break;
    }
    case Algo::MESACGA: {
      sacga::MesacgaParams params;
      params.population_size = settings.population;
      params.partition_schedule = settings.mesacga_schedule;
      params.axis_objective = 1;
      params.axis_lo = 0.0;
      params.axis_hi = problems::kLoadMax;
      params.phase1_max_generations = settings.span == 0 ? short_phase1 : settings.phase1_cap;
      if (settings.span > 0) {
        params.span = settings.span;
      } else {
        ANADEX_REQUIRE(settings.generations > params.phase1_max_generations,
                       "MESACGA budget must exceed the phase-I cap");
        params.total_budget = settings.generations;
      }
      wire_common(params, [](const sacga::MesacgaState& s) { return s.evolver.generation; });
      auto result = sacga::run_mesacga(guarded, params, callback);
      for (const auto& phase : result.phases) {
        PhaseMetric metric;
        metric.phase = phase.phase;
        metric.partitions = phase.partitions;
        metric.front_area = front_area_of(to_front_samples(phase.front));
        outcome.phases.push_back(metric);
      }
      take(std::move(result));
      break;
    }
    case Algo::Island: {
      sacga::IslandParams params = detail::island_params_from(settings);
      wire_common(params, [](const sacga::IslandState& s) { return s.next_generation; });
      take(sacga::run_island_ga(guarded, params, callback));
      break;
    }
    case Algo::WeightedSum: {
      moga::WeightedSumParams params;
      params.weight_count = settings.weight_count;
      params.population_size = std::max<std::size_t>(settings.population / 2, 4) & ~1ULL;
      // Match the evaluation budget of a population-GA run of the same
      // settings: weights * pop/2 * gens_per_weight ~= pop * generations.
      params.generations_per_weight = std::max<std::size_t>(
          2 * settings.generations / settings.weight_count, 1);
      wire_base(params);
      take(moga::run_weighted_sum(guarded, params));
      break;
    }
    case Algo::SPEA2: {
      moga::Spea2Params params;
      params.population_size = settings.population;
      params.archive_size = settings.population;
      params.generations = settings.generations;
      wire_common(params, [](const moga::Spea2State& s) { return s.next_generation; });
      take(moga::run_spea2(guarded, params, callback));
      break;
    }
  }

  outcome.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  outcome.faults = guarded.report();
  detail::set_front(outcome, front);

  run_timer.stop();
  if (sink != nullptr && sink->enabled(obs::TraceLevel::Gen)) {
    // Absent in clean runs: a `fault` record summarizing every evaluation
    // fault the guard absorbed, and a `shutdown` record when the stop token
    // ended the run early. Both are pure observation.
    if (outcome.faults.total_faults() > 0) {
      const obs::Field fault_fields[] = {
          obs::u64("exceptions", outcome.faults.exceptions),
          obs::u64("non_finite", outcome.faults.non_finite),
          obs::u64("wrong_arity", outcome.faults.wrong_arity),
          obs::u64("timeouts", outcome.faults.timeouts),
          obs::u64("retries", outcome.faults.retries),
          obs::u64("recovered", outcome.faults.recovered),
          obs::u64("penalized", outcome.faults.penalized),
      };
      sink->record(obs::Event{"fault", obs::TraceLevel::Gen, false, fault_fields});
    }
    if (outcome.interrupted) {
      const obs::Field stop_fields[] = {obs::u64("generation", outcome.generations)};
      sink->record(obs::Event{"shutdown", obs::TraceLevel::Gen, false, stop_fields});
    }
    const obs::Field fields[] = {
        obs::u64("evaluations", outcome.evaluations),
        obs::u64("generations", outcome.generations),
        obs::u64("front_size", outcome.front.size()),
        obs::f64("front_area", outcome.front_area),
        obs::f64("hv", outcome.hypervolume_norm),
        obs::u64("faults", outcome.faults.total_faults()),
    };
    sink->record(obs::Event{"run_end", obs::TraceLevel::Gen, false, fields});
  }
  return outcome;
}

RunOutcome run(const problems::IntegratorProblem& problem, const RunSettings& settings) {
  Job job(problem, settings);
  return job.run();
}

RunOutcome run(const RunSettings& settings) {
  Job job = Job::from_settings(settings);
  return job.run();
}

}  // namespace anadex::expt
