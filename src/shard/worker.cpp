#include "shard/worker.hpp"

#include <cstdio>
#include <fstream>
#include <variant>

#include "common/check.hpp"
#include "engine/engine_lease.hpp"
#include "robust/chaos.hpp"
#include "robust/checkpoint.hpp"
#include "robust/guarded_problem.hpp"
#include "sacga/island.hpp"

namespace anadex::shard {

std::string shard_checkpoint_name(std::size_t shard) {
  return "shard" + std::to_string(shard) + ".cp";
}

std::string shard_final_name(std::size_t shard) {
  return "shard" + std::to_string(shard) + ".final.cp";
}

std::string shard_stats_name(std::size_t shard) {
  return "shard" + std::to_string(shard) + ".stats";
}

std::string shard_config_digest(const expt::RunSettings& settings,
                                const Topology& topology, std::size_t shard) {
  return expt::run_config_digest(settings) + " shard=" + std::to_string(shard) +
         "/" + std::to_string(topology.shards);
}

void run_shard_worker(const moga::Problem& problem, const WorkerContext& ctx) {
  const expt::RunSettings& s = ctx.settings;
  const Topology& topo = ctx.topology;
  ANADEX_REQUIRE(ctx.shard < topo.shards, "shard worker: shard index out of range");
  sacga::IslandParams params = expt::detail::island_params_from(s);
  params.seed = s.seed;

  expt::detail::GuardChain guard(problem, s);
  robust::GuardedProblem& guarded = guard.problem();
  const engine::EngineLease eval(guarded, s, nullptr, guard.watchdog());

  robust::CheckpointMeta meta = expt::detail::checkpoint_meta(s);
  meta.config = shard_config_digest(s, topo, ctx.shard);

  const std::string cp_path = (ctx.dir / shard_checkpoint_name(ctx.shard)).string();
  const EpochBarrier barrier(ctx.dir, ctx.poll, ctx.fsync);

  // Built-in ResumeMode::Auto over the shard's own chain: a relaunched
  // worker picks up its newest valid slot; with no usable slot it starts
  // fresh. The coordinator seeds these partials when the whole run resumes
  // from a canonical checkpoint (possibly written at a different shard
  // count), so this one code path covers fresh start, crash restart and
  // cross-shard-count resume alike.
  const auto recovered = robust::recover_checkpoint(cp_path);
  if (recovered.has_value()) {
    const robust::Checkpoint& cp = recovered->checkpoint;
    ANADEX_REQUIRE(cp.meta == meta,
                   "shard worker: partial checkpoint '" + recovered->path +
                       "' was written by a different run configuration");
    params.resume = std::get_if<sacga::IslandState>(&cp.state);
    ANADEX_REQUIRE(params.resume != nullptr,
                   "shard worker: partial checkpoint holds no island state");
    guarded.set_report(cp.faults);
  }
  sacga::IslandArc arc(params, topo.islands_of(ctx.shard), eval);

  robust::CheckpointWriteOptions cp_options;
  cp_options.keep = s.checkpoint_keep;
  cp_options.fsync = ctx.fsync;
  cp_options.hook = s.checkpoint_write_hook;
  const auto write_partial = [&] {
    robust::Checkpoint cp;
    cp.meta = meta;
    cp.faults = guarded.report();
    cp.state = arc.state();
    robust::write_checkpoint_file(cp_path, cp, cp_options);
    return cp;
  };

  for (std::size_t gen = arc.next_generation(); gen < params.generations; ++gen) {
    arc.step();
    const bool at_epoch = (gen + 1) % params.migration_interval == 0;
    const std::size_t epoch = (gen + 1) / params.migration_interval;
    if (at_epoch) {
      // Cross-shard ring edges go through the barrier's migrant files; the
      // arc publishes all of this epoch's files before the first collect.
      arc.migrate(
          [&](std::size_t island, const moga::Population& emigrants) {
            barrier.publish(epoch, island, emigrants);
          },
          [&](std::size_t source) {
            if (ctx.chaos.has_value() && ctx.chaos->shard == ctx.shard &&
                ctx.chaos->epoch == epoch) {
              // Mid-exchange: migrants published, nothing received — the
              // nastiest instant to die. The relaunched worker replays from
              // its newest partial and republishes byte-identical files.
              throw robust::InjectedCrash("shard chaos: injected crash of shard " +
                                          std::to_string(ctx.shard) + " mid-epoch " +
                                          std::to_string(epoch));
            }
            return barrier.collect(epoch, source);
          });
    }

    const bool at_cp_barrier =
        s.checkpoint_every > 0 && (gen + 1) % s.checkpoint_every == 0;
    const bool stopping =
        at_epoch && ctx.stop_after_epoch > 0 && epoch >= ctx.stop_after_epoch;
    if (at_cp_barrier || stopping) write_partial();
    if (stopping) return;
  }

  // Completion artifacts, in implication order: the chain's newest slot is
  // the final state (a relaunch of a finished worker becomes a no-op
  // replay), the stats summary lands next, and the final checkpoint's
  // atomic rename is the "this shard completed" signal — whoever sees it
  // can rely on everything written before it.
  const robust::Checkpoint final_cp = write_partial();
  const engine::EvalStats stats = eval.stats();
  const std::string stats_path = (ctx.dir / shard_stats_name(ctx.shard)).string();
  const std::string stats_tmp = stats_path + ".tmp";
  {
    std::ofstream os(stats_tmp, std::ios::trunc);
    ANADEX_REQUIRE(os.good(), "shard worker: cannot open '" + stats_tmp + "'");
    os << "anadex-shard-stats v1\n"
       << "stats " << stats.requested << ' ' << stats.evaluated << ' '
       << stats.cache_hits() << '\n';
    os.flush();
    ANADEX_REQUIRE(os.good(), "shard worker: failed writing '" + stats_tmp + "'");
  }
  ANADEX_REQUIRE(std::rename(stats_tmp.c_str(), stats_path.c_str()) == 0,
                 "shard worker: failed renaming '" + stats_path + "' into place");
  robust::CheckpointWriteOptions final_options;
  final_options.keep = 1;
  final_options.fsync = ctx.fsync;
  robust::write_checkpoint_file((ctx.dir / shard_final_name(ctx.shard)).string(),
                                final_cp, final_options);
}

}  // namespace anadex::shard
