// Shard worker: one process/thread's slice of a sharded island-GA run.
//
// A worker owns a contiguous arc of the island ring (shard/topology.hpp)
// and drives the same island core as the solo run, sacga::IslandArc, over
// exactly those islands, so every owned island's byte stream is identical
// to the same island inside run_island_ga. Cross-shard ring edges are
// exchanged through migrant files at migration-epoch barriers
// (shard/barrier.hpp).
//
// Durability: the worker checkpoints its partial state (owned islands +
// their RNG streams + shard-local counters) into its own rotated v2
// checkpoint chain, `shard<K>.cp`, at the run's checkpoint cadence and at
// the final barrier. Startup ALWAYS attempts recover_checkpoint on that
// chain (ResumeMode::Auto semantics), so restarting a crashed worker is a
// plain relaunch: it resumes from its newest valid slot, replays the tail
// deterministically (republished migrant files are byte-identical, the
// peers' files are still in the spool) and rejoins the barrier.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>

#include "expt/runner.hpp"
#include "moga/problem.hpp"
#include "shard/barrier.hpp"
#include "shard/topology.hpp"

namespace anadex::shard {

/// Chaos seam for the kill-one-shard drill (tests; mirrors ChaosPlan's
/// kill_generation): the named shard throws robust::InjectedCrash at the
/// named epoch AFTER publishing its migrant files but BEFORE receiving its
/// peers' — the nastiest instant, mid-exchange. Armed only on a worker's first life;
/// the supervisor's relaunch then proves crash recovery.
struct WorkerChaos {
  std::size_t shard = 0;
  std::size_t epoch = 1;
};

/// Everything a worker needs to run its slice. `settings` is the GLOBAL
/// run configuration (already validated); the worker derives its island
/// parameters through expt::detail::island_params_from, exactly like the
/// solo path.
struct WorkerContext {
  expt::RunSettings settings;
  Topology topology;
  std::size_t shard = 0;
  std::filesystem::path dir;  ///< exchange spool directory
  PollConfig poll;
  /// Stop (with a partial checkpoint) after completing this epoch's
  /// exchange; 0 = run the full generation budget. Test seam for
  /// cross-shard-count resume.
  std::size_t stop_after_epoch = 0;
  /// fsync partial checkpoints and migrant-file durability is always on;
  /// this only gates the partial-checkpoint fsync for benchmarks that
  /// measure pure scale-out (a durability knob, never a result knob).
  bool fsync = true;
  std::optional<WorkerChaos> chaos;
};

/// Spool-relative checkpoint chain base and completion artifacts.
std::string shard_checkpoint_name(std::size_t shard);  ///< "shard<K>.cp"
std::string shard_final_name(std::size_t shard);       ///< "shard<K>.final.cp"
std::string shard_stats_name(std::size_t shard);       ///< "shard<K>.stats"

/// The config digest a shard's partial checkpoints carry: the solo digest
/// (expt::run_config_digest) salted with the shard's identity, so a partial
/// can never be confused with a canonical checkpoint or with a partial of a
/// different shard count.
std::string shard_config_digest(const expt::RunSettings& settings,
                                const Topology& topology, std::size_t shard);

/// Runs the worker to completion (or to `stop_after_epoch`). On success the
/// shard's final state is at `shard<K>.final.cp` and its eval-stats summary
/// at `shard<K>.stats`. Throws on injected chaos, corrupt state or an
/// exhausted barrier budget — the supervisor decides whether to relaunch.
void run_shard_worker(const moga::Problem& problem, const WorkerContext& ctx);

}  // namespace anadex::shard
