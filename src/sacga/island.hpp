// Island-model multi-objective GA — the diversity-preservation alternative
// the paper cites (§4.1): "A known method of diversity preservation is
// parallel population GA with inter-population migration controlled in a
// tribe or island based framework, which can be extended for Multi-
// objective GA." Implemented here as a comparison baseline: several
// independent NSGA-II-style sub-populations with periodic ring migration
// of front members. SACGA's claim is that its single-population local/
// global mixing achieves the same diversity more simply.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine_lease.hpp"
#include "engine/evolver_common.hpp"
#include "moga/nds.hpp"
#include "moga/nsga2.hpp"
#include "moga/operators.hpp"
#include "moga/problem.hpp"

namespace anadex::sacga {

/// Resumable state of an island-GA run: every island's ranked population
/// and private RNG stream, plus the cumulative counters. (The master RNG is
/// only used to seed the islands at initialization, so it is not stored.)
struct IslandState {
  std::vector<moga::Population> islands;
  std::vector<RngState> rngs;  ///< parallel to `islands`
  std::size_t next_generation = 0;
  std::size_t evaluations = 0;
  std::size_t migrations = 0;
};

/// Configuration of an island-GA run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base. Offspring of ALL
/// islands are evaluated as one batch per generation, so the worker pool
/// stays busy even with small per-island populations.
struct IslandParams : engine::EvolverCommon<IslandState> {
  std::size_t islands = 4;             ///< sub-population count (>= 2)
  std::size_t island_population = 25;  ///< members per island (even, >= 4)
  std::size_t generations = 800;
  std::size_t migration_interval = 25; ///< generations between migrations
  std::size_t migrants = 2;            ///< individuals sent to the next island
  moga::VariationParams variation;
};

struct IslandResult {
  moga::Population population;  ///< union of all islands at the end
  moga::Population front;       ///< feasible non-dominated set of the union
  std::size_t evaluations = 0;
  std::size_t generations_run = 0;
  std::size_t migrations = 0;
  engine::EvalStats eval_stats;  ///< requested/distinct/cache-hit accounting
  bool interrupted = false;      ///< stop token ended the run early (snapshotted)
};

/// Runs the island GA: each island evolves with NSGA-II ranking; every
/// `migration_interval` generations the best (rank-0, most isolated)
/// `migrants` of each island replace the worst members of the next island
/// in the ring. Deterministic per seed.
IslandResult run_island_ga(const moga::Problem& problem, const IslandParams& params,
                           const moga::GenerationCallback& on_generation = {});

/// The island GA's evolving core over an arc of the migration ring: the
/// arc's island populations, their private RNG streams and the cumulative
/// counters. run_island_ga drives it over the whole ring and a shard worker
/// (src/shard) over the arc it owns, so a shard-local island starts,
/// breeds, competes and migrates byte-identically to the same island inside
/// a solo run — by construction, not by mirrored code.
class IslandArc {
 public:
  /// Ring edges that leave or enter the arc (unused when it is the whole
  /// ring): `send(island, emigrants)` ships the emigrants of an owned island
  /// whose successor lies outside the arc; `receive(island)` returns what
  /// `island`, the outside predecessor of an owned island, sent to it.
  using Send = std::function<void(std::size_t, const moga::Population&)>;
  using Receive = std::function<moga::Population(std::size_t)>;

  /// `owned` lists the arc's ring indices, ascending. With params.resume
  /// set, continues from that state, which must hold exactly the owned
  /// islands with params.island_population members each (PreconditionError
  /// naming the island otherwise). Without, starts fresh: splits EVERY
  /// island's private stream from params.seed in ring order, then draws,
  /// evaluates (one batch per island) and ranks the owned islands. `params`
  /// and `eval` must outlive the arc.
  IslandArc(const IslandParams& params, std::vector<std::size_t> owned,
            const engine::EngineLease& eval);

  /// One generation: every island breeds from its own stream, the arc's
  /// offspring are evaluated as ONE batch, and each island keeps its
  /// NSGA-II elitist survivors.
  void step();

  /// Ring migration: the `migrants` best of each island (rank 0, most
  /// isolated) replace the worst of its ring successor. Every owned
  /// island's emigrants are selected before any island receives, and every
  /// `send` happens before the first `receive`.
  void migrate(const Send& send = {}, const Receive& receive = {});

  std::size_t next_generation() const { return next_generation_; }
  std::size_t evaluations() const { return evaluations_; }
  std::size_t migrations() const { return migrations_; }
  /// The union of the owned islands, in ring-index order.
  moga::Population combined() const;
  IslandState state() const;

 private:
  /// Position of ring island `island` in owned_, if the arc owns it.
  std::optional<std::size_t> slot(std::size_t island) const;

  const IslandParams& params_;
  const engine::EngineLease& eval_;
  std::vector<moga::VariableBound> bounds_;
  std::vector<std::size_t> owned_;
  std::vector<moga::Population> islands_;  ///< parallel to owned_
  std::vector<Rng> rngs_;                  ///< parallel to owned_
  std::size_t next_generation_ = 0;
  std::size_t evaluations_ = 0;
  std::size_t migrations_ = 0;
  moga::RankingScratch ranking_;  ///< SoA buffers shared by all islands
};

}  // namespace anadex::sacga
