// The evolutionary engine shared by LocalOnlyGA, SACGA and MESACGA.
//
// Per generation (paper Fig. 3):
//   1. A GLOBAL mating pool produces offspring (binary tournament over the
//      whole population, SBX crossover + polynomial mutation).
//   2. Parents and offspring are combined and assigned to partitions by the
//      partition-axis objective.
//   3. LOCAL competition: constrained non-dominated sorting + crowding
//      within each partition ("local rank"; local rank 0 = locally
//      superior).
//   4. Each partition's locally-superior solutions are visited in a freshly
//      randomized order; the i-th is admitted to GLOBAL competition with the
//      caller-supplied probability prob(i). Admitted candidates are globally
//      non-dominated sorted and their rank is REVISED to the global rank.
//   5. Survivor selection keeps the best population_size individuals by
//      (revised rank, crowding). Since every partition's local front shares
//      rank 0 when nothing is admitted globally, pure local competition
//      preserves every partition; as admissions rise, globally dominated
//      solutions sink and convergence pressure grows.
//
// Members of discarded partitions (phase-I timeout, paper §4.4) are pushed
// to the back of the survivor ordering so they are only retained when the
// active partitions cannot fill the population.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine_lease.hpp"
#include "engine/eval_knobs.hpp"
#include "moga/individual.hpp"
#include "moga/nds.hpp"
#include "moga/operators.hpp"
#include "moga/problem.hpp"
#include "sacga/partition.hpp"

namespace anadex::sacga {

/// Inner-evolver configuration common to the SACGA family, built from a
/// front-end's params by evolver_params_of(). The engine::EvalKnobs base
/// carries the pure execution knobs (threads / eval_cache / engine /
/// batch_eval, engine::EvolverCommon semantics, all result-invariant).
struct EvolverParams : engine::EvalKnobs {
  std::size_t population_size = 100;  ///< must be even and >= 4
  moga::VariationParams variation;
  /// Non-owning telemetry sink forwarded to the EvalEngine (batch timing at
  /// eval level); nullptr disables. Tracing never alters results.
  obs::EventSink* sink = nullptr;
  /// Stuck-eval watchdog (engine::EvolverCommon semantics): per-batch
  /// deadline in seconds (0 = off) and the token the watchdog raises.
  double eval_deadline_s = 0.0;
  CancelToken* eval_cancel = nullptr;
};

/// The inner-evolver configuration of a SACGA-family front-end (LocalOnly,
/// SACGA, MESACGA): its execution knobs, population size, variation and
/// the telemetry and watchdog wiring of its engine::EvolverCommon base.
template <class FrontEndParams>
EvolverParams evolver_params_of(const FrontEndParams& params) {
  EvolverParams evolver_params;
  static_cast<engine::EvalKnobs&>(evolver_params) = params;
  evolver_params.population_size = params.population_size;
  evolver_params.variation = params.variation;
  evolver_params.sink = params.sink;
  evolver_params.eval_deadline_s = params.eval_deadline_s;
  evolver_params.eval_cancel = params.eval_cancel;
  return evolver_params;
}

/// Probability that the i-th (1-based) locally-superior solution of a
/// partition joins global competition this generation. Returning 0 for all
/// i yields pure local competition; 1 for all i yields pure global
/// competition.
using ParticipationProbability = std::function<double(std::size_t i)>;

/// Complete mid-run state of a PartitionedEvolver. Restoring it (see the
/// restore constructor) reproduces the remaining generations bit-for-bit:
/// the population carries the rank/crowding that drive the next tournament,
/// `rng` is the full generator state, and `partitions` pins the partitioner
/// geometry active at snapshot time (MESACGA varies it per phase).
struct EvolverSnapshot {
  moga::Population population;
  std::vector<bool> discarded;
  std::size_t partitions = 0;
  RngState rng;
  std::size_t evaluations = 0;
  std::size_t generation = 0;
};

/// Evolutionary engine with partition-local competition and probabilistic
/// global-rank revision.
class PartitionedEvolver {
 public:
  /// Creates and evaluates a random initial population.
  PartitionedEvolver(const moga::Problem& problem, const EvolverParams& params,
                     Partitioner partitioner, std::uint64_t seed);

  /// Restores an evolver mid-run from a snapshot. Performs no evaluations
  /// and draws nothing from the RNG, so the continuation is identical to
  /// the run the snapshot was taken from. `partitioner` must have the
  /// snapshot's partition count.
  PartitionedEvolver(const moga::Problem& problem, const EvolverParams& params,
                     Partitioner partitioner, const EvolverSnapshot& snapshot);

  /// Captures the full engine state for checkpointing.
  EvolverSnapshot snapshot() const;

  /// Runs one generation with the given participation policy.
  void step(const ParticipationProbability& prob);

  /// Replaces the partitioner (MESACGA phase transition). Re-ranks the
  /// current population under the new partitions and clears discard flags.
  void set_partitioner(Partitioner partitioner);

  const Partitioner& partitioner() const { return partitioner_; }
  const moga::Population& population() const { return population_; }
  std::size_t evaluations() const { return evaluations_; }
  std::size_t generation() const { return generation_; }

  /// The evolver's evaluation seam (for requested/distinct/cache-hit
  /// accounting; see engine::EvalStats). A private engine or a lease on
  /// the serve scheduler's shared hub, per params.engine.
  const engine::EngineLease& engine() const { return engine_; }

  /// True when every non-discarded partition currently holds at least one
  /// feasible individual AND at least one partition is populated.
  bool all_active_partitions_feasible() const;

  /// Marks partitions with no feasible member as discarded (end of phase I
  /// on timeout). Returns the number of partitions discarded.
  std::size_t discard_infeasible_partitions();

  /// Indices of partitions currently discarded.
  const std::vector<bool>& discarded() const { return discarded_; }

  /// Per-partition occupancy snapshot of the current population — the
  /// paper's partition-dynamics observable (telemetry; see
  /// docs/observability.md). Index p counts members assigned to partition p.
  struct PartitionStats {
    std::vector<std::uint64_t> occupancy;
    std::vector<std::uint64_t> feasible;
    std::uint64_t discarded = 0;  ///< number of discarded partitions
  };
  PartitionStats partition_stats() const;

  /// Performs the final global competition on the entire population and
  /// returns the feasible non-dominated front (paper: "Global Competition
  /// is performed once on the entire population").
  moga::Population global_front() const;

 private:
  struct MemberInfo {
    std::size_t partition = 0;
    int local_rank = 0;
    bool discarded_partition = false;
  };

  /// Ranks `pool` (partition assignment, local NDS + crowding, global rank
  /// revision with the given policy); fills `info` parallel to `pool`.
  void rank_pool(moga::Population& pool, std::vector<MemberInfo>& info,
                 const ParticipationProbability& prob);

  const moga::Problem& problem_;
  EvolverParams params_;
  engine::EngineLease engine_;
  Partitioner partitioner_;
  std::vector<moga::VariableBound> bounds_;
  Rng rng_;
  moga::Population population_;
  moga::RankingScratch ranking_;  ///< SoA buffers reused across partitions/generations
  std::vector<MemberInfo> info_;  ///< parallel to population_
  std::vector<bool> discarded_;
  std::size_t evaluations_ = 0;
  std::size_t generation_ = 0;
};

}  // namespace anadex::sacga
