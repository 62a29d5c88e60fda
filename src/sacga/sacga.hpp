// SACGA — Simulated-Annealing-driven Competition GA (paper §4.4).
//
// Phase I: pure local competition until every partition holds a
// constraint-satisfying solution, capped at `phase1_max_generations`; on
// timeout, partitions still lacking a feasible member are discarded.
//
// Phase II: for `span` generations the annealing schedule (eqns 2–4)
// probabilistically admits locally-superior solutions to global
// competition, transitioning from pure local to (almost) pure global
// pressure. A final global competition over the whole population yields the
// reported Pareto front.
#pragma once

#include <cstdint>
#include <functional>

#include "engine/evolver_common.hpp"
#include "moga/nsga2.hpp"
#include "moga/obs_trace.hpp"
#include "moga/problem.hpp"
#include "sacga/obs_trace.hpp"
#include "sacga/partitioned_evolver.hpp"
#include "sacga/schedule.hpp"

namespace anadex::sacga {

/// Resumable state of a SACGA run: the engine snapshot plus where the
/// two-phase schedule stands. While phase I is still running,
/// `phase1_generations` is meaningless; once `phase1_done` is set it holds
/// the paper's gen_t, which fixes the phase-II span and annealing schedule.
struct SacgaState {
  EvolverSnapshot evolver;
  bool phase1_done = false;
  std::size_t phase1_generations = 0;
};

/// Configuration of a SACGA run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base.
struct SacgaParams : engine::EvolverCommon<SacgaState> {
  std::size_t population_size = 100;
  std::size_t partitions = 8;
  std::size_t axis_objective = 1;  ///< objective whose range is partitioned
  double axis_lo = 0.0;
  double axis_hi = 1.0;
  std::size_t phase1_max_generations = 200;  ///< paper: "a couple of hundred"
  std::size_t span = 600;                    ///< phase-II generations
  /// When true, `span` is the TOTAL generation budget and phase II runs for
  /// span - gen_t generations (the paper reports runs by total iteration
  /// count, e.g. "800 iterations of an 8-partition SACGA").
  bool span_is_total_budget = false;
  std::size_t n_desired = 5;                 ///< eqn 2's n
  double alpha = 1.0;                        ///< eqn 3's alpha
  double t_init = 100.0;                     ///< eqn 4's T_init
  ScheduleShape shape;                       ///< shaping targets for k1/k2/k3
  moga::VariationParams variation;
};

struct SacgaResult {
  moga::Population population;
  moga::Population front;
  std::size_t evaluations = 0;
  std::size_t generations_run = 0;   ///< gen_t + span
  std::size_t phase1_generations = 0;  ///< the paper's gen_t
  std::size_t discarded_partitions = 0;
  engine::EvalStats eval_stats;      ///< requested/distinct/cache-hit accounting
  bool interrupted = false;          ///< stop token ended the run early (snapshotted)
};

/// Runs SACGA. `on_generation` (if given) sees every generation of both
/// phases with a single global generation index. Deterministic per seed.
SacgaResult run_sacga(const moga::Problem& problem, const SacgaParams& params,
                      const moga::GenerationCallback& on_generation = {});

/// Phase I, shared by SACGA and MESACGA: evolves under pure local
/// competition until every active partition holds a feasible member or the
/// evolver has run `max_generations`, then discards the partitions still
/// infeasible. A restored evolver continues from its generation count.
/// Each generation fires `on_generation` and the gen-level trace (phase 0)
/// and ends at `params.barrier()`, whose snapshots `make_state` builds.
/// The stop token is polled before each step, so a stop raised before the
/// run takes zero steps; the last phase-I generation does not poll it.
/// Returns false when the token stopped the run: the discard is skipped,
/// so a resumed run re-enters phase I exactly where it left off.
template <class State, class MakeState>
bool run_phase1(PartitionedEvolver& evolver, std::size_t max_generations,
                const engine::EvolverCommon<State>& params,
                const moga::GenerationCallback& on_generation, const MakeState& make_state) {
  const ParticipationProbability never = [](std::size_t) { return 0.0; };
  const auto running = [&] {
    return evolver.generation() < max_generations && !evolver.all_active_partitions_feasible();
  };
  bool more = running();
  if (more && params.stop_requested(evolver.generation(), make_state)) return false;
  while (more) {
    evolver.step(never);
    const std::size_t gen = evolver.generation() - 1;
    if (on_generation) on_generation(gen, evolver.population());
    moga::trace_generation(params.sink, gen, evolver.evaluations(), evolver.population(),
                           params.trace_hypervolume);
    trace_sacga_generation(params.sink, evolver, gen, /*phase=*/0, nullptr, 0);
    more = running();
    if (params.barrier(evolver.generation(), !more, make_state)) return false;
  }
  evolver.discard_infeasible_partitions();
  return true;
}

}  // namespace anadex::sacga
