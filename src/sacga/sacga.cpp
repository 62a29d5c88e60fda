#include "sacga/sacga.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "moga/obs_trace.hpp"
#include "sacga/obs_trace.hpp"

namespace anadex::sacga {

SacgaResult run_sacga(const moga::Problem& problem, const SacgaParams& params,
                      const moga::GenerationCallback& on_generation) {
  ANADEX_REQUIRE(params.partitions >= 1, "SACGA needs at least one partition");
  ANADEX_REQUIRE(params.span >= 1, "SACGA needs a positive phase-II span");

  const EvolverParams evolver_params = evolver_params_of(params);
  Partitioner partitioner(params.axis_objective, params.axis_lo, params.axis_hi,
                          params.partitions);
  std::optional<PartitionedEvolver> engine;
  bool phase1_done = false;
  std::size_t gen_t = 0;
  if (params.resume != nullptr) {
    engine.emplace(problem, evolver_params, std::move(partitioner), params.resume->evolver);
    phase1_done = params.resume->phase1_done;
    if (phase1_done) gen_t = params.resume->phase1_generations;
  } else {
    engine.emplace(problem, evolver_params, std::move(partitioner), params.seed);
  }
  PartitionedEvolver& evolver = *engine;

  const auto state = [&evolver, &phase1_done, &gen_t] {
    return SacgaState{evolver.snapshot(), phase1_done, gen_t};
  };

  SacgaResult result;
  if (!phase1_done) {
    result.interrupted =
        !run_phase1(evolver, params.phase1_max_generations, params, on_generation, state);
    phase1_done = !result.interrupted;
    gen_t = evolver.generation();
  }
  result.phase1_generations = gen_t;
  for (bool d : evolver.discarded()) {
    if (d) ++result.discarded_partitions;
  }

  if (!result.interrupted) {
    std::size_t span = params.span;
    if (params.span_is_total_budget) {
      ANADEX_REQUIRE(params.span > params.phase1_max_generations,
                     "total budget must exceed the phase-I cap");
      span = std::max<std::size_t>(params.span - result.phase1_generations, 1);
    }

    const AnnealingSchedule schedule = AnnealingSchedule::shaped(
        params.shape, params.alpha, params.t_init, params.n_desired, span);
    if constexpr (kCheckInvariants) schedule.require_monotone_cooling();

    // A restored evolver may already be partway through phase II.
    const std::size_t start_offset =
        evolver.generation() > gen_t ? evolver.generation() - gen_t : 0;
    for (std::size_t offset = start_offset; offset < span; ++offset) {
      const ParticipationProbability prob = [&schedule, offset](std::size_t i) {
        return schedule.participation_probability(i, offset);
      };
      evolver.step(prob);
      if (on_generation) {
        on_generation(result.phase1_generations + offset, evolver.population());
      }
      moga::trace_generation(params.sink, result.phase1_generations + offset,
                             evolver.evaluations(), evolver.population(),
                             params.trace_hypervolume);
      trace_sacga_generation(params.sink, evolver, result.phase1_generations + offset,
                             /*phase=*/1, &schedule, offset);
      if (params.barrier(evolver.generation(), offset + 1 == span, state)) {
        result.interrupted = true;
        break;
      }
    }
  }

  result.front = evolver.global_front();
  result.population = evolver.population();
  result.evaluations = evolver.evaluations();
  result.generations_run = evolver.generation();
  result.eval_stats = evolver.engine().stats();
  return result;
}

}  // namespace anadex::sacga
