#include "sacga/local_only.hpp"

#include <optional>

#include "common/check.hpp"
#include "moga/obs_trace.hpp"
#include "sacga/obs_trace.hpp"

namespace anadex::sacga {

LocalOnlyResult run_local_only(const moga::Problem& problem, const LocalOnlyParams& params,
                               const moga::GenerationCallback& on_generation) {
  const EvolverParams evolver_params = evolver_params_of(params);
  Partitioner partitioner(params.axis_objective, params.axis_lo, params.axis_hi,
                          params.partitions);
  std::optional<PartitionedEvolver> engine;
  if (params.resume != nullptr) {
    ANADEX_REQUIRE(params.resume->evolver.generation <= params.generations,
                   "resume state is beyond the configured generation count");
    engine.emplace(problem, evolver_params, std::move(partitioner), params.resume->evolver);
  } else {
    engine.emplace(problem, evolver_params, std::move(partitioner), params.seed);
  }
  PartitionedEvolver& evolver = *engine;

  const ParticipationProbability never = [](std::size_t) { return 0.0; };
  bool interrupted = false;
  for (std::size_t gen = evolver.generation(); gen < params.generations; ++gen) {
    evolver.step(never);
    if (on_generation) on_generation(gen, evolver.population());
    moga::trace_generation(params.sink, gen, evolver.evaluations(), evolver.population(),
                           params.trace_hypervolume);
    trace_sacga_generation(params.sink, evolver, gen, /*phase=*/0, nullptr, 0);
    if (params.barrier(evolver.generation(), gen + 1 == params.generations,
                       [&evolver] { return LocalOnlyState{evolver.snapshot()}; })) {
      interrupted = true;
      break;
    }
  }

  LocalOnlyResult result;
  result.front = evolver.global_front();
  result.population = evolver.population();
  result.evaluations = evolver.evaluations();
  result.generations_run = evolver.generation();
  result.eval_stats = evolver.engine().stats();
  result.interrupted = interrupted;
  return result;
}

}  // namespace anadex::sacga
