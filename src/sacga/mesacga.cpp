#include "sacga/mesacga.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "moga/obs_trace.hpp"
#include "sacga/obs_trace.hpp"

namespace anadex::sacga {

MesacgaResult run_mesacga(const moga::Problem& problem, const MesacgaParams& params,
                          const moga::GenerationCallback& on_generation) {
  ANADEX_REQUIRE(!params.partition_schedule.empty(),
                 "MESACGA needs at least one phase in the partition schedule");
  for (std::size_t i = 0; i < params.partition_schedule.size(); ++i) {
    ANADEX_REQUIRE(params.partition_schedule[i] >= 1, "phase partition count must be >= 1");
    if (i > 0) {
      ANADEX_REQUIRE(params.partition_schedule[i] <= params.partition_schedule[i - 1],
                     "MESACGA partition schedule must be non-increasing");
    }
  }
  ANADEX_REQUIRE(params.span >= 1, "MESACGA needs a positive per-phase span");

  const EvolverParams evolver_params = evolver_params_of(params);
  std::optional<PartitionedEvolver> engine;
  MesacgaResult result;
  bool phase1_done = false;
  std::size_t gen_t = 0;
  if (params.resume != nullptr) {
    const MesacgaState& state = *params.resume;
    engine.emplace(problem, evolver_params,
                   Partitioner(params.axis_objective, params.axis_lo, params.axis_hi,
                               state.evolver.partitions),
                   state.evolver);
    phase1_done = state.phase1_done;
    if (phase1_done) gen_t = state.phase1_generations;
    result.phases = state.phases;
  } else {
    engine.emplace(problem, evolver_params,
                   Partitioner(params.axis_objective, params.axis_lo, params.axis_hi,
                               params.partition_schedule.front()),
                   params.seed);
  }
  PartitionedEvolver& evolver = *engine;

  const auto state = [&evolver, &phase1_done, &gen_t, &result] {
    return MesacgaState{evolver.snapshot(), phase1_done, gen_t, result.phases};
  };

  if (!phase1_done) {
    result.interrupted =
        !run_phase1(evolver, params.phase1_max_generations, params, on_generation, state);
    phase1_done = !result.interrupted;
    gen_t = evolver.generation();
  }
  result.phase1_generations = gen_t;

  std::size_t span = params.span;
  if (params.total_budget > 0) {
    ANADEX_REQUIRE(params.total_budget > params.phase1_max_generations,
                   "total budget must exceed the phase-I cap");
    span = std::max<std::size_t>((params.total_budget - result.phase1_generations) /
                                     params.partition_schedule.size(),
                                 1);
  }

  const std::size_t phase_count = params.partition_schedule.size();
  // Continuous annealing cools one schedule over the whole multi-phase run;
  // per-phase annealing restarts a span-long schedule in each phase.
  const AnnealingSchedule whole_run_schedule = AnnealingSchedule::shaped(
      params.shape, params.alpha, params.t_init, params.n_desired, span * phase_count);
  const AnnealingSchedule per_phase_schedule = AnnealingSchedule::shaped(
      params.shape, params.alpha, params.t_init, params.n_desired, span);
  if constexpr (kCheckInvariants) {
    whole_run_schedule.require_monotone_cooling();
    per_phase_schedule.require_monotone_cooling();
  }

  // A restored evolver may be partway through some phase; its position
  // follows from the generation counter and gen_t.
  const std::size_t completed = evolver.generation() - gen_t;
  const std::size_t start_phase = completed / span;
  const std::size_t start_offset = completed % span;

  std::size_t generation = evolver.generation();
  for (std::size_t phase = start_phase; !result.interrupted && phase < phase_count;
       ++phase) {
    // A mid-phase resume re-enters with the phase's partitioner already
    // restored; re-partitioning here would desynchronize the RNG stream.
    const bool entering_fresh = phase != start_phase || start_offset == 0;
    if (phase > 0 && entering_fresh) {
      // Expand partitions: fewer, wider bins over the same axis range.
      evolver.set_partitioner(Partitioner(params.axis_objective, params.axis_lo,
                                          params.axis_hi, params.partition_schedule[phase]));
    }
    if (entering_fresh) {
      trace_phase_marker(params.sink, "phase_start", phase + 1,
                         params.partition_schedule[phase], generation,
                         /*front_size=*/0);
    }
    const AnnealingSchedule& schedule =
        params.continuous_annealing ? whole_run_schedule : per_phase_schedule;

    for (std::size_t offset = phase == start_phase ? start_offset : 0; offset < span;
         ++offset) {
      const std::size_t schedule_offset =
          params.continuous_annealing ? phase * span + offset : offset;
      const ParticipationProbability prob = [&schedule, schedule_offset](std::size_t i) {
        return schedule.participation_probability(i, schedule_offset);
      };
      evolver.step(prob);
      if (on_generation) on_generation(generation, evolver.population());
      moga::trace_generation(params.sink, generation, evolver.evaluations(),
                             evolver.population(), params.trace_hypervolume);
      trace_sacga_generation(params.sink, evolver, generation, phase + 1, &schedule,
                             schedule_offset);
      ++generation;

      if (offset + 1 == span) {
        PhaseSnapshot snap;
        snap.phase = phase + 1;
        snap.partitions = params.partition_schedule[phase];
        snap.generation = generation;
        snap.front = evolver.global_front();
        trace_phase_marker(params.sink, "phase_end", phase + 1,
                           params.partition_schedule[phase], generation,
                           snap.front.size());
        result.phases.push_back(std::move(snap));
      }
      // The barrier follows phase_end, so a snapshot taken at a phase
      // boundary carries the phase it closes.
      if (params.barrier(evolver.generation(), phase + 1 == phase_count && offset + 1 == span,
                         state)) {
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
