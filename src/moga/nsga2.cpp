#include "moga/nsga2.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "engine/engine_lease.hpp"
#include "moga/dominance.hpp"
#include "moga/nds.hpp"
#include "moga/obs_trace.hpp"
#include "moga/selection.hpp"

namespace anadex::moga {

Nsga2Result run_nsga2(const Problem& problem, const Nsga2Params& params,
                      const GenerationCallback& on_generation) {
  ANADEX_REQUIRE(params.population_size >= 4 && params.population_size % 2 == 0,
                 "population size must be even and >= 4");
  const auto bounds = problem.bounds();
  ANADEX_REQUIRE(bounds.size() == problem.num_variables(),
                 "problem bounds size must equal num_variables");

  const engine::EngineLease eval(problem, params, params.sink,
                                 engine::EvalWatchdog{params.eval_cancel,
                                                      params.eval_deadline_s});
  Rng rng(params.seed);
  Nsga2Result result;

  Population parents;
  RankingScratch ranking;  // SoA buffers reused across generations
  std::vector<std::vector<std::size_t>> fronts;
  std::size_t start_generation = 0;
  if (params.resume != nullptr) {
    const Nsga2State& state = *params.resume;
    ANADEX_REQUIRE(state.parents.size() == params.population_size,
                   "resume state population size does not match params");
    ANADEX_REQUIRE(state.next_generation <= params.generations,
                   "resume state is beyond the configured generation count");
    parents = state.parents;
    rng.set_state(state.rng);
    result.evaluations = state.evaluations;
    result.generations_run = state.next_generation;
    start_generation = state.next_generation;
  } else {
    parents.resize(params.population_size);
    for (auto& parent : parents) parent.genes = random_genome(bounds, rng);
    eval.evaluate_members(parents);
    result.evaluations += params.population_size;

    // Initial ranking so tournament preferences are defined from generation 0.
    fronts = ranking.sort(parents);
    for (const auto& front : fronts) ranking.crowding(parents, front);
  }

  const Preference prefer = [](const Individual& a, const Individual& b) {
    return crowded_less(a, b);
  };

  for (std::size_t gen = start_generation; gen < params.generations; ++gen) {
    auto offspring_genes = make_offspring(parents, bounds, params.variation, prefer,
                                          params.population_size, rng);

    Population combined;
    combined.reserve(2 * params.population_size);
    for (auto& p : parents) combined.push_back(std::move(p));
    for (auto& genes : offspring_genes) {
      Individual child;
      child.genes = std::move(genes);
      combined.push_back(std::move(child));
    }
    // One batch per generation: all offspring evaluated together.
    eval.evaluate_members(
        std::span<Individual>(combined).subspan(params.population_size));
    result.evaluations += params.population_size;

    fronts = ranking.sort(combined);
    for (const auto& front : fronts) ranking.crowding(combined, front);

    Population next;
    next.reserve(params.population_size);
    for (const auto& front : fronts) {
      if (next.size() + front.size() <= params.population_size) {
        for (std::size_t idx : front) next.push_back(std::move(combined[idx]));
      } else {
        std::vector<std::size_t> sorted(front.begin(), front.end());
        std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
          return combined[a].crowding > combined[b].crowding;
        });
        for (std::size_t idx : sorted) {
          if (next.size() == params.population_size) break;
          next.push_back(std::move(combined[idx]));
        }
      }
      if (next.size() == params.population_size) break;
    }
    ANADEX_ASSERT(next.size() == params.population_size,
                  "survivor selection must fill the population exactly");
    parents = std::move(next);

    if (on_generation) on_generation(gen, parents);
    trace_generation(params.sink, gen, result.evaluations, parents,
                     params.trace_hypervolume);
    ++result.generations_run;

    const auto state = [&] {
      return Nsga2State{parents, rng.state(), gen + 1, result.evaluations};
    };
    if (params.barrier(gen + 1, gen + 1 == params.generations, state)) {
      result.interrupted = true;
      break;
    }
  }

  result.front = extract_global_front(parents);
  result.population = std::move(parents);
  result.eval_stats = eval.stats();
  return result;
}

Population extract_global_front(const Population& population) {
  Population front;
  for (const auto& candidate : population) {
    if (!candidate.feasible()) continue;
    bool is_dominated = false;
    for (const auto& other : population) {
      if (&other == &candidate || !other.feasible()) continue;
      if (dominates(other.eval.objectives, candidate.eval.objectives)) {
        is_dominated = true;
        break;
      }
    }
    if (!is_dominated) front.push_back(candidate);
  }
  return front;
}

}  // namespace anadex::moga
