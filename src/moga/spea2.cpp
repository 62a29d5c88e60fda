#include "moga/spea2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/engine_lease.hpp"
#include "moga/dominance.hpp"
#include "moga/obs_trace.hpp"
#include "moga/selection.hpp"

namespace anadex::moga {

namespace {

/// Objective-space Euclidean distance.
double distance(const Individual& a, const Individual& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.eval.objectives.size(); ++i) {
    const double d = a.eval.objectives[i] - b.eval.objectives[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// SPEA2 fitness over the combined pool: strength-based raw fitness plus
/// k-NN density, plus a feasibility penalty. Lower is better.
std::vector<double> spea2_fitness(const Population& pool) {
  const std::size_t n = pool.size();
  std::vector<std::size_t> strength(n, 0);  // how many each individual dominates
  std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (constrained_dominates(pool[i], pool[j])) {
        dom[i][j] = true;
        ++strength[i];
      }
    }
  }

  std::vector<double> fitness(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double raw = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (dom[j][i]) raw += static_cast<double>(strength[j]);
    }
    fitness[i] = raw;
  }

  // Density: 1 / (sigma_k + 2) with k = sqrt(pool size), clamped into the
  // valid neighbour range for tiny pools.
  const auto k = std::min(static_cast<std::size_t>(std::sqrt(static_cast<double>(n))),
                          n >= 2 ? n - 2 : 0);
  std::vector<double> dists;
  dists.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    dists.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) dists.push_back(distance(pool[i], pool[j]));
    }
    std::nth_element(dists.begin(), dists.begin() + static_cast<long>(k), dists.end());
    fitness[i] += 1.0 / (dists[k] + 2.0);
    // Feasibility penalty keeps infeasible individuals behind all feasible.
    fitness[i] += pool[i].total_violation() * 1e3;
  }
  return fitness;
}

/// Truncates `members` (all mutually nondominated-ish) to `target` by
/// repeatedly removing the individual with the smallest nearest-neighbour
/// distance (ties broken by the next-nearest, approximated here by the
/// smallest sum of two nearest distances).
void truncate_archive(Population& members, std::size_t target) {
  while (members.size() > target) {
    const std::size_t n = members.size();
    std::size_t victim = 0;
    double victim_key = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      double nearest = std::numeric_limits<double>::infinity();
      double second = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double d = distance(members[i], members[j]);
        if (d < nearest) {
          second = nearest;
          nearest = d;
        } else if (d < second) {
          second = d;
        }
      }
      const double key = nearest + 1e-6 * second;
      if (key < victim_key) {
        victim_key = key;
        victim = i;
      }
    }
    members.erase(members.begin() + static_cast<long>(victim));
  }
}

}  // namespace

Spea2Result run_spea2(const Problem& problem, const Spea2Params& params,
                      const GenerationCallback& on_generation) {
  ANADEX_REQUIRE(params.population_size >= 4 && params.population_size % 2 == 0,
                 "population size must be even and >= 4");
  ANADEX_REQUIRE(params.archive_size >= 2, "archive size must be >= 2");

  const auto bounds = problem.bounds();
  const engine::EngineLease eval(problem, params, params.sink,
                                 engine::EvalWatchdog{params.eval_cancel,
                                                      params.eval_deadline_s});
  Rng rng(params.seed);
  Spea2Result result;

  Population population;
  Population archive;
  std::size_t start_generation = 0;
  if (params.resume != nullptr) {
    const Spea2State& state = *params.resume;
    ANADEX_REQUIRE(state.population.size() == params.population_size,
                   "resume state population size does not match params");
    ANADEX_REQUIRE(state.next_generation <= params.generations,
                   "resume state is beyond the configured generation count");
    population = state.population;
    archive = state.archive;
    rng.set_state(state.rng);
    result.evaluations = state.evaluations;
    result.generations_run = state.next_generation;
    start_generation = state.next_generation;
  } else {
    population.resize(params.population_size);
    for (auto& member : population) member.genes = random_genome(bounds, rng);
    eval.evaluate_members(population);
    result.evaluations += params.population_size;
  }

  for (std::size_t gen = start_generation; gen < params.generations; ++gen) {
    Population pool = archive;
    pool.insert(pool.end(), population.begin(), population.end());

    const auto fitness = spea2_fitness(pool);
    // Store fitness in the (otherwise unused) crowding slot, negated so the
    // shared tournament preference "larger crowding wins" selects the
    // LOWER SPEA2 fitness; rank ties at 0.
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool[i].rank = 0;
      pool[i].crowding = -fitness[i];
    }

    // Environmental selection: all with fitness < 1 (nondominated), then
    // truncate or fill to archive_size.
    Population next_archive;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (fitness[i] < 1.0) next_archive.push_back(pool[i]);
    }
    if (next_archive.size() > params.archive_size) {
      truncate_archive(next_archive, params.archive_size);
    } else if (next_archive.size() < params.archive_size) {
      std::vector<std::size_t> order(pool.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return fitness[a] < fitness[b]; });
      for (std::size_t idx : order) {
        if (next_archive.size() == params.archive_size) break;
        if (fitness[idx] >= 1.0) next_archive.push_back(pool[idx]);
      }
    }
    archive = std::move(next_archive);

    // Mating selection from the archive (binary tournament on fitness).
    const Preference prefer = [](const Individual& a, const Individual& b) {
      return a.crowding > b.crowding;  // negated fitness: larger wins
    };
    auto offspring = make_offspring(archive, bounds, params.variation, prefer,
                                    params.population_size, rng);
    population.clear();
    for (auto& genes : offspring) {
      Individual child;
      child.genes = std::move(genes);
      population.push_back(std::move(child));
    }
    // One batch per generation: the whole offspring population at once.
    eval.evaluate_members(population);
    result.evaluations += population.size();

    ++result.generations_run;
    if (on_generation) on_generation(gen, archive);
    if (params.sink != nullptr && params.sink->enabled(obs::TraceLevel::Gen)) {
      // The filled archive reuses rank 0 for every member, so pass the true
      // non-dominated front explicitly.
      trace_generation(params.sink, gen, result.evaluations, archive,
                       extract_global_front(archive), params.trace_hypervolume);
    }

    const auto state = [&] {
      return Spea2State{population, archive, rng.state(), gen + 1, result.evaluations};
    };
    if (params.barrier(gen + 1, gen + 1 == params.generations, state)) {
      result.interrupted = true;
      break;
    }
  }

  result.front = extract_global_front(archive);
  result.archive = std::move(archive);
  result.eval_stats = eval.stats();
  return result;
}

}  // namespace anadex::moga
