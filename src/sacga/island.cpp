#include "sacga/island.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/engine_lease.hpp"
#include "moga/nds.hpp"
#include "moga/obs_trace.hpp"
#include "moga/selection.hpp"

namespace anadex::sacga {

namespace {

/// NSGA-II elitist survivor selection over one island's parent+offspring
/// pool (all members already evaluated). Leaves `island` ranked with
/// crowding distances assigned.
void select_survivors(moga::Population& island, moga::Population&& pool, std::size_t n,
                      moga::RankingScratch& ranking) {
  auto fronts = ranking.sort(pool);
  for (const auto& front : fronts) ranking.crowding(pool, front);

  moga::Population next;
  next.reserve(n);
  for (const auto& front : fronts) {
    if (next.size() + front.size() <= n) {
      for (std::size_t idx : front) next.push_back(std::move(pool[idx]));
    } else {
      std::vector<std::size_t> sorted(front.begin(), front.end());
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return pool[a].crowding > pool[b].crowding;
      });
      for (std::size_t idx : sorted) {
        if (next.size() == n) break;
        next.push_back(std::move(pool[idx]));
      }
    }
    if (next.size() == n) break;
  }
  island = std::move(next);
}

/// Indices of `island` in crowded_less order: best (rank 0, largest
/// crowding) first, worst last.
std::vector<std::size_t> crowded_order(const moga::Population& island) {
  std::vector<std::size_t> order(island.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return moga::crowded_less(island[a], island[b]);
  });
  return order;
}

/// The `migrants` best of `island`, best first. Copies travel the ring.
moga::Population emigrants(const moga::Population& island, std::size_t migrants) {
  const std::vector<std::size_t> order = crowded_order(island);
  moga::Population outgoing;
  for (std::size_t m = 0; m < std::min(migrants, island.size()); ++m) {
    outgoing.push_back(island[order[m]]);
  }
  return outgoing;
}

/// The immigrants (best first) replace the worst members of `destination`,
/// worst replaced first.
void immigrate(moga::Population& destination, moga::Population immigrants) {
  const std::vector<std::size_t> order = crowded_order(destination);
  std::size_t victim = order.size();
  for (auto& migrant : immigrants) {
    if (victim == 0) break;
    --victim;
    destination[order[victim]] = std::move(migrant);
  }
}

}  // namespace

IslandArc::IslandArc(const IslandParams& params, std::vector<std::size_t> owned,
                     const engine::EngineLease& eval)
    : params_(params), eval_(eval), bounds_(eval.problem().bounds()), owned_(std::move(owned)) {
  if (params.resume != nullptr) {
    const IslandState& state = *params.resume;
    ANADEX_REQUIRE(state.islands.size() == owned_.size() &&
                       state.rngs.size() == owned_.size(),
                   "resume state island count does not match params");
    ANADEX_REQUIRE(state.next_generation <= params.generations,
                   "resume state is beyond the configured generation count");
    for (std::size_t k = 0; k < owned_.size(); ++k) {
      ANADEX_REQUIRE(state.islands[k].size() == params.island_population,
                     "resume state island " + std::to_string(owned_[k]) + " holds " +
                         std::to_string(state.islands[k].size()) + " members, expected " +
                         std::to_string(params.island_population));
    }
    islands_ = state.islands;
    for (const auto& rng_state : state.rngs) {
      rngs_.emplace_back(1);
      rngs_.back().set_state(rng_state);
    }
    next_generation_ = state.next_generation;
    evaluations_ = state.evaluations;
    migrations_ = state.migrations;
    return;
  }
  // The master RNG is consumed only by the splits, in ring order, and each
  // island draws its genomes from its own stream — so skipping islands
  // outside the arc changes nothing the owned islands see.
  Rng master(params.seed);
  std::vector<Rng> streams;
  for (std::size_t i = 0; i < params.islands; ++i) streams.push_back(master.split());
  islands_.resize(owned_.size());
  for (std::size_t k = 0; k < owned_.size(); ++k) {
    rngs_.push_back(streams[owned_[k]]);
    islands_[k].resize(params.island_population);
    for (auto& member : islands_[k]) member.genes = moga::random_genome(bounds_, rngs_[k]);
  }
  for (auto& island : islands_) {
    eval.evaluate_members(island);
    evaluations_ += island.size();
  }
  for (auto& island : islands_) {
    auto fronts = ranking_.sort(island);
    for (const auto& front : fronts) ranking_.crowding(island, front);
  }
}

void IslandArc::step() {
  const moga::Preference prefer = moga::crowded_less;
  const std::size_t n = params_.island_population;
  moga::Population children;
  children.reserve(islands_.size() * n);
  for (std::size_t k = 0; k < islands_.size(); ++k) {
    for (auto& genes : moga::make_offspring(islands_[k], bounds_, params_.variation, prefer, n,
                                            rngs_[k])) {
      moga::Individual child;
      child.genes = std::move(genes);
      children.push_back(std::move(child));
    }
  }
  eval_.evaluate_members(children);
  evaluations_ += children.size();
  for (std::size_t k = 0; k < islands_.size(); ++k) {
    moga::Population pool;
    pool.reserve(2 * n);
    for (auto& p : islands_[k]) pool.push_back(std::move(p));
    for (std::size_t j = 0; j < n; ++j) pool.push_back(std::move(children[k * n + j]));
    select_survivors(islands_[k], std::move(pool), n, ranking_);
  }
  ++next_generation_;
}

void IslandArc::migrate(const Send& send, const Receive& receive) {
  const std::size_t ring = params_.islands;
  std::vector<moga::Population> outgoing(islands_.size());
  for (std::size_t k = 0; k < islands_.size(); ++k) {
    outgoing[k] = emigrants(islands_[k], params_.migrants);
  }
  for (std::size_t k = 0; k < islands_.size(); ++k) {
    if (!slot((owned_[k] + 1) % ring)) send(owned_[k], outgoing[k]);
  }
  // Each island receives from exactly one ring predecessor, so the order
  // across destinations is irrelevant.
  for (std::size_t k = 0; k < islands_.size(); ++k) {
    const auto dest = slot((owned_[k] + 1) % ring);
    if (dest) immigrate(islands_[*dest], std::move(outgoing[k]));
  }
  for (std::size_t k = 0; k < islands_.size(); ++k) {
    const std::size_t source = (owned_[k] + ring - 1) % ring;
    if (!slot(source)) immigrate(islands_[k], receive(source));
  }
  ++migrations_;
}

moga::Population IslandArc::combined() const {
  moga::Population all;
  for (const auto& island : islands_) all.insert(all.end(), island.begin(), island.end());
  return all;
}

IslandState IslandArc::state() const {
  IslandState state;
  state.islands = islands_;
  for (const auto& rng : rngs_) state.rngs.push_back(rng.state());
  state.next_generation = next_generation_;
  state.evaluations = evaluations_;
  state.migrations = migrations_;
  return state;
}

std::optional<std::size_t> IslandArc::slot(std::size_t island) const {
  const auto it = std::lower_bound(owned_.begin(), owned_.end(), island);
  if (it == owned_.end() || *it != island) return std::nullopt;
  return static_cast<std::size_t>(it - owned_.begin());
}

IslandResult run_island_ga(const moga::Problem& problem, const IslandParams& params,
                           const moga::GenerationCallback& on_generation) {
  ANADEX_REQUIRE(params.islands >= 2, "island GA needs at least two islands");
  ANADEX_REQUIRE(params.island_population >= 4 && params.island_population % 2 == 0,
                 "island population must be even and >= 4");
  ANADEX_REQUIRE(params.migration_interval >= 1, "migration interval must be >= 1");
  ANADEX_REQUIRE(params.migrants <= params.island_population,
                 "cannot migrate more individuals than an island holds");

  const engine::EngineLease eval(problem, params, params.sink,
                                 engine::EvalWatchdog{params.eval_cancel,
                                                      params.eval_deadline_s});
  std::vector<std::size_t> ring(params.islands);
  std::iota(ring.begin(), ring.end(), 0);
  IslandArc arc(params, std::move(ring), eval);
  IslandResult result;

  for (std::size_t gen = arc.next_generation(); gen < params.generations; ++gen) {
    arc.step();
    const bool migrating = (gen + 1) % params.migration_interval == 0;
    if (migrating) arc.migrate();
    const bool tracing =
        params.sink != nullptr && params.sink->enabled(obs::TraceLevel::Gen);
    if (on_generation || tracing) {
      const moga::Population combined = arc.combined();
      if (on_generation) on_generation(gen, combined);
      moga::trace_generation(params.sink, gen, arc.evaluations(), combined,
                             params.trace_hypervolume);
      if (tracing && migrating) {
        const obs::Field fields[] = {obs::u64("gen", gen),
                                     obs::u64("migrations", arc.migrations())};
        params.sink->record(obs::Event{"migration", obs::TraceLevel::Gen, false, fields});
      }
    }

    if (params.barrier(gen + 1, gen + 1 == params.generations, [&] { return arc.state(); })) {
      result.interrupted = true;
      break;
    }
  }

  result.population = arc.combined();
  result.front = moga::extract_global_front(result.population);
  result.evaluations = arc.evaluations();
  result.generations_run = arc.next_generation();
  result.migrations = arc.migrations();
  result.eval_stats = eval.stats();
  return result;
}

}  // namespace anadex::sacga
