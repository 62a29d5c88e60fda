// The determinism matrix (docs/engine.md): every evolver must produce a
// bit-identical final population, front and evaluation count for every
// evaluation thread count AND every eval-cache capacity, and a checkpoint
// taken under one thread/cache setting must resume bit-identically under
// another — `threads` and `eval_cache` are execution knobs, never part of
// the result.
//
// One case table (an evolver's problem, params and runner) crossed with one
// test body per axis. Each cell registers as DeterminismMatrix.<case><axis>,
// e.g. DeterminismMatrix.SacgaIsCacheInvariant.
#include <cstddef>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "moga/nsga2.hpp"
#include "moga/scalarize.hpp"
#include "moga/serialize.hpp"
#include "moga/spea2.hpp"
#include "problems/analytic.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"

namespace anadex::engine {
namespace {

std::string exact_bytes(const moga::Population& population) {
  std::ostringstream os;
  moga::save_population_exact(os, population);
  return os.str();
}

/// What every axis compares: the result bytes (final population or archive
/// plus front; WeightedSum: front plus every weight's winner) and the
/// evaluation accounting, plus the island GA's migration count.
struct Outcome {
  std::string bytes;
  std::size_t evaluations = 0;
  EvalStats eval_stats;
  std::size_t migrations = 0;
};

/// One row of the case table.
struct MatrixCase {
  std::string name;             ///< test-name stem of the thread and cache axes
  std::string checkpoint_name;  ///< stem of the checkpoint axes; empty = no resumable state
  /// Runs the evolver under the given execution knobs.
  std::function<Outcome(const EvalKnobs&)> run;
  /// Snapshots a run every 3 generations under the given knobs, then
  /// resumes its earliest snapshot serially with no cache.
  std::function<Outcome(const EvalKnobs&)> resume_earliest_snapshot;
};

template <class Params, class Run, class Bytes>
MatrixCase make_case(std::string name, std::string checkpoint_name,
                     std::shared_ptr<const moga::Problem> problem, Params base, Run run,
                     Bytes bytes) {
  const auto outcome = [bytes](const auto& result) {
    Outcome o;
    o.bytes = bytes(result);
    o.evaluations = result.evaluations;
    o.eval_stats = result.eval_stats;
    if constexpr (requires { result.migrations; }) o.migrations = result.migrations;
    return o;
  };
  MatrixCase c{std::move(name), std::move(checkpoint_name), {}, {}};
  c.run = [=](const EvalKnobs& knobs) {
    Params params = base;
    static_cast<EvalKnobs&>(params) = knobs;
    return outcome(run(*problem, params));
  };
  if constexpr (requires { base.resume; }) {
    c.resume_earliest_snapshot = [=](const EvalKnobs& knobs) {
      Params snapshotting = base;
      static_cast<EvalKnobs&>(snapshotting) = knobs;
      snapshotting.snapshot_every = 3;
      std::vector<std::remove_cvref_t<decltype(*base.resume)>> states;
      snapshotting.on_snapshot = [&](const auto& s) { states.push_back(s); };
      (void)run(*problem, snapshotting);
      if (states.empty()) {
        ADD_FAILURE() << "the snapshotting run wrote no snapshot";
        return Outcome{};
      }
      Params resumed = base;  // threads = 1, cache off
      resumed.resume = &states.front();
      return outcome(run(*problem, resumed));
    };
  }
  return c;
}

std::string population_and_front(const auto& result) {
  return exact_bytes(result.population) + exact_bytes(result.front);
}

std::vector<MatrixCase> matrix_cases() {
  const std::shared_ptr<const moga::Problem> kur = problems::make_kur();
  const std::shared_ptr<const moga::Problem> sch = problems::make_sch();
  std::vector<MatrixCase> cases;

  moga::Nsga2Params nsga2;
  nsga2.population_size = 16;
  nsga2.generations = 10;
  nsga2.seed = 5;
  cases.push_back(make_case(
      "Nsga2", "Nsga2", kur, nsga2,
      [](const moga::Problem& p, const moga::Nsga2Params& q) { return moga::run_nsga2(p, q); },
      [](const moga::Nsga2Result& r) { return population_and_front(r); }));

  moga::Spea2Params spea2;
  spea2.population_size = 16;
  spea2.archive_size = 12;
  spea2.generations = 10;
  spea2.seed = 5;
  cases.push_back(make_case(
      "Spea2", "Spea2", kur, spea2,
      [](const moga::Problem& p, const moga::Spea2Params& q) { return moga::run_spea2(p, q); },
      [](const moga::Spea2Result& r) {
        return exact_bytes(r.archive) + exact_bytes(r.front);
      }));

  sacga::LocalOnlyParams local_only;
  local_only.population_size = 16;
  local_only.partitions = 4;
  local_only.axis_objective = 0;
  local_only.axis_lo = 0.0;
  local_only.axis_hi = 4.0;
  local_only.generations = 10;
  local_only.seed = 7;
  cases.push_back(make_case(
      "LocalOnly", "LocalOnly", sch, local_only,
      [](const moga::Problem& p, const sacga::LocalOnlyParams& q) {
        return sacga::run_local_only(p, q);
      },
      [](const sacga::LocalOnlyResult& r) { return population_and_front(r); }));

  sacga::SacgaParams sacga;
  sacga.population_size = 16;
  sacga.partitions = 4;
  sacga.axis_objective = 0;
  sacga.axis_lo = 0.0;
  sacga.axis_hi = 4.0;
  sacga.phase1_max_generations = 6;
  sacga.span = 16;
  sacga.span_is_total_budget = true;
  sacga.seed = 3;
  cases.push_back(make_case(
      "Sacga", "Sacga", sch, sacga,
      [](const moga::Problem& p, const sacga::SacgaParams& q) {
        return sacga::run_sacga(p, q);
      },
      [](const sacga::SacgaResult& r) { return population_and_front(r); }));

  sacga::MesacgaParams mesacga;
  mesacga.population_size = 16;
  mesacga.partition_schedule = {4, 2, 1};
  mesacga.axis_objective = 0;
  mesacga.axis_lo = 0.0;
  mesacga.axis_hi = 4.0;
  mesacga.phase1_max_generations = 4;
  mesacga.span = 4;
  mesacga.seed = 11;
  cases.push_back(make_case(
      "Mesacga", "Mesacga", sch, mesacga,
      [](const moga::Problem& p, const sacga::MesacgaParams& q) {
        return sacga::run_mesacga(p, q);
      },
      [](const sacga::MesacgaResult& r) { return population_and_front(r); }));

  sacga::IslandParams island;
  island.islands = 3;
  island.island_population = 8;
  island.generations = 9;
  island.migration_interval = 4;
  island.migrants = 1;
  island.seed = 13;
  cases.push_back(make_case(
      "IslandGa", "Island", kur, island,
      [](const moga::Problem& p, const sacga::IslandParams& q) {
        return sacga::run_island_ga(p, q);
      },
      [](const sacga::IslandResult& r) { return population_and_front(r); }));

  moga::WeightedSumParams weighted_sum;
  weighted_sum.weight_count = 4;
  weighted_sum.population_size = 12;
  weighted_sum.generations_per_weight = 8;
  weighted_sum.seed = 17;
  cases.push_back(make_case(
      "WeightedSum", "", sch, weighted_sum,
      [](const moga::Problem& p, const moga::WeightedSumParams& q) {
        return moga::run_weighted_sum(p, q);
      },
      [](const moga::WeightedSumResult& r) {
        return exact_bytes(r.front) + exact_bytes(r.all_winners);
      }));
  return cases;
}

EvalKnobs knobs(std::size_t threads, std::size_t eval_cache = 0) {
  EvalKnobs k;
  k.threads = threads;
  k.eval_cache = eval_cache;
  return k;
}

// ---- threads in {1, 2, 8} produce identical results -----------------------

void expect_thread_count_invariant(const MatrixCase& c) {
  const Outcome serial = c.run(knobs(1));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const Outcome parallel = c.run(knobs(threads));
    EXPECT_EQ(parallel.bytes, serial.bytes) << "threads = " << threads;
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
    EXPECT_EQ(parallel.migrations, serial.migrations);
  }
}

// ---- eval cache on/off x threads {1, 2, 8} produce identical results ------

/// Runs the evolver once without the cache (serial), then with a 64-entry
/// dedup cache under 1, 2 and 8 evaluation threads. Every cell of the
/// matrix must produce the same bytes and the same requested-evaluation
/// count; only the distinct-evaluation accounting may differ.
void expect_cache_invariant(const MatrixCase& c) {
  const Outcome baseline = c.run(knobs(1));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const Outcome with_cache = c.run(knobs(threads, 64));
    EXPECT_EQ(with_cache.bytes, baseline.bytes) << "threads = " << threads;
    EXPECT_EQ(with_cache.evaluations, baseline.evaluations);
    EXPECT_EQ(with_cache.eval_stats.requested, baseline.eval_stats.requested);
    // The cache never invents work: dispatched <= requested.
    EXPECT_LE(with_cache.eval_stats.evaluated, with_cache.eval_stats.requested);
    EXPECT_EQ(with_cache.eval_stats.evaluated + with_cache.eval_stats.cache_hits(),
              with_cache.eval_stats.requested);
  }
}

// ---- a checkpoint under threads = 8 resumes bit-identically serially ------

void expect_checkpoint_crosses_thread_counts(const MatrixCase& c) {
  const Outcome full = c.run(knobs(1));
  const Outcome resumed = c.resume_earliest_snapshot(knobs(8));
  EXPECT_EQ(resumed.bytes, full.bytes);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
}

// ---- a checkpoint under a cache resumes bit-identically without one -------

/// Checkpoint bytes carry no cache state, so a snapshot of a cached
/// parallel run must resume, cache off, onto the uncached run.
void expect_checkpoint_crosses_cache_settings(const MatrixCase& c) {
  const Outcome full = c.run(knobs(1));
  const Outcome resumed = c.resume_earliest_snapshot(knobs(2, 64));
  EXPECT_EQ(resumed.bytes, full.bytes);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
}

class MatrixCell : public testing::Test {
 public:
  explicit MatrixCell(std::function<void()> body) : body_(std::move(body)) {}
  void TestBody() override { body_(); }

 private:
  std::function<void()> body_;
};

void register_cell(const std::string& test_name, const MatrixCase& c,
                   void (*axis)(const MatrixCase&)) {
  testing::RegisterTest("DeterminismMatrix", test_name.c_str(), nullptr, nullptr, __FILE__,
                        __LINE__, [c, axis]() -> testing::Test* {
                          return new MatrixCell([c, axis] { axis(c); });
                        });
}

[[maybe_unused]] const bool kMatrixRegistered = [] {
  for (const MatrixCase& c : matrix_cases()) {
    register_cell(c.name + "IsThreadCountInvariant", c, expect_thread_count_invariant);
    register_cell(c.name + "IsCacheInvariant", c, expect_cache_invariant);
    if (c.checkpoint_name.empty()) continue;
    register_cell(c.checkpoint_name + "CheckpointCrossesThreadCounts", c,
                  expect_checkpoint_crosses_thread_counts);
    register_cell(c.checkpoint_name + "CheckpointCrossesCacheSettings", c,
                  expect_checkpoint_crosses_cache_settings);
  }
  return true;
}();

}  // namespace
}  // namespace anadex::engine
