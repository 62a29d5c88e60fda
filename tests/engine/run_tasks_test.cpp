// EvalEngine::run_tasks — the pool running whole client tasks instead of
// lane groups: every task runs exactly once and the lowest-index exception
// wins, a batch submitted from inside a task runs serially on its worker
// as one evaluate_lanes() call, concurrent clients get the results of a
// serial engine, and the frozen-then-staged cache keeps each client's hit
// counts independent of timing while each stage stays within the cache's
// capacity.
#include "engine/eval_engine.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::engine {
namespace {

/// Deterministic in-bounds genomes; `offset` shifts the sweep so different
/// clients submit different designs.
std::vector<Genome> make_genomes(const moga::Problem& problem, std::size_t count,
                                 std::size_t offset) {
  const auto bounds = problem.bounds();
  std::vector<Genome> genomes(count);
  for (std::size_t i = 0; i < count; ++i) {
    genomes[i].resize(bounds.size());
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      const double t = static_cast<double>((i + offset) * bounds.size() + k + 1) /
                       static_cast<double>((count + offset) * bounds.size() + 1);
      genomes[i][k] = bounds[k].lower + t * (bounds[k].upper - bounds[k].lower);
    }
  }
  return genomes;
}

std::vector<moga::Individual> members_of(const moga::Problem& problem, std::size_t count,
                                         std::size_t offset) {
  std::vector<moga::Individual> members;
  for (const Genome& genes : make_genomes(problem, count, offset)) {
    members.push_back(moga::Individual{genes, {}});
  }
  return members;
}

std::vector<std::uint64_t> bits(const moga::Evaluation& e) {
  std::vector<std::uint64_t> out;
  for (const double v : e.objectives) out.push_back(std::bit_cast<std::uint64_t>(v));
  for (const double v : e.violations) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(EvalEngineTasks, EveryTaskRunsOnceAndTheLowestIndexExceptionWins) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const EvalEngine hub(threads);
    std::vector<std::atomic<int>> runs(16);
    try {
      hub.run_tasks(runs.size(), [&](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == 11 || i == 3 || i == 7) throw std::runtime_error("task " + std::to_string(i));
      });
      ADD_FAILURE() << "threads=" << threads << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "threads=" << threads;
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " task " << i;
    }
  }
}

TEST(EvalEngineTasks, SingleTaskRunsOnTheCallingThread) {
  const EvalEngine hub(4);
  std::thread::id ran_on;
  hub.run_tasks(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // Without a pool every task runs here, in index order.
  const EvalEngine serial(1);
  std::vector<std::size_t> order;
  serial.run_tasks(3, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), ran_on);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(EvalEngineTasks, EachBatchSubmittedFromATaskIsOneLaneCall) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  EvalEngine hub(4);
  hub.set_batch_eval(BatchEval::Simd);
  constexpr std::size_t kTasks = 4;
  constexpr std::size_t kBatches = 2;
  constexpr std::size_t kItems = 37;  // several lane groups, not a multiple
  std::vector<std::vector<moga::Individual>> members;
  for (std::size_t t = 0; t < kTasks; ++t) members.push_back(members_of(problem, kItems, t * kItems));
  hub.run_tasks(kTasks, [&](std::size_t t) {
    for (std::size_t b = 0; b < kBatches; ++b) {
      hub.evaluate_members_as(problem, t + 1, members[t]);
    }
  });
  EXPECT_EQ(hub.lane_groups(), kTasks * kBatches);
  EXPECT_EQ(hub.lane_items(), kTasks * kBatches * kItems);
  EXPECT_EQ(hub.lane_fallbacks(), 0u);
  // The same batch from the caller itself still fans out over the pool.
  hub.evaluate_members_as(problem, 1, members[0]);
  EXPECT_GT(hub.lane_groups(), kTasks * kBatches + 1);
}

/// Six clients, three overlapping batches each, through a hub whose
/// 64-entry cache overflows; returns every result and client's stats.
struct ClientRun {
  std::vector<std::vector<moga::Evaluation>> results;
  std::vector<EvalStats> stats;
};

ClientRun run_clients(const moga::Problem& problem, std::size_t threads,
                      std::size_t waves) {
  EvalEngine hub(threads, nullptr, 64);
  hub.set_batch_eval(BatchEval::Simd);
  constexpr std::size_t kClients = 6;
  ClientRun run;
  run.results.resize(kClients);
  run.stats.resize(kClients);
  for (std::size_t wave = 0; wave < waves; ++wave) {
    hub.run_tasks(kClients, [&](std::size_t c) {
      for (std::size_t b = 0; b < 3; ++b) {
        // Batches overlap their predecessors, so the cache has work to do.
        auto members = members_of(problem, 20, c * 7 + b * 5 + wave * 3);
        hub.evaluate_members_as(problem, c + 1, members, &run.stats[c]);
        for (const moga::Individual& m : members) run.results[c].push_back(m.eval);
      }
    });
  }
  return run;
}

TEST(EvalEngineTasks, ConcurrentClientsMatchASerialEngineWithTimingFreeHitCounts) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  const ClientRun reference = run_clients(problem, 1, 3);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const ClientRun first = run_clients(problem, threads, 3);
    const ClientRun second = run_clients(problem, threads, 3);
    for (std::size_t c = 0; c < reference.results.size(); ++c) {
      ASSERT_EQ(first.results[c].size(), reference.results[c].size());
      for (std::size_t i = 0; i < reference.results[c].size(); ++i) {
        EXPECT_EQ(bits(first.results[c][i]), bits(reference.results[c][i]))
            << "threads=" << threads << " client " << c << " item " << i;
      }
      EXPECT_EQ(first.stats[c].requested, reference.stats[c].requested);
      EXPECT_EQ(first.stats[c].lru_hits, second.stats[c].lru_hits)
          << "threads=" << threads << " client " << c;
      EXPECT_EQ(first.stats[c].evaluated, second.stats[c].evaluated)
          << "threads=" << threads << " client " << c;
    }
  }
}

TEST(EvalEngineTasks, TheCacheIsFrozenWhileTasksRun) {
  // Capacity 10: client 2's ten inserts would evict client 1's ten entries.
  // Client 1 looks its entries up only after client 2 has inserted, yet
  // hits every one, because inserts wait for the end of the tasks.
  const problems::IntegratorProblem problem(problems::chosen_spec());
  const EvalEngine hub(2, nullptr, 10);
  auto mine = members_of(problem, 10, 0);
  auto theirs = members_of(problem, 10, 50);
  hub.evaluate_members_as(problem, 1, mine);
  std::atomic<bool> theirs_done{false};
  EvalStats again;
  hub.run_tasks(2, [&](std::size_t t) {
    if (t == 1) {
      hub.evaluate_members_as(problem, 2, theirs);
      theirs_done.store(true);
      return;
    }
    while (!theirs_done.load()) std::this_thread::yield();
    hub.evaluate_members_as(problem, 1, mine, &again);
  });
  EXPECT_EQ(again.lru_hits, 10u);
  // Committed in context order: client 1's refreshes, then client 2's
  // inserts, which evict them.
  EvalStats after_mine;
  EvalStats after_theirs;
  hub.evaluate_members_as(problem, 2, theirs, &after_theirs);
  EXPECT_EQ(after_theirs.lru_hits, 10u);
  hub.evaluate_members_as(problem, 1, mine, &after_mine);
  EXPECT_EQ(after_mine.lru_hits, 0u);
}

TEST(EvalEngineTasks, StagedEntriesEnterTheCacheWhenTheTasksFinish) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  const EvalEngine hub(4, nullptr, 1024);
  std::vector<std::vector<moga::Individual>> members;
  for (std::size_t c = 0; c < 3; ++c) members.push_back(members_of(problem, 10, c * 10));
  std::vector<EvalStats> during(members.size());
  hub.run_tasks(members.size(), [&](std::size_t c) {
    hub.evaluate_members_as(problem, c + 1, members[c], &during[c]);
    // A client sees its own staged entries within the same run_tasks call.
    hub.evaluate_members_as(problem, c + 1, members[c], &during[c]);
  });
  for (std::size_t c = 0; c < members.size(); ++c) {
    EXPECT_EQ(during[c].evaluated, 10u) << "client " << c;
    EXPECT_EQ(during[c].lru_hits, 10u) << "client " << c;
    EvalStats after;
    hub.evaluate_members_as(problem, c + 1, members[c], &after);
    EXPECT_EQ(after.lru_hits, 10u) << "client " << c;
  }
  EXPECT_EQ(hub.stats().evaluated, 30u);
}

TEST(EvalEngineTasks, AStageHoldsAtMostTheCacheCapacity) {
  // Capacity 10: a client stages 15 new designs in one run_tasks call. Its
  // stage keeps the last ten touched, so those hit again and the first
  // five are evaluated anew.
  const problems::IntegratorProblem problem(problems::chosen_spec());
  const EvalEngine hub(2, nullptr, 10);
  const auto all = members_of(problem, 15, 0);
  std::vector<moga::Individual> first(all.begin(), all.begin() + 5);
  std::vector<moga::Individual> last(all.begin() + 5, all.end());
  auto staged = all;
  EvalStats stats_last;
  EvalStats stats_first;
  hub.run_tasks(2, [&](std::size_t t) {
    if (t == 1) return;
    hub.evaluate_members_as(problem, 1, staged);
    hub.evaluate_members_as(problem, 1, last, &stats_last);
    hub.evaluate_members_as(problem, 1, first, &stats_first);
  });
  EXPECT_EQ(stats_last.lru_hits, 10u);
  EXPECT_EQ(stats_first.lru_hits, 0u);
  EXPECT_EQ(stats_first.evaluated, 5u);
  EXPECT_EQ(hub.stats().evaluated, 20u);
}

}  // namespace
}  // namespace anadex::engine
