// EngineLease: a lease on a shared hub behaves like a private engine, also
// when several leases submit at once from concurrent hub tasks — the shape
// of a serve wave.
#include "engine/engine_lease.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine_handle.hpp"
#include "engine/eval_engine.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::engine {
namespace {

/// `count` in-bounds designs; `offset` shifts the sweep, and the sweep
/// wraps every 12 designs so consecutive batches repeat some of them.
std::vector<moga::Individual> make_members(const moga::Problem& problem,
                                           std::size_t count, std::size_t offset) {
  const auto bounds = problem.bounds();
  std::vector<moga::Individual> members(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t design = (i + offset) % 12;
    members[i].genes.resize(bounds.size());
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      const double t = static_cast<double>(design * bounds.size() + k + 1) /
                       static_cast<double>(12 * bounds.size() + 1);
      members[i].genes[k] = bounds[k].lower + t * (bounds[k].upper - bounds[k].lower);
    }
  }
  return members;
}

std::vector<std::uint64_t> bits(const std::vector<moga::Individual>& members) {
  std::vector<std::uint64_t> out;
  for (const moga::Individual& m : members) {
    for (const double v : m.eval.objectives) out.push_back(std::bit_cast<std::uint64_t>(v));
    for (const double v : m.eval.violations) out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

TEST(EngineLease, SharedLeasesInConcurrentTasksMatchPrivateLeases) {
  const std::vector<problems::IntegratorProblem> problems_by_job = [] {
    std::vector<problems::IntegratorProblem> out;
    const auto& suite = problems::spec_suite();
    for (std::size_t j = 0; j < 4; ++j) out.emplace_back(suite[j]);
    return out;
  }();
  constexpr std::size_t kBatches = 3;
  const auto batch = [&](std::size_t job, std::size_t b) {
    return make_members(problems_by_job[job], 10, job + 4 * b);
  };

  // Private leases: each job on its own cached serial engine.
  std::vector<std::vector<std::uint64_t>> expected(problems_by_job.size());
  std::vector<EvalStats> expected_stats;
  for (std::size_t job = 0; job < problems_by_job.size(); ++job) {
    const EngineLease lease(problems_by_job[job], EngineHandle{}, 1, nullptr, 256);
    for (std::size_t b = 0; b < kBatches; ++b) {
      auto members = batch(job, b);
      lease.evaluate_members(members);
      const auto batch_bits = bits(members);
      expected[job].insert(expected[job].end(), batch_bits.begin(), batch_bits.end());
    }
    expected_stats.push_back(lease.stats());
  }

  // Shared leases on one 4-thread hub, all jobs at once.
  EvalEngine hub(4, nullptr, 256);
  std::vector<std::vector<std::uint64_t>> got(problems_by_job.size());
  std::vector<EvalStats> got_stats(problems_by_job.size());
  hub.run_tasks(problems_by_job.size(), [&](std::size_t job) {
    const EngineLease lease(problems_by_job[job], EngineHandle{&hub, job + 1}, 1, nullptr, 0);
    EXPECT_TRUE(lease.shared());
    for (std::size_t b = 0; b < kBatches; ++b) {
      auto members = batch(job, b);
      lease.evaluate_members(members);
      const auto batch_bits = bits(members);
      got[job].insert(got[job].end(), batch_bits.begin(), batch_bits.end());
    }
    got_stats[job] = lease.stats();
  });

  for (std::size_t job = 0; job < problems_by_job.size(); ++job) {
    EXPECT_EQ(got[job], expected[job]) << "job " << job;
    EXPECT_EQ(got_stats[job].requested, expected_stats[job].requested) << "job " << job;
    EXPECT_EQ(got_stats[job].evaluated, expected_stats[job].evaluated) << "job " << job;
    EXPECT_EQ(got_stats[job].lru_hits, expected_stats[job].lru_hits) << "job " << job;
    EXPECT_GT(got_stats[job].lru_hits, 0u) << "job " << job;
  }
}

}  // namespace
}  // namespace anadex::engine
