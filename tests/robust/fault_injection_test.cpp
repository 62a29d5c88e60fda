#include "robust/fault_injection.hpp"

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "problems/analytic.hpp"
#include "robust/guarded_problem.hpp"

namespace anadex::robust {
namespace {

std::shared_ptr<const moga::Problem> zdt1() {
  return std::shared_ptr<const moga::Problem>(problems::make_zdt1(4));
}

std::vector<double> random_genome(Rng& rng) {
  std::vector<double> genes(4);
  for (double& g : genes) g = rng.uniform();
  return genes;
}

TEST(FaultInjection, ZeroRatesPassThrough) {
  FaultInjectingProblem injected(zdt1(), FaultInjectionConfig{});
  const auto inner = problems::make_zdt1(4);
  const std::vector<double> genes{0.1, 0.2, 0.3, 0.4};
  const auto a = injected.evaluated(genes);
  const auto b = inner->evaluated(genes);
  EXPECT_EQ(a.objectives, b.objectives);
  EXPECT_EQ(injected.counters().evaluations, 1u);
  EXPECT_EQ(injected.counters().exceptions, 0u);
  EXPECT_EQ(injected.counters().nans, 0u);
}

TEST(FaultInjection, CertainExceptionRateAlwaysThrows) {
  FaultInjectionConfig config;
  config.exception_rate = 1.0;
  FaultInjectingProblem injected(zdt1(), config);
  moga::Evaluation out;
  EXPECT_THROW(injected.evaluate(std::vector<double>{0.5, 0.5, 0.5, 0.5}, out), InjectedFault);
  EXPECT_EQ(injected.counters().exceptions, 1u);
}

TEST(FaultInjection, CertainNanRateCorruptsOneObjective) {
  FaultInjectionConfig config;
  config.nan_rate = 1.0;
  FaultInjectingProblem injected(zdt1(), config);
  const auto eval = injected.evaluated(std::vector<double>{0.5, 0.5, 0.5, 0.5});
  std::size_t nan_count = 0;
  for (double v : eval.objectives) {
    if (std::isnan(v)) ++nan_count;
  }
  EXPECT_EQ(nan_count, 1u);
  EXPECT_EQ(injected.counters().nans, 1u);
}

TEST(FaultInjection, DecisionsAreAPureFunctionOfTheGenome) {
  FaultInjectionConfig config;
  config.exception_rate = 0.3;
  config.nan_rate = 0.3;
  FaultInjectingProblem injected(zdt1(), config);

  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto genes = random_genome(rng);
    moga::Evaluation first;
    moga::Evaluation second;
    bool first_threw = false;
    bool second_threw = false;
    try {
      injected.evaluate(genes, first);
    } catch (const InjectedFault&) {
      first_threw = true;
    }
    try {
      injected.evaluate(genes, second);
    } catch (const InjectedFault&) {
      second_threw = true;
    }
    EXPECT_EQ(first_threw, second_threw);
    if (!first_threw) {
      // NaN != NaN, so compare slots through their classification.
      ASSERT_EQ(first.objectives.size(), second.objectives.size());
      for (std::size_t k = 0; k < first.objectives.size(); ++k) {
        if (std::isnan(first.objectives[k])) {
          EXPECT_TRUE(std::isnan(second.objectives[k]));
        } else {
          EXPECT_EQ(first.objectives[k], second.objectives[k]);
        }
      }
    }
  }
}

TEST(FaultInjection, ObservedRatesTrackConfiguredRates) {
  FaultInjectionConfig config;
  config.exception_rate = 0.1;
  config.nan_rate = 0.1;
  FaultInjectingProblem injected(zdt1(), config);

  Rng rng(7);
  const std::size_t trials = 4000;
  for (std::size_t i = 0; i < trials; ++i) {
    moga::Evaluation out;
    try {
      injected.evaluate(random_genome(rng), out);
    } catch (const InjectedFault&) {
    }
  }
  const auto& c = injected.counters();
  EXPECT_EQ(c.evaluations, trials);
  EXPECT_NEAR(static_cast<double>(c.exceptions) / static_cast<double>(trials), 0.1, 0.03);
  // NaN draws only happen on non-throwing calls (~90% of them).
  EXPECT_NEAR(static_cast<double>(c.nans) / static_cast<double>(trials), 0.09, 0.03);
}

TEST(FaultInjection, SlowPathCountsAndStillEvaluates) {
  FaultInjectionConfig config;
  config.slow_rate = 1.0;
  config.slow_spin_iterations = 1000;
  FaultInjectingProblem injected(zdt1(), config);
  const auto eval = injected.evaluated(std::vector<double>{0.5, 0.5, 0.5, 0.5});
  EXPECT_EQ(eval.objectives.size(), 2u);
  EXPECT_EQ(injected.counters().slow, 1u);
}

TEST(FaultInjection, CountersAddUpAcrossConcurrentEvaluators) {
  // Engine workers call one injector's evaluate() concurrently. The fault
  // draws are a pure function of the genome, so the concurrent totals must
  // equal those of the same genomes evaluated on one thread, exactly.
  FaultInjectionConfig config;
  config.exception_rate = 0.2;
  config.nan_rate = 0.2;
  config.slow_rate = 0.1;
  config.slow_spin_iterations = 64;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 2000;
  Rng rng(11);
  std::vector<std::vector<double>> genomes(kThreads * kPerThread);
  for (auto& genes : genomes) genes = random_genome(rng);

  const auto run = [&](const FaultInjectingProblem& injected, std::size_t begin,
                       std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      moga::Evaluation out;
      try {
        injected.evaluate(genomes[i], out);
      } catch (const InjectedFault&) {
      }
    }
  };
  FaultInjectingProblem serial(zdt1(), config);
  run(serial, 0, genomes.size());
  FaultInjectingProblem shared(zdt1(), config);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back(run, std::cref(shared), t * kPerThread, (t + 1) * kPerThread);
  }
  for (std::thread& worker : workers) worker.join();

  const FaultInjectionCounters want = serial.counters();
  const FaultInjectionCounters got = shared.counters();
  EXPECT_EQ(got.evaluations, genomes.size());
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.exceptions, want.exceptions);
  EXPECT_EQ(got.nans, want.nans);
  EXPECT_EQ(got.slow, want.slow);
  EXPECT_GT(want.exceptions, 0u);
  EXPECT_GT(want.nans, 0u);
  EXPECT_GT(want.slow, 0u);
}

TEST(FaultInjection, RejectsOutOfRangeRates) {
  FaultInjectionConfig bad;
  bad.nan_rate = 1.5;
  EXPECT_THROW(FaultInjectingProblem(zdt1(), bad), PreconditionError);
  EXPECT_THROW(FaultInjectingProblem(nullptr, FaultInjectionConfig{}), PreconditionError);
}

TEST(FaultInjection, GuardAbsorbsEveryInjectedFault) {
  FaultInjectionConfig config;
  config.exception_rate = 0.2;
  config.nan_rate = 0.2;
  auto injected = std::make_shared<FaultInjectingProblem>(zdt1(), config);
  GuardedProblem guard(injected, GuardPolicy{});

  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto eval = guard.evaluated(random_genome(rng));
    for (double v : eval.objectives) EXPECT_TRUE(std::isfinite(v));
  }
  // Every injected fault passed through the guard, so the two sides of the
  // pipeline must agree exactly.
  EXPECT_EQ(guard.report().exceptions, injected->counters().exceptions);
  EXPECT_EQ(guard.report().non_finite, injected->counters().nans);
}

}  // namespace
}  // namespace anadex::robust
