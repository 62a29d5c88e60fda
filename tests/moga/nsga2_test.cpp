#include "moga/nsga2.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "moga/dominance.hpp"
#include "moga/metrics.hpp"
#include "problems/analytic.hpp"

namespace anadex::moga {
namespace {

Nsga2Params quick_params(std::size_t generations = 100, std::uint64_t seed = 1) {
  Nsga2Params p;
  p.population_size = 60;
  p.generations = generations;
  p.seed = seed;
  return p;
}

TEST(Nsga2, RejectsOddOrTinyPopulation) {
  const auto problem = problems::make_sch();
  Nsga2Params p = quick_params();
  p.population_size = 3;
  EXPECT_THROW(run_nsga2(*problem, p), PreconditionError);
  p.population_size = 7;
  EXPECT_THROW(run_nsga2(*problem, p), PreconditionError);
}

TEST(Nsga2, PopulationSizeInvariant) {
  const auto problem = problems::make_sch();
  const auto result = run_nsga2(*problem, quick_params(10));
  EXPECT_EQ(result.population.size(), 60u);
}

TEST(Nsga2, EvaluationCountIsInitPlusPerGeneration) {
  const auto problem = problems::make_sch();
  const auto result = run_nsga2(*problem, quick_params(10));
  EXPECT_EQ(result.evaluations, 60u + 10u * 60u);
  EXPECT_EQ(result.generations_run, 10u);
}

TEST(Nsga2, DeterministicForFixedSeed) {
  const auto problem = problems::make_zdt1(10);
  const auto a = run_nsga2(*problem, quick_params(30, 42));
  const auto b = run_nsga2(*problem, quick_params(30, 42));
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].genes, b.front[i].genes);
  }
}

TEST(Nsga2, DifferentSeedsDiffer) {
  const auto problem = problems::make_zdt1(10);
  const auto a = run_nsga2(*problem, quick_params(30, 1));
  const auto b = run_nsga2(*problem, quick_params(30, 2));
  bool any_difference = a.front.size() != b.front.size();
  for (std::size_t i = 0; !any_difference && i < a.front.size(); ++i) {
    any_difference = a.front[i].genes != b.front[i].genes;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Nsga2, CallbackSeesEveryGeneration) {
  const auto problem = problems::make_sch();
  std::size_t calls = 0;
  std::size_t last_gen = 0;
  run_nsga2(*problem, quick_params(25), [&](std::size_t gen, const Population& pop) {
    ++calls;
    last_gen = gen;
    EXPECT_EQ(pop.size(), 60u);
  });
  EXPECT_EQ(calls, 25u);
  EXPECT_EQ(last_gen, 24u);
}

TEST(Nsga2, SchFrontConvergesToKnownCurve) {
  // SCH Pareto set: x in [0, 2]; front: f2 = (sqrt(f1) - 2)^2.
  const auto problem = problems::make_sch();
  const auto result = run_nsga2(*problem, quick_params(150));
  ASSERT_GT(result.front.size(), 10u);
  for (const auto& ind : result.front) {
    EXPECT_GE(ind.genes[0], -0.1);
    EXPECT_LE(ind.genes[0], 2.1);
    const double f1 = ind.eval.objectives[0];
    const double f2 = ind.eval.objectives[1];
    const double expected_f2 = (std::sqrt(std::max(f1, 0.0)) - 2.0) * (std::sqrt(std::max(f1, 0.0)) - 2.0);
    EXPECT_NEAR(f2, expected_f2, 0.05);
  }
}

TEST(Nsga2, Zdt1ApproachesTrueFront) {
  const auto problem = problems::make_zdt1(12);
  Nsga2Params p;
  p.population_size = 100;
  p.generations = 250;
  p.seed = 3;
  const auto result = run_nsga2(*problem, p);

  // Reference front: f2 = 1 - sqrt(f1), f1 in [0, 1].
  FrontPoints reference;
  for (int i = 0; i <= 100; ++i) {
    const double f1 = i / 100.0;
    reference.push_back({f1, 1.0 - std::sqrt(f1)});
  }
  const double gd = generational_distance(objectives_of(result.front), reference);
  EXPECT_LT(gd, 0.05);
  const double igd = inverted_generational_distance(objectives_of(result.front), reference);
  EXPECT_LT(igd, 0.15);  // diversity: the whole front is approximated
}

TEST(Nsga2, ConstrainedProblemFindsOnlyFeasibleFront) {
  const auto problem = problems::make_constr();
  Nsga2Params p;
  p.population_size = 80;
  p.generations = 120;
  p.seed = 5;
  const auto result = run_nsga2(*problem, p);
  ASSERT_GT(result.front.size(), 5u);
  for (const auto& ind : result.front) {
    EXPECT_TRUE(ind.feasible());
  }
}

TEST(Nsga2, TnkConstraintsRespected) {
  const auto problem = problems::make_tnk();
  Nsga2Params p;
  p.population_size = 80;
  p.generations = 150;
  p.seed = 7;
  const auto result = run_nsga2(*problem, p);
  ASSERT_GT(result.front.size(), 3u);
  for (const auto& ind : result.front) {
    EXPECT_TRUE(ind.feasible());
    // TNK front lies inside the ring x^2 + y^2 ~ 1 +- 0.1 cos(16 atan).
    const double r2 = ind.genes[0] * ind.genes[0] + ind.genes[1] * ind.genes[1];
    EXPECT_GT(r2, 0.6);
    EXPECT_LT(r2, 1.35);
  }
}

TEST(ExtractGlobalFront, KeepsOnlyFeasibleNondominated) {
  Population pop(4);
  pop[0].eval.objectives = {1.0, 1.0};
  pop[1].eval.objectives = {2.0, 2.0};                       // dominated
  pop[2].eval.objectives = {0.5, 3.0};                       // trade-off
  pop[3].eval.objectives = {0.0, 0.0};
  pop[3].eval.violations = {1.0};                            // infeasible
  const auto front = extract_global_front(pop);
  ASSERT_EQ(front.size(), 2u);
  for (const auto& ind : front) {
    EXPECT_TRUE(ind.feasible());
    EXPECT_NE(ind.eval.objectives, (std::vector<double>{2.0, 2.0}));
  }
}

TEST(ExtractGlobalFront, EmptyPopulationYieldsEmptyFront) {
  EXPECT_TRUE(extract_global_front({}).empty());
}

TEST(ExtractGlobalFront, AllInfeasibleYieldsEmptyFront) {
  Population pop(2);
  pop[0].eval.objectives = {1.0, 1.0};
  pop[0].eval.violations = {0.5};
  pop[1].eval.objectives = {2.0, 2.0};
  pop[1].eval.violations = {0.1};
  EXPECT_TRUE(extract_global_front(pop).empty());
}

/// Convergence sweep over the unconstrained suite: NSGA-II must achieve a
/// small generational distance on every problem.
struct SuiteCase {
  const char* name;
  std::size_t generations;
  double gd_limit;
};

// Print a case as its problem name. The default byte dump would show the
// address of `name`, which moves from build to build, and the test names
// derived from the printed parameter would move with it.
void PrintTo(const SuiteCase& c, std::ostream* os) { *os << c.name; }

class Nsga2Suite : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(Nsga2Suite, FrontIsMutuallyNondominated) {
  const auto param = GetParam();
  std::unique_ptr<Problem> problem;
  const std::string name = param.name;
  if (name == "SCH") problem = problems::make_sch();
  else if (name == "FON") problem = problems::make_fon();
  else if (name == "KUR") problem = problems::make_kur();
  else if (name == "POL") problem = problems::make_pol();
  else if (name == "ZDT1") problem = problems::make_zdt1(10);
  else if (name == "ZDT2") problem = problems::make_zdt2(10);
  else if (name == "ZDT3") problem = problems::make_zdt3(10);
  else if (name == "ZDT6") problem = problems::make_zdt6(10);
  ASSERT_NE(problem, nullptr);

  Nsga2Params p;
  p.population_size = 80;
  p.generations = param.generations;
  p.seed = 11;
  const auto result = run_nsga2(*problem, p);
  ASSERT_GT(result.front.size(), 2u);
  for (const auto& a : result.front) {
    for (const auto& b : result.front) {
      if (&a == &b) continue;
      EXPECT_FALSE(dominates(a.eval.objectives, b.eval.objectives));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Problems, Nsga2Suite,
                         ::testing::Values(SuiteCase{"SCH", 60, 0.05},
                                           SuiteCase{"FON", 80, 0.05},
                                           SuiteCase{"KUR", 100, 0.1},
                                           SuiteCase{"POL", 80, 0.1},
                                           SuiteCase{"ZDT1", 150, 0.05},
                                           SuiteCase{"ZDT2", 150, 0.05},
                                           SuiteCase{"ZDT3", 150, 0.1},
                                           SuiteCase{"ZDT6", 200, 0.2}));

}  // namespace
}  // namespace anadex::moga
