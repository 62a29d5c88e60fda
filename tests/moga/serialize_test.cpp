#include "moga/serialize.hpp"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "moga/nsga2.hpp"
#include "moga/operators.hpp"
#include "problems/analytic.hpp"

namespace anadex::moga {
namespace {

Population sample_population() {
  Population pop(3);
  pop[0].genes = {1.0, 2.0};
  pop[0].eval.objectives = {0.5, 0.25};
  pop[1].genes = {-3.5, 4.0};
  pop[1].eval.objectives = {1.0, 9.0};
  pop[1].eval.violations = {0.1, 0.0};
  pop[2].genes = {1e-12};
  pop[2].eval.objectives = {7.0};
  return pop;
}

TEST(Serialize, RoundTripPreservesEverything) {
  const Population original = sample_population();
  std::stringstream stream;
  save_population(stream, original);
  const Population loaded = load_population(stream);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].genes, original[i].genes);
    EXPECT_EQ(loaded[i].eval.objectives, original[i].eval.objectives);
    EXPECT_EQ(loaded[i].eval.violations, original[i].eval.violations);
  }
}

TEST(Serialize, EmptyPopulationRoundTrips) {
  std::stringstream stream;
  save_population(stream, {});
  EXPECT_TRUE(load_population(stream).empty());
}

TEST(Serialize, FullPrecisionSurvives) {
  Population pop(1);
  pop[0].genes = {0.1 + 0.2};  // a value with a long binary expansion
  pop[0].eval.objectives = {1.0 / 3.0};
  std::stringstream stream;
  save_population(stream, pop);
  const Population loaded = load_population(stream);
  EXPECT_EQ(loaded[0].genes[0], pop[0].genes[0]);
  EXPECT_EQ(loaded[0].eval.objectives[0], pop[0].eval.objectives[0]);
}

TEST(Serialize, RejectsMissingHeader) {
  std::stringstream stream("individual 1 1 0\ngenes 1\nobjectives 1\nviolations\n");
  EXPECT_THROW(load_population(stream), PreconditionError);
}

TEST(Serialize, RejectsTruncatedRecord) {
  std::stringstream stream("anadex-population v1\nindividual 2 1 0\ngenes 1 2\n");
  EXPECT_THROW(load_population(stream), PreconditionError);
}

TEST(Serialize, RejectsNonNumericValues) {
  std::stringstream stream(
      "anadex-population v1\nindividual 1 1 0\ngenes abc\nobjectives 1\nviolations\n");
  EXPECT_THROW(load_population(stream), PreconditionError);
}

TEST(Serialize, RejectsWrongKeyword) {
  std::stringstream stream(
      "anadex-population v1\nindividual 1 1 0\nchromosome 1\nobjectives 1\nviolations\n");
  EXPECT_THROW(load_population(stream), PreconditionError);
}

TEST(Serialize, ExactFormatRoundTripsRank) {
  Population pop = sample_population();
  pop[0].rank = 0;
  pop[1].rank = 3;  // pop[2] keeps the unranked -1
  std::stringstream stream;
  save_population_exact(stream, pop);
  const Population loaded = load_population_exact(stream);
  ASSERT_EQ(loaded.size(), pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) EXPECT_EQ(loaded[i].rank, pop[i].rank);
}

/// Loads an exact-format population whose first record header is
/// `individual <head>`, expecting a PreconditionError naming `token`.
void expect_exact_load_rejects(const std::string& head, const std::string& token) {
  std::stringstream stream("anadex-population v2 1\nindividual " + head +
                           "\ngenes 0x1p+0\nobjectives 0x1p+0\nviolations\n");
  try {
    (void)load_population_exact(stream);
    ADD_FAILURE() << "accepted 'individual " << head << "'";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos) << e.what();
  }
}

TEST(Serialize, ExactFormatRejectsJunkAndOverflowingIntegers) {
  expect_exact_load_rejects("1 1 0 9abc 0x0p+0", "9abc");
  expect_exact_load_rejects("1 1 0 abc 0x0p+0", "abc");
  expect_exact_load_rejects("1 1 0 2147483648 0x0p+0", "2147483648");
  expect_exact_load_rejects("18446744073709551616 1 0 0 0x0p+0", "18446744073709551616");
  expect_exact_load_rejects("1 1 99999999999999999999999 0 0x0p+0",
                            "99999999999999999999999");

  std::stringstream count("anadex-population v2 18446744073709551616\n");
  EXPECT_THROW((void)load_population_exact(count), PreconditionError);
}

TEST(Serialize, OptimizedFrontRoundTripsThroughCheckpoint) {
  // The practical use: persist an NSGA-II front, reload it, and verify the
  // reloaded genomes re-evaluate to the stored objectives.
  const auto problem = problems::make_zdt1(6);
  Nsga2Params params;
  params.population_size = 24;
  params.generations = 30;
  params.seed = 4;
  const auto result = run_nsga2(*problem, params);

  std::stringstream stream;
  save_population(stream, result.front);
  const Population loaded = load_population(stream);
  ASSERT_EQ(loaded.size(), result.front.size());
  for (const auto& ind : loaded) {
    const auto fresh = problem->evaluated(ind.genes);
    ASSERT_EQ(fresh.objectives.size(), ind.eval.objectives.size());
    for (std::size_t k = 0; k < fresh.objectives.size(); ++k) {
      EXPECT_DOUBLE_EQ(fresh.objectives[k], ind.eval.objectives[k]);
    }
  }
}

}  // namespace
}  // namespace anadex::moga
