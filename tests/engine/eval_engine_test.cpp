// EvalEngine unit tests: the batch API's determinism contract — results
// are written by item index for every thread count, the lowest-index
// exception wins regardless of scheduling, and GuardedProblem's fault
// accounting composes identically under the pool.
#include "engine/eval_engine.hpp"

#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "problems/analytic.hpp"
#include "robust/guarded_problem.hpp"

namespace anadex::engine {
namespace {

/// Deterministic in-bounds genomes without touching any RNG stream.
std::vector<Genome> make_genomes(const moga::Problem& problem, std::size_t count) {
  const auto bounds = problem.bounds();
  std::vector<Genome> genomes(count);
  for (std::size_t i = 0; i < count; ++i) {
    genomes[i].resize(bounds.size());
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      const double t = static_cast<double>(i * bounds.size() + k + 1) /
                       static_cast<double>(count * bounds.size() + 1);
      genomes[i][k] = bounds[k].lower + t * (bounds[k].upper - bounds[k].lower);
    }
  }
  return genomes;
}

void expect_evaluations_eq(const std::vector<moga::Evaluation>& a,
                           const std::vector<moga::Evaluation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives, b[i].objectives) << "item " << i;
    EXPECT_EQ(a[i].violations, b[i].violations) << "item " << i;
  }
}

TEST(EvalEngine, ResolvesThreadRequests) {
  EXPECT_GE(EvalEngine::resolve_threads(0), 1u);  // 0 = hardware, at least one
  EXPECT_EQ(EvalEngine::resolve_threads(1), 1u);
  EXPECT_EQ(EvalEngine::resolve_threads(6), 6u);
}

TEST(EvalEngine, BatchResultsAreBitIdenticalAcrossThreadCounts) {
  const auto problem = problems::make_kur();
  const auto genomes = make_genomes(*problem, 37);  // not a multiple of any pool size

  std::vector<moga::Evaluation> reference(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    reference[i] = problem->evaluated(genomes[i]);
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const EvalEngine eval(*problem, threads);
    EXPECT_EQ(eval.threads(), threads);
    std::vector<moga::Evaluation> out(genomes.size());
    // Several batches through the same pool: later batches must be as
    // deterministic as the first.
    for (int round = 0; round < 3; ++round) {
      eval.evaluate_batch(genomes, out);
      expect_evaluations_eq(out, reference);
    }
  }
}

TEST(EvalEngine, EvaluateMembersFillsEvaluationsInPlace) {
  const auto problem = problems::make_fon();
  const auto genomes = make_genomes(*problem, 9);
  std::vector<moga::Individual> members(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) members[i].genes = genomes[i];

  const EvalEngine eval(*problem, 4);
  eval.evaluate_members(members);
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(members[i].eval.objectives, problem->evaluated(genomes[i]).objectives);
  }
}

TEST(EvalEngine, SingleItemPathMatchesProblemEvaluated) {
  const auto problem = problems::make_sch();
  const EvalEngine eval(*problem);
  const std::vector<double> genes{0.75};
  const auto via_engine = eval.evaluate(genes);
  const auto direct = problem->evaluated(genes);
  EXPECT_EQ(via_engine.objectives, direct.objectives);
  EXPECT_EQ(via_engine.violations, direct.violations);
}

TEST(EvalEngine, EmptyBatchIsANoOp) {
  const auto problem = problems::make_sch();
  const EvalEngine eval(*problem, 4);
  eval.evaluate_batch({}, {});
}

TEST(EvalEngine, RejectsMismatchedSpans) {
  const auto problem = problems::make_sch();
  const EvalEngine eval(*problem);
  const std::vector<Genome> genomes(3, Genome{0.5});
  std::vector<moga::Evaluation> out(2);
  EXPECT_THROW(eval.evaluate_batch(genomes, out), PreconditionError);
}

/// Throws for genes[0] > 0.5, with the gene value in the message so the
/// test can tell WHICH item's exception surfaced.
class ThrowAboveHalf final : public moga::Problem {
 public:
  std::string name() const override { return "throw-above-half"; }
  std::size_t num_variables() const override { return 1; }
  std::size_t num_objectives() const override { return 2; }
  std::size_t num_constraints() const override { return 0; }
  std::vector<moga::VariableBound> bounds() const override { return {{0.0, 1.0}}; }
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override {
    if (genes[0] > 0.5) {
      throw std::runtime_error("boom at " + std::to_string(genes[0]));
    }
    out.objectives = {genes[0], 1.0 - genes[0]};
    out.violations.clear();
  }
};

TEST(EvalEngine, RethrowsTheLowestIndexExceptionForEveryThreadCount) {
  const ThrowAboveHalf problem;
  // Items 3 and 7 fault; item 3's exception must surface regardless of
  // which worker reaches which item first.
  std::vector<Genome> genomes(10, Genome{0.25});
  genomes[3] = {0.8};
  genomes[7] = {0.9};

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const EvalEngine eval(problem, threads);
    std::vector<moga::Evaluation> out(genomes.size());
    try {
      eval.evaluate_batch(genomes, out);
      FAIL() << "expected the batch to rethrow (threads = " << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("0.8"), std::string::npos)
          << "threads = " << threads << ": got '" << e.what() << "'";
    }
    // The batch is fully attempted before rethrowing: clean items landed.
    EXPECT_EQ(out[0].objectives, (std::vector<double>{0.25, 0.75}));
    EXPECT_EQ(out[9].objectives, (std::vector<double>{0.25, 0.75}));
  }
}

/// Faults (NaN objective) for genes[0] in [0.5, 0.75), throws above 0.75 —
/// mirrors the GuardedProblem test fixture, reused here to drive the
/// guard THROUGH the engine's worker pool.
class FlakyProblem final : public moga::Problem {
 public:
  std::string name() const override { return "flaky"; }
  std::size_t num_variables() const override { return 1; }
  std::size_t num_objectives() const override { return 2; }
  std::size_t num_constraints() const override { return 0; }
  std::vector<moga::VariableBound> bounds() const override { return {{0.0, 1.0}}; }
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override {
    if (genes[0] >= 0.75) throw std::runtime_error("flaky boom");
    out.objectives = {genes[0], 1.0 - genes[0]};
    if (genes[0] >= 0.5) out.objectives[1] = std::nan("");
    out.violations.clear();
  }
};

TEST(EvalEngine, GuardedProblemFaultAccountingIsThreadCountInvariant) {
  // A batch with clean, non-finite and throwing genomes. The guard's
  // counters, penalties and the canonical sample failure must come out
  // identical whether the batch ran serially or on 8 workers.
  std::vector<Genome> genomes;
  for (int i = 0; i < 24; ++i) {
    genomes.push_back({static_cast<double>(i) / 24.0});
  }

  robust::GuardPolicy policy;
  policy.max_retries = 0;

  std::vector<std::vector<moga::Evaluation>> results;
  std::vector<robust::FaultReport> reports;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    robust::GuardedProblem guard(std::make_shared<FlakyProblem>(), policy);
    const EvalEngine eval(guard, threads);
    std::vector<moga::Evaluation> out(genomes.size());
    eval.evaluate_batch(genomes, out);
    results.push_back(std::move(out));
    reports.push_back(guard.report());
  }

  expect_evaluations_eq(results[0], results[1]);
  EXPECT_GT(reports[0].total_faults(), 0u);
  EXPECT_EQ(reports[0].exceptions, reports[1].exceptions);
  EXPECT_EQ(reports[0].non_finite, reports[1].non_finite);
  EXPECT_EQ(reports[0].penalized, reports[1].penalized);
  EXPECT_EQ(reports[0].failure_genes, reports[1].failure_genes);
  EXPECT_EQ(reports[0].failure_message, reports[1].failure_message);
}

TEST(EvalEngine, ThousandsOfTinyBatchesLoseNoSlot) {
  // Regression for the lost-slot race: a worker that woke late for an
  // already retired batch used to join it after the caller had published
  // the next one, claim that batch's first slots and drop them, leaving the
  // caller waiting forever. Back-to-back tiny batches on a pool wider than
  // the batches make late wake-ups common. Each batch draws a different
  // window of genomes, so a stale or unwritten slot cannot pass the check.
  const auto problem = problems::make_kur();
  const auto genomes = make_genomes(*problem, 16);
  std::vector<moga::Evaluation> reference(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    reference[i] = problem->evaluated(genomes[i]);
  }

  const EvalEngine eval(*problem, 8);
  const std::span<const Genome> pool(genomes);
  std::vector<moga::Evaluation> out;
  for (std::size_t batch = 0; batch < 6000; ++batch) {
    const std::size_t size = 1 + batch % 3;
    const std::size_t first = (batch * 5) % (genomes.size() - size + 1);
    out.assign(size, moga::Evaluation{});
    eval.evaluate_batch(pool.subspan(first, size), out);
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(out[i].objectives, reference[first + i].objectives)
          << "batch " << batch << " slot " << i;
      ASSERT_EQ(out[i].violations, reference[first + i].violations)
          << "batch " << batch << " slot " << i;
    }
  }
}

}  // namespace
}  // namespace anadex::engine
