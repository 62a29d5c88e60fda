// The --batch-eval execution knob at the engine layer: lane-group claiming
// must be bit-identical to per-item evaluation across modes and thread
// counts, the Auto heuristic must only engage lanes when a batch fills a
// group, a throwing lane evaluator must fall back per item (counted, not
// fatal), and GuardedProblem's fault accounting must match scalar mode
// exactly when lanes re-run faulty items. A serial engine hands the whole
// batch to one evaluate_lanes() call, which pools Monte-Carlo robustness
// across it.
#include "engine/eval_engine.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "engine/simd/lane_evaluator.hpp"
#include "expt/runner.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "robust/guarded_problem.hpp"

namespace anadex::engine {
namespace {

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

/// Bit patterns of every objective and violation, so -0.0 vs 0.0 counts.
std::vector<std::uint64_t> bits(const moga::Evaluation& e) {
  std::vector<std::uint64_t> out;
  for (const double v : e.objectives) out.push_back(std::bit_cast<std::uint64_t>(v));
  for (const double v : e.violations) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_evaluations_eq(const std::vector<moga::Evaluation>& a,
                           const std::vector<moga::Evaluation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives.size(), b[i].objectives.size()) << "item " << i;
    EXPECT_EQ(bits(a[i]), bits(b[i])) << "item " << i;
  }
}

/// A lane evaluator whose lane path always throws: the engine must recover
/// by evaluating the group's items one by one through evaluate().
class ThrowingLanesProblem final : public moga::Problem, public LaneEvaluator {
 public:
  explicit ThrowingLanesProblem(const moga::Problem& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name() + "+throwing-lanes"; }
  std::size_t num_variables() const override { return inner_.num_variables(); }
  std::size_t num_objectives() const override { return inner_.num_objectives(); }
  std::size_t num_constraints() const override { return inner_.num_constraints(); }
  std::vector<moga::VariableBound> bounds() const override { return inner_.bounds(); }
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override {
    inner_.evaluate(genes, out);
  }

  bool lanes_supported() const override { return true; }
  std::size_t preferred_lane_width() const override { return 8; }
  void evaluate_lanes(std::span<const std::span<const double>>,
                      std::span<moga::Evaluation* const>) const override {
    throw std::runtime_error("lane path unavailable");
  }

 private:
  const moga::Problem& inner_;
};

TEST(BatchEvalKnob, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_batch_eval("scalar"), BatchEval::Scalar);
  EXPECT_EQ(parse_batch_eval("simd"), BatchEval::Simd);
  EXPECT_EQ(parse_batch_eval("auto"), BatchEval::Auto);
  for (const BatchEval mode : {BatchEval::Scalar, BatchEval::Simd, BatchEval::Auto}) {
    EXPECT_EQ(parse_batch_eval(to_string(mode)), mode);
  }
  EXPECT_THROW(parse_batch_eval("vector"), std::exception);
}

TEST(BatchEvalKnob, SimdModeBitIdenticalAcrossThreadCounts) {
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  const auto genomes = make_genomes(problem, 37);  // ragged: 2 full groups + 5

  const EvalEngine scalar(problem, 1);
  std::vector<moga::Evaluation> reference(genomes.size());
  scalar.evaluate_batch(genomes, reference);
  EXPECT_EQ(scalar.lane_groups(), 0u);  // Scalar is the default mode

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    EvalEngine simd(problem, threads);
    simd.set_batch_eval(BatchEval::Simd);
    std::vector<moga::Evaluation> out(genomes.size());
    simd.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    EXPECT_GT(simd.lane_groups(), 0u) << threads << " threads";
    EXPECT_EQ(simd.lane_items() + simd.lane_fallbacks(), genomes.size())
        << threads << " threads";
  }
}

TEST(BatchEvalKnob, SerialEngineEvaluatesEachRealGenerationInOneLaneCall) {
  // Every population of a short MESACGA run, each as one batch: the shape
  // a single-thread run evaluates. Early populations mix typical-corner
  // passers (Monte-Carlo path) and failers, later ones are all passers
  // with varying robustness, so the pooled Monte-Carlo groups run full and
  // fitted, across lane-group boundaries.
  const problems::IntegratorProblem problem(problems::chosen_spec());
  std::vector<std::vector<Genome>> batches;
  std::size_t mixed = 0;  // batches with passers and failers
  expt::RunSettings s;
  s.algo = expt::Algo::MESACGA;
  s.spec = problems::chosen_spec();
  s.population = 48;
  s.generations = 24;
  s.partitions = 4;
  s.mesacga_schedule = {4, 2, 1};
  s.phase1_cap = 8;
  s.seed = 5;
  s.on_generation = [&](std::size_t, const moga::Population& population) {
    auto& batch = batches.emplace_back();
    std::size_t passing = 0;
    for (const moga::Individual& member : population) {
      batch.push_back(member.genes);
      const auto design = problems::IntegratorProblem::decode(member.genes);
      if (problem.spec().satisfied_by(problem.typical_performance(design))) ++passing;
    }
    if (passing > 16 && passing < batch.size()) ++mixed;
  };
  expt::run(problem, s);
  ASSERT_GT(batches.size(), 1u);
  EXPECT_GT(mixed, 0u);

  const EvalEngine scalar(problem, 1);
  EvalEngine simd(problem, 1);
  simd.set_batch_eval(BatchEval::Simd);
  std::size_t items = 0;
  for (const auto& batch : batches) {
    std::vector<moga::Evaluation> reference(batch.size());
    scalar.evaluate_batch(batch, reference);
    std::vector<moga::Evaluation> out(batch.size());
    simd.evaluate_batch(batch, out);
    expect_evaluations_eq(out, reference);
    items += batch.size();
  }
  EXPECT_EQ(simd.lane_groups(), batches.size());
  EXPECT_EQ(simd.lane_items(), items);
  EXPECT_EQ(simd.lane_fallbacks(), 0u);
}

TEST(BatchEvalKnob, AutoEngagesLanesOnlyWhenBatchFillsAGroup) {
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  const std::size_t width = problem.preferred_lane_width();

  EvalEngine eval(problem, 1);
  eval.set_batch_eval(BatchEval::Auto);

  const auto small = make_genomes(problem, width - 1);
  std::vector<moga::Evaluation> small_out(small.size());
  eval.evaluate_batch(small, small_out);
  EXPECT_EQ(eval.lane_groups(), 0u);  // under one group: stays scalar

  const auto full = make_genomes(problem, width);
  std::vector<moga::Evaluation> full_out(full.size());
  eval.evaluate_batch(full, full_out);
  EXPECT_GT(eval.lane_groups(), 0u);  // one full group: lanes engage

  // Simd mode forces lanes even under one group's worth of items.
  EvalEngine forced(problem, 1);
  forced.set_batch_eval(BatchEval::Simd);
  std::vector<moga::Evaluation> forced_out(small.size());
  forced.evaluate_batch(small, forced_out);
  EXPECT_GT(forced.lane_groups(), 0u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(forced_out[i].objectives, small_out[i].objectives) << "item " << i;
    EXPECT_EQ(forced_out[i].violations, small_out[i].violations) << "item " << i;
  }
}

TEST(BatchEvalKnob, ThrowingLaneEvaluatorFallsBackPerItem) {
  const problems::IntegratorProblem inner(problems::spec_suite().front());
  const ThrowingLanesProblem problem(inner);
  const auto genomes = make_genomes(problem, 19);

  const EvalEngine scalar(inner, 1);
  std::vector<moga::Evaluation> reference(genomes.size());
  scalar.evaluate_batch(genomes, reference);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EvalEngine eval(problem, threads);
    eval.set_batch_eval(BatchEval::Simd);
    std::vector<moga::Evaluation> out(genomes.size());
    eval.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    EXPECT_GT(eval.lane_fallbacks(), 0u) << threads << " threads";
    EXPECT_EQ(eval.lane_items(), 0u) << threads << " threads";
  }
}

TEST(BatchEvalKnob, GuardedProblemFaultAccountingMatchesScalarMode) {
  // Hostile genomes (NaN bias current) fault inside the kernels; the
  // guard's lane path must re-run faulty lanes scalar so the penalized
  // results AND the fault report match scalar mode exactly.
  const auto inner = std::make_shared<const problems::IntegratorProblem>(
      problems::spec_suite().front());
  const auto genomes = [&] {
    auto g = make_genomes(*inner, 24);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    g[2][problems::kIbias] = nan;
    g[11][problems::kW1] = nan;
    g[17][problems::kCc] = nan;
    return g;
  }();

  robust::GuardPolicy policy;  // default: two retries then penalize
  const robust::GuardedProblem scalar_guard(inner, policy);
  const EvalEngine scalar(scalar_guard, 1);
  std::vector<moga::Evaluation> reference(genomes.size());
  scalar.evaluate_batch(genomes, reference);
  const robust::FaultReport scalar_report = scalar_guard.report();
  EXPECT_GT(scalar_report.total_faults(), 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const robust::GuardedProblem guard(inner, policy);
    EvalEngine eval(guard, threads);
    eval.set_batch_eval(BatchEval::Simd);
    std::vector<moga::Evaluation> out(genomes.size());
    eval.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    const robust::FaultReport report = guard.report();
    EXPECT_EQ(report.total_faults(), scalar_report.total_faults());
    EXPECT_EQ(report.retries, scalar_report.retries);
    EXPECT_EQ(report.penalized, scalar_report.penalized);
    EXPECT_EQ(report.recovered, scalar_report.recovered);
  }
}

TEST(BatchEvalKnob, DedupCacheComposesWithLanes) {
  // Duplicate genomes within a batch: the cache serves duplicates, the
  // lane path evaluates the distinct remainder, results stay identical.
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  auto genomes = make_genomes(problem, 32);
  for (std::size_t i = 1; i < genomes.size(); i += 3) genomes[i] = genomes[0];

  const EvalEngine scalar(problem, 1);
  std::vector<moga::Evaluation> reference(genomes.size());
  scalar.evaluate_batch(genomes, reference);

  EvalEngine cached(problem, 1, nullptr, /*cache_capacity=*/64);
  cached.set_batch_eval(BatchEval::Simd);
  std::vector<moga::Evaluation> out(genomes.size());
  cached.evaluate_batch(genomes, out);
  expect_evaluations_eq(out, reference);
  EXPECT_GT(cached.stats().cache_hits(), 0u);
  EXPECT_GT(cached.lane_groups(), 0u);
}

}  // namespace
}  // namespace anadex::engine
