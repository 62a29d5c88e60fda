// Golden-equivalence suite for the SoA batch evaluation path
// (docs/performance.md): IntegratorProblem::evaluate_lanes must reproduce
// scalar evaluate() bit for bit — same doubles, not merely close ones —
// for every spec in the paper's suite, every compiled lane width, ragged
// remainder groups, and hostile (NaN / out-of-range) genomes. The engine's
// cross-mode checkpoint byte-identity rests on this property. Spans longer
// than one lane group pool their TT passers' Monte-Carlo robustness across
// the whole call, so the pooled spans check every passer's robustness lands
// on its own genome. The BatchEquivalencePerIsa cases repeat the spec,
// width, corner and Monte-Carlo coverage once per instruction-set copy of
// the lane kernels, each reached through its namespace.
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/lane_isa.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "expt/runner.hpp"
#include "moga/individual.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::problems {
namespace {

std::vector<std::vector<double>> random_genomes(const moga::Problem& problem,
                                                std::size_t count, std::uint64_t seed) {
  const auto bounds = problem.bounds();
  Rng rng(seed);
  std::vector<std::vector<double>> genomes(count);
  for (auto& genes : genomes) {
    genes.resize(bounds.size());
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      genes[k] = rng.uniform(bounds[k].lower, bounds[k].upper);
    }
  }
  return genomes;
}

// Exact comparison by bit pattern, so -0.0 vs 0.0 or differing NaN
// payloads count as mismatches — the checkpoint files the engine writes
// are byte-level artifacts of these doubles.
void expect_bitwise_equal(const moga::Evaluation& lanes, const moga::Evaluation& scalar,
                          const std::string& label) {
  ASSERT_EQ(lanes.objectives.size(), scalar.objectives.size()) << label;
  ASSERT_EQ(lanes.violations.size(), scalar.violations.size()) << label;
  for (std::size_t i = 0; i < scalar.objectives.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes.objectives[i]),
              std::bit_cast<std::uint64_t>(scalar.objectives[i]))
        << label << " objective " << i << ": " << lanes.objectives[i] << " vs "
        << scalar.objectives[i];
  }
  for (std::size_t i = 0; i < scalar.violations.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes.violations[i]),
              std::bit_cast<std::uint64_t>(scalar.violations[i]))
        << label << " violation " << i << ": " << lanes.violations[i] << " vs "
        << scalar.violations[i];
  }
}

/// Runs `genomes` through evaluate_lanes in groups of `group` and through
/// scalar evaluate(), then asserts bitwise equality per genome.
void check_equivalence(const IntegratorProblem& problem,
                       const std::vector<std::vector<double>>& genomes,
                       std::size_t group, const std::string& label) {
  std::vector<moga::Evaluation> scalar(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    problem.evaluate(genomes[i], scalar[i]);
  }

  std::vector<moga::Evaluation> lanes(genomes.size());
  for (std::size_t start = 0; start < genomes.size(); start += group) {
    const std::size_t n = std::min(group, genomes.size() - start);
    std::vector<std::span<const double>> genes(n);
    std::vector<moga::Evaluation*> outs(n);
    for (std::size_t k = 0; k < n; ++k) {
      genes[k] = genomes[start + k];
      outs[k] = &lanes[start + k];
    }
    problem.evaluate_lanes(genes, outs);
  }

  for (std::size_t i = 0; i < genomes.size(); ++i) {
    expect_bitwise_equal(lanes[i], scalar[i],
                         label + " genome " + std::to_string(i));
  }
}

TEST(BatchEquivalence, AllTwentySpecsBitIdentical) {
  const auto suite = problems::spec_suite();
  ASSERT_EQ(suite.size(), 20u);
  for (std::size_t s = 0; s < suite.size(); ++s) {
    const IntegratorProblem problem(suite[s]);
    const auto genomes = random_genomes(problem, 24, 1000 + s);
    check_equivalence(problem, genomes, problem.preferred_lane_width(),
                      "spec " + std::to_string(s + 1));
  }
}

TEST(BatchEquivalence, EveryCompiledLaneWidth) {
  // Group sizes 4 / 8 / 16 route through the W=4 / W=8 / W=16 kernel
  // instantiations respectively (integrator_problem.cpp's dispatch).
  const IntegratorProblem problem(problems::chosen_spec());
  const auto genomes = random_genomes(problem, 48, 7);
  for (const std::size_t width : {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    check_equivalence(problem, genomes, width,
                      "width " + std::to_string(width));
  }
}

TEST(BatchEquivalence, RemainderLanesArePadded) {
  // Ragged group sizes force every padding path: n < 4 pads the W=4
  // kernel, 5..7 pad W=8, 9..15 pad W=16, and 17+ chunks then pads.
  const IntegratorProblem problem(problems::chosen_spec());
  const auto genomes = random_genomes(problem, 34, 11);
  for (const std::size_t group : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{5}, std::size_t{7}, std::size_t{9},
                                  std::size_t{13}, std::size_t{15}, std::size_t{17},
                                  std::size_t{34}}) {
    check_equivalence(problem, genomes, group,
                      "ragged group " + std::to_string(group));
  }
}

TEST(BatchEquivalence, HostileGenomesMatchScalarPath) {
  // NaN and out-of-range genes must behave in the lane kernels exactly as
  // they behave in the scalar path: a genome that trips a device-model
  // precondition (e.g. NaN or zero geometry fails `w > 0`) must throw from
  // both paths, and a genome the scalar path can evaluate must come back
  // bit-identical. (In production the fault guard catches the throws and
  // re-runs faulty lanes scalar; this asserts the underlying parity.)
  const IntegratorProblem problem(problems::chosen_spec());
  auto genomes = random_genomes(problem, 16, 23);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  genomes[0][kW1] = nan;
  genomes[3][kIbias] = nan;
  genomes[5][kCc] = 0.0;           // degenerate Miller cap
  genomes[7][kIbias] = -1e-6;      // infeasible negative bias
  genomes[9][kW1] = 1e3;           // absurd out-of-bounds width
  genomes[11][kL1] = 0.0;          // zero-length device

  // Per genome: scalar outcome (value or throw), then single-lane outcome.
  std::vector<std::vector<double>> evaluable;
  std::size_t throwing = 0;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const std::string label = "hostile genome " + std::to_string(i);
    moga::Evaluation scalar;
    bool scalar_threw = false;
    try {
      problem.evaluate(genomes[i], scalar);
    } catch (const std::exception&) {
      scalar_threw = true;
    }

    moga::Evaluation lane;
    bool lane_threw = false;
    const std::span<const double> genes[] = {genomes[i]};
    moga::Evaluation* const outs[] = {&lane};
    try {
      problem.evaluate_lanes(genes, outs);
    } catch (const std::exception&) {
      lane_threw = true;
    }

    EXPECT_EQ(lane_threw, scalar_threw) << label;
    if (scalar_threw) {
      ++throwing;
    } else if (!lane_threw) {
      expect_bitwise_equal(lane, scalar, label);
      evaluable.push_back(genomes[i]);
    }
  }
  EXPECT_GT(throwing, 0u);  // the suite must exercise the throwing path

  // The evaluable remainder — still including degenerate values like a
  // zero Miller cap and a negative bias — must survive full-width groups
  // without one lane contaminating another.
  ASSERT_GE(evaluable.size(), 8u);
  check_equivalence(problem, evaluable, 8, "hostile evaluable");
}

bool passes_tt(const IntegratorProblem& problem, std::span<const double> genes) {
  return problem.spec().satisfied_by(
      problem.typical_performance(IntegratorProblem::decode(genes)));
}

/// Genomes on both sides of the typical-corner (TT) screen. Uniform-random
/// genomes almost never pass it, so they never reach Monte-Carlo; the
/// passers are harvested in-process from a short seeded MESACGA run on
/// the paper's chosen spec, every distinct TT-passing population member.
struct ScreenedCorpus {
  std::vector<std::vector<double>> passing;
  std::vector<std::vector<double>> failing;
};

const ScreenedCorpus& screened_corpus() {
  static const ScreenedCorpus corpus = [] {
    const IntegratorProblem problem(problems::chosen_spec());
    ScreenedCorpus c;
    std::set<std::vector<double>> seen;
    expt::RunSettings s;
    s.algo = expt::Algo::MESACGA;
    s.spec = problems::chosen_spec();
    s.population = 32;
    s.generations = 30;
    s.partitions = 4;
    s.mesacga_schedule = {4, 2, 1};
    s.phase1_cap = 10;
    s.seed = 9;
    s.on_generation = [&](std::size_t, const moga::Population& population) {
      for (const moga::Individual& member : population) {
        if (passes_tt(problem, member.genes) && seen.insert(member.genes).second) {
          c.passing.push_back(member.genes);
        }
      }
    };
    expt::run(problem, s);
    for (auto& genes : random_genomes(problem, 64, 31)) {
      if (!passes_tt(problem, genes)) c.failing.push_back(std::move(genes));
    }
    return c;
  }();
  return corpus;
}

using Group = std::vector<std::vector<double>>;

/// Groups of every size 1..16 that mix TT passers and failers: for each
/// position, one group where only that lane passes and one where only it
/// fails, plus both alternating patterns and an all-passing group. The
/// passing count m fixes the fitted Monte-Carlo lane width V (the smallest
/// of 4, 8, 16 that holds m), so every (group width, V) pair runs;
/// `by_width` counts the groups per V.
std::vector<Group> mixed_groups(const ScreenedCorpus& corpus,
                                std::array<std::size_t, 3>& by_width) {
  std::vector<Group> groups;
  std::size_t next_pass = 0;
  std::size_t next_fail = 0;
  const auto add = [&](std::size_t size, auto&& passes) {
    Group group;
    std::size_t m = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if (passes(i)) {
        group.push_back(corpus.passing[next_pass++ % corpus.passing.size()]);
        ++m;
      } else {
        group.push_back(corpus.failing[next_fail++ % corpus.failing.size()]);
      }
    }
    if (m > 0) ++by_width[m <= 4 ? 0 : m <= 8 ? 1 : 2];
    groups.push_back(std::move(group));
  };
  for (std::size_t size = 1; size <= 16; ++size) {
    for (std::size_t p = 0; p < size; ++p) {
      add(size, [p](std::size_t i) { return i == p; });
      add(size, [p](std::size_t i) { return i != p; });
    }
    add(size, [](std::size_t i) { return i % 2 == 0; });
    add(size, [](std::size_t i) { return i % 2 == 1; });
    add(size, [](std::size_t) { return true; });
  }
  return groups;
}

/// Each group through evaluate_lanes as ONE call, against scalar
/// evaluate() per genome.
void check_groups(const IntegratorProblem& problem, const std::vector<Group>& groups,
                  const std::string& label) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    check_equivalence(problem, groups[g], groups[g].size(),
                      label + " group " + std::to_string(g));
  }
}

TEST(BatchEquivalence, MonteCarloLanePathAtEveryFittedWidth) {
  const IntegratorProblem problem(problems::chosen_spec());
  const ScreenedCorpus& corpus = screened_corpus();
  // The corpus must really hold TT passers (and failers), and their
  // robustness must vary: the robustness violation only sees the MC
  // result while it is below the spec's robustness limit.
  ASSERT_GE(corpus.passing.size(), 16u);
  ASSERT_GE(corpus.failing.size(), 16u);
  std::set<double> robustness_violations;
  for (const auto& genes : corpus.passing) {
    robustness_violations.insert(problem.evaluated(genes).violations[8]);
  }
  EXPECT_GE(robustness_violations.size(), 3u);

  std::array<std::size_t, 3> by_width{};
  const auto groups = mixed_groups(corpus, by_width);
  for (const std::size_t count : by_width) EXPECT_GT(count, 0u);
  check_groups(problem, groups, "mixed");
}

/// Smallest compiled lane width that holds the last Monte-Carlo group of
/// `passing` pooled passers (groups of 16, the last one fitted).
std::size_t fitted_tail_width(std::size_t passing) {
  const std::size_t tail = passing % 16 == 0 ? 16 : passing % 16;
  return tail <= 4 ? 4 : tail <= 8 ? 8 : 16;
}

/// One span for a single evaluate_lanes() call, mixing corpus passers and
/// failers: the passers sit at the positions `pass` marks.
struct PooledSpan {
  std::string label;
  std::vector<std::vector<double>> genomes;
  std::vector<bool> pass;
};

/// Spans of 17, 37 and 200 genomes, each with three passer counts whose
/// pooled Monte-Carlo stage ends in a group fitted to 4, 8 and 16. Passers
/// are drawn at seeded random positions, always including indices 15 and
/// 16 so they sit on both sides of the first lane-group boundary. In span
/// order they alternate between robust passers (robustness violation 0)
/// and fragile ones, so a robustness value routed to a neighbouring passer
/// always changes a result.
std::vector<PooledSpan> pooled_spans(const IntegratorProblem& problem,
                                     const ScreenedCorpus& corpus) {
  std::array<std::vector<std::vector<double>>, 2> passing;  // robust, fragile
  for (const auto& genes : corpus.passing) {
    passing[problem.evaluated(genes).violations[8] == 0.0 ? 0 : 1].push_back(genes);
  }
  EXPECT_FALSE(passing[0].empty());
  EXPECT_FALSE(passing[1].empty());
  struct Shape {
    std::size_t size;
    std::size_t passing;
  };
  const Shape shapes[] = {{17, 3},   {17, 7},   {17, 13},  {37, 18}, {37, 21},
                          {37, 29},  {200, 100}, {200, 101}, {200, 111}};
  std::vector<PooledSpan> spans;
  Rng rng(2005);
  std::array<std::size_t, 2> next_pass{};
  std::size_t next_fail = 0;
  for (const Shape& shape : shapes) {
    PooledSpan span;
    span.label = "span " + std::to_string(shape.size) + " with " +
                 std::to_string(shape.passing) + " passers";
    span.pass.assign(shape.size, false);
    span.pass[15] = span.pass[16] = true;
    for (std::size_t marked = 2; marked < shape.passing;) {
      const std::size_t i = rng.uniform_index(shape.size);
      if (!span.pass[i]) {
        span.pass[i] = true;
        ++marked;
      }
    }
    std::size_t passers = 0;
    for (std::size_t i = 0; i < shape.size; ++i) {
      if (span.pass[i]) {
        const std::size_t kind = passers++ % 2;
        span.genomes.push_back(passing[kind][next_pass[kind]++ % passing[kind].size()]);
      } else {
        span.genomes.push_back(corpus.failing[next_fail++ % corpus.failing.size()]);
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

TEST(BatchEquivalence, MonteCarloPooledAcrossWholeSpans) {
  const IntegratorProblem problem(problems::chosen_spec());
  const ScreenedCorpus& corpus = screened_corpus();
  ASSERT_GE(corpus.passing.size(), 16u);
  ASSERT_GE(corpus.failing.size(), 16u);
  std::set<std::size_t> sizes;
  std::set<std::size_t> tail_widths;
  for (const PooledSpan& span : pooled_spans(problem, corpus)) {
    std::size_t passing = 0;
    for (std::size_t i = 0; i < span.genomes.size(); ++i) {
      ASSERT_EQ(passes_tt(problem, span.genomes[i]), bool{span.pass[i]})
          << span.label << " genome " << i;
      if (span.pass[i]) ++passing;
    }
    sizes.insert(span.genomes.size());
    tail_widths.insert(fitted_tail_width(passing));
    check_equivalence(problem, span.genomes, span.genomes.size(), span.label);
  }
  EXPECT_EQ(sizes, (std::set<std::size_t>{17, 37, 200}));
  EXPECT_EQ(tail_widths, (std::set<std::size_t>{4, 8, 16}));
}

TEST(BatchEquivalence, HostileGenomeDeepInASpanWritesNothing) {
  // The whole call is pre-screened before any output is written, so a
  // genome the device model rejects past the first lane group still
  // leaves every slot, before and after it, untouched.
  const IntegratorProblem problem(problems::chosen_spec());
  const auto spans = pooled_spans(problem, screened_corpus());
  auto genomes = spans.back().genomes;
  ASSERT_EQ(genomes.size(), 200u);
  genomes[123][kIbias] = std::numeric_limits<double>::quiet_NaN();

  const moga::Evaluation sentinel{{-1.0, -2.0}, {-3.0}};
  std::vector<moga::Evaluation> outs(genomes.size(), sentinel);
  std::vector<std::span<const double>> genes(genomes.size());
  std::vector<moga::Evaluation*> out_ptrs(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    genes[i] = genomes[i];
    out_ptrs[i] = &outs[i];
  }
  EXPECT_THROW(problem.evaluate_lanes(genes, out_ptrs), PreconditionError);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i].objectives, sentinel.objectives) << "slot " << i;
    EXPECT_EQ(outs[i].violations, sentinel.violations) << "slot " << i;
  }
}

TEST(BatchEquivalence, PairMismatchFallsBackToScalarRobustness) {
  // Pair-mismatch draws make each sample's process depend on the design,
  // so the lane path scores these lanes with scalar yield::robustness.
  yield::MonteCarloParams mc;
  mc.include_pair_mismatch = true;
  const IntegratorProblem problem(problems::chosen_spec(), scint::IntegratorContext{}, mc);
  ASSERT_TRUE(yield::shifted_processes(device::Process::typical(),
                                       yield::draw_perturbations(mc))
                  .empty());
  std::array<std::size_t, 3> by_width{};
  auto groups = mixed_groups(screened_corpus(), by_width);
  // Every eighth group keeps the case quick and still spans all sizes.
  std::vector<Group> sample;
  for (std::size_t g = 0; g < groups.size(); g += 8) sample.push_back(std::move(groups[g]));
  check_groups(problem, sample, "pair mismatch");
}

/// Each genome's amplifier, in groups of W, through copy `isa` of the lane
/// kernels on every process in `processes`, against scalar analyze() (the
/// only ISA-dependent step of the lane path; everything after it is the
/// shared scalar epilogue).
template <std::size_t W>
void check_copy(circuit::LaneIsa isa, const IntegratorProblem& problem,
                const std::vector<std::vector<double>>& genomes,
                std::span<const device::Process> processes, const std::string& label) {
  const circuit::OpAmpContext& context = problem.context().opamp;
  for (std::size_t start = 0; start < genomes.size(); start += W) {
    std::array<circuit::OpAmpDesign, W> designs;
    for (std::size_t k = 0; k < W; ++k) {
      // A ragged tail repeats the group's first genome.
      const std::size_t i = start + k < genomes.size() ? start + k : start;
      designs[k] = IntegratorProblem::decode(genomes[i]).opamp;
    }
    for (std::size_t p = 0; p < processes.size(); ++p) {
      std::array<circuit::OpAmpAnalysis, W> lanes;
      testing_support::analyze_lanes_on<W>(
          isa, processes[p], std::span<const circuit::OpAmpDesign, W>{designs}, context,
          std::span<circuit::OpAmpAnalysis, W>{lanes});
      for (std::size_t k = 0; k < W; ++k) {
        SCOPED_TRACE(label + " genome " + std::to_string(start + k) + " process " +
                     std::to_string(p));
        testing_support::expect_analysis_equal(
            lanes[k], circuit::analyze(processes[p], designs[k], context), k);
      }
    }
  }
}

void check_copy_at_every_width(circuit::LaneIsa isa, const IntegratorProblem& problem,
                               const std::vector<std::vector<double>>& genomes,
                               std::span<const device::Process> processes,
                               const std::string& label) {
  check_copy<4>(isa, problem, genomes, processes, label + " W=4");
  check_copy<8>(isa, problem, genomes, processes, label + " W=8");
  check_copy<16>(isa, problem, genomes, processes, label + " W=16");
}

std::vector<device::Process> all_corners() {
  std::vector<device::Process> corners;
  for (const device::Corner corner : device::kAllCorners) {
    corners.push_back(device::Process::typical().at_corner(corner));
  }
  return corners;
}

class BatchEquivalencePerIsa : public testing_support::PerLaneIsa {};

TEST_P(BatchEquivalencePerIsa, AllTwentySpecsEveryCornerEveryWidth) {
  const auto suite = problems::spec_suite();
  ASSERT_EQ(suite.size(), 20u);
  const auto corners = all_corners();
  for (std::size_t s = 0; s < suite.size(); ++s) {
    const IntegratorProblem problem(suite[s]);
    check_copy_at_every_width(GetParam(), problem, random_genomes(problem, 24, 1000 + s),
                              corners, "spec " + std::to_string(s + 1));
  }
}

TEST_P(BatchEquivalencePerIsa, MonteCarloPathGenomesOnEveryShiftedProcess) {
  // The harvested TT passers on the Monte-Carlo samples' shifted processes:
  // the processes and designs the lane path's robustness step runs.
  const IntegratorProblem problem(problems::chosen_spec());
  const ScreenedCorpus& corpus = screened_corpus();
  ASSERT_GE(corpus.passing.size(), 16u);
  const auto shifted = yield::shifted_processes(
      device::Process::typical().at_corner(device::Corner::TT),
      yield::draw_perturbations(yield::MonteCarloParams{}));
  ASSERT_EQ(shifted.size(), yield::MonteCarloParams{}.samples);
  check_copy_at_every_width(GetParam(), problem, corpus.passing, shifted, "MC path");
}

TEST_P(BatchEquivalencePerIsa, PooledMonteCarloGroupsOfEverySpan) {
  // The lane groups the pooled Monte-Carlo stage forms for each span of
  // MonteCarloPooledAcrossWholeSpans: its passers in span order, in full
  // groups of 16 and a last group fitted to 4, 8 or 16, on every shifted
  // process.
  const IntegratorProblem problem(problems::chosen_spec());
  const auto shifted = yield::shifted_processes(
      device::Process::typical().at_corner(device::Corner::TT),
      yield::draw_perturbations(yield::MonteCarloParams{}));
  for (const PooledSpan& span : pooled_spans(problem, screened_corpus())) {
    std::vector<std::vector<double>> passers;
    for (std::size_t i = 0; i < span.genomes.size(); ++i) {
      if (span.pass[i]) passers.push_back(span.genomes[i]);
    }
    ASSERT_FALSE(passers.empty());
    const auto split =
        passers.begin() + static_cast<std::ptrdiff_t>((passers.size() - 1) / 16 * 16);
    const std::vector<std::vector<double>> full(passers.begin(), split);
    const std::vector<std::vector<double>> last(split, passers.end());
    check_copy<16>(GetParam(), problem, full, shifted, span.label + " full groups");
    switch (fitted_tail_width(passers.size())) {
      case 4:
        check_copy<4>(GetParam(), problem, last, shifted, span.label + " last group");
        break;
      case 8:
        check_copy<8>(GetParam(), problem, last, shifted, span.label + " last group");
        break;
      default:
        check_copy<16>(GetParam(), problem, last, shifted, span.label + " last group");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, BatchEquivalencePerIsa, ::testing::ValuesIn(circuit::kLaneIsas),
                         testing_support::lane_isa_param_name);

}  // namespace
}  // namespace anadex::problems
