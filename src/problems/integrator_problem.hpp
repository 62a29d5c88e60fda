// The paper's optimization problem: 15-parameter sizing of the CDS
// switched-capacitor integrator.
//
// Objectives (both minimized internally):
//   f0 = power dissipation at the typical corner, watts
//   f1 = C_MAX - C_load, farads  (i.e. the load capacitance is MAXIMIZED;
//        the paper wants the Pareto front spread over C_load in [0, 5] pF)
//
// Constraints (violations, each normalized to its spec limit and evaluated
// worst-case across the five process corners): dynamic range, output range,
// settling time, settling error, area, device operating regions, mirror
// matching, and Monte-Carlo robustness (yield) at the typical corner.
//
// Robustness is only computed for designs that pass every deterministic
// limit at the typical corner. evaluate() scores such a design with the
// scalar yield::robustness(). The lane path pools the TT-passing designs of
// a whole evaluate_lanes() call and scores them 16 at a time with
// yield::robustness_lanes(), one lane kernel call per perturbation,
// bit-identically; only the last group of a call is fitted to 4/8/16.
#pragma once

#include <array>
#include <memory>

#include "engine/simd/lane_evaluator.hpp"
#include "moga/problem.hpp"
#include "scint/integrator.hpp"
#include "scint/spec.hpp"
#include "yield/robustness.hpp"

namespace anadex::problems {

/// Gene layout of the 15-variable design vector.
enum GeneIndex : std::size_t {
  kW1, kL1, kW3, kL3, kW5, kL5, kW6, kL6, kW7, kL7,
  kIbias, kCc, kCs, kCoc, kCload,
  kNumGenes,
};

/// Upper end of the explored load range (and of the reported C axis), F.
inline constexpr double kLoadMax = 5e-12;

class IntegratorProblem final : public moga::Problem, public engine::LaneEvaluator {
 public:
  /// Builds the problem for one specification. The five corner processes,
  /// the Monte-Carlo perturbation set and its shifted processes are
  /// precomputed; evaluation is deterministic.
  explicit IntegratorProblem(scint::Spec spec,
                             scint::IntegratorContext context = {},
                             yield::MonteCarloParams mc = {});

  std::string name() const override;
  std::size_t num_variables() const override { return kNumGenes; }
  std::size_t num_objectives() const override { return 2; }
  std::size_t num_constraints() const override { return 9; }
  std::vector<moga::VariableBound> bounds() const override;

  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override;

  // LaneEvaluator: the SoA batch path, for spans of any length. Results
  // are bit-identical to evaluate() per genome (golden suite
  // tests/scint/batch_equivalence_test). A call keeps its working set on
  // the stack, whatever the span length.
  bool lanes_supported() const override { return true; }
  std::size_t preferred_lane_width() const override;
  void evaluate_lanes(std::span<const std::span<const double>> genes,
                      std::span<moga::Evaluation* const> outs) const override;

  /// Decodes a gene vector into the structured design.
  static scint::IntegratorDesign decode(std::span<const double> genes);

  /// Encodes a structured design back into genes (inverse of decode).
  static std::vector<double> encode(const scint::IntegratorDesign& design);

  const scint::Spec& spec() const { return spec_; }
  const scint::IntegratorContext& context() const { return context_; }

  /// Typical-corner performance of a design (for reporting / examples).
  scint::IntegratorPerformance typical_performance(const scint::IntegratorDesign& design) const;

  /// Monte-Carlo robustness of a design against this problem's spec (the
  /// scalar form; the lane path computes the same value per lane group).
  double design_robustness(const scint::IntegratorDesign& design) const;

 private:
  /// The TT-passing designs of one evaluate_lanes() call that await
  /// Monte-Carlo robustness, at most one lane group of them at a time.
  /// Defined in the .cpp.
  struct PassingPool;

  /// The corner stage of one padded lane group (n <= W; W is one of
  /// circuit::kLaneWidths) of pre-screened genomes: writes every output
  /// with a non-passer's robustness violation and adds the TT passers to
  /// `pool`, scoring it whenever it fills.
  template <std::size_t W>
  void evaluate_lane_group(std::span<const std::span<const double>> genes,
                           std::span<moga::Evaluation* const> outs, PassingPool& pool) const;

  /// The Monte-Carlo stage: overwrites the robustness violation of every
  /// design in `pool` and empties it.
  void score_pool(PassingPool& pool) const;

  scint::Spec spec_;
  scint::IntegratorContext context_;
  std::array<device::Process, 5> corners_;
  std::vector<yield::ProcessPerturbation> perturbations_;
  /// yield::shifted_processes of the TT corner; empty when the set carries
  /// pair-mismatch draws, and the lane path then scores robustness scalar.
  std::vector<device::Process> mc_processes_;
};

/// Convenience factory.
std::unique_ptr<IntegratorProblem> make_integrator_problem(const scint::Spec& spec);

}  // namespace anadex::problems
