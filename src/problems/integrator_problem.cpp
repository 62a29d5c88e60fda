#include "problems/integrator_problem.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "circuit/batch_opamp.hpp"
#include "common/check.hpp"
#include "scint/batch_integrator.hpp"

namespace anadex::problems {

namespace {

/// Clamp applied to each normalized violation so one wildly broken
/// constraint cannot swamp the sum Deb's rule compares.
constexpr double kViolationCap = 10.0;

double violation(double amount) {
  return std::clamp(amount, 0.0, kViolationCap);
}

/// Index of the Monte-Carlo robustness entry in Evaluation::violations.
constexpr std::size_t kRobustnessViolation = 8;

double robustness_violation(const scint::Spec& spec, double rob) {
  return violation((spec.robustness_min - rob) / spec.robustness_min);
}

/// Throws exactly for the genomes whose scalar evaluation throws:
/// non-positive or non-finite device geometry / bias current trips an
/// ANADEX_REQUIRE inside the device model.
void prescreen(const scint::IntegratorDesign& design) {
  const circuit::OpAmpDesign& a = design.opamp;
  const bool ok = a.m1.w > 0.0 && a.m1.l > 0.0 && a.m3.w > 0.0 && a.m3.l > 0.0 &&
                  a.m5.w > 0.0 && a.m5.l > 0.0 && a.m6.w > 0.0 && a.m6.l > 0.0 &&
                  a.m7.w > 0.0 && a.m7.l > 0.0 && a.ibias > 0.0;
  ANADEX_REQUIRE(ok, "batch pre-screen: genome outside the device model's domain");
}

/// Lane robustness of designs[0, m) at the smallest compiled lane width
/// V >= m (V <= W), padding the group with designs[0]. Called with V = W.
template <std::size_t V, std::size_t W>
void fitted_robustness(std::span<const device::Process> shifted,
                       std::array<scint::IntegratorDesign, W>& designs, std::size_t m,
                       const scint::IntegratorContext& context, const scint::Spec& spec,
                       std::array<double, W>& rob) {
  if constexpr (V > 4) {
    if (m <= V / 2) {
      fitted_robustness<V / 2>(shifted, designs, m, context, spec, rob);
      return;
    }
  }
  for (std::size_t k = m; k < V; ++k) designs[k] = designs[0];
  yield::robustness_lanes<V>(shifted,
                             std::span<const scint::IntegratorDesign, V>{designs.data(), V},
                             context, spec, std::span<double, V>{rob.data(), V});
}

}  // namespace

struct IntegratorProblem::PassingPool {
  std::array<scint::IntegratorDesign, circuit::kMaxLaneWidth> designs;
  std::array<moga::Evaluation*, circuit::kMaxLaneWidth> outs;
  std::size_t size = 0;
};

IntegratorProblem::IntegratorProblem(scint::Spec spec, scint::IntegratorContext context,
                                     yield::MonteCarloParams mc)
    : spec_(std::move(spec)),
      context_(context),
      corners_{device::Process::typical().at_corner(device::Corner::TT),
               device::Process::typical().at_corner(device::Corner::FF),
               device::Process::typical().at_corner(device::Corner::SS),
               device::Process::typical().at_corner(device::Corner::FS),
               device::Process::typical().at_corner(device::Corner::SF)},
      perturbations_(yield::draw_perturbations(mc)),
      mc_processes_(yield::shifted_processes(corners_[0], perturbations_)) {}

std::string IntegratorProblem::name() const { return "SCIntegrator[" + spec_.name + "]"; }

std::vector<moga::VariableBound> IntegratorProblem::bounds() const {
  std::vector<moga::VariableBound> b(kNumGenes);
  const double um = 1e-6;
  const double pf = 1e-12;
  b[kW1] = {1.0 * um, 200.0 * um};
  b[kL1] = {0.18 * um, 2.0 * um};
  b[kW3] = {1.0 * um, 200.0 * um};
  b[kL3] = {0.18 * um, 2.0 * um};
  b[kW5] = {1.0 * um, 200.0 * um};
  b[kL5] = {0.18 * um, 2.0 * um};
  b[kW6] = {1.0 * um, 400.0 * um};
  b[kL6] = {0.18 * um, 1.0 * um};
  b[kW7] = {1.0 * um, 200.0 * um};
  b[kL7] = {0.18 * um, 1.0 * um};
  b[kIbias] = {1e-6, 50e-6};
  b[kCc] = {0.1 * pf, 5.0 * pf};
  b[kCs] = {0.5 * pf, 8.0 * pf};
  b[kCoc] = {0.1 * pf, 2.0 * pf};
  b[kCload] = {0.01 * pf, kLoadMax};
  return b;
}

scint::IntegratorDesign IntegratorProblem::decode(std::span<const double> genes) {
  ANADEX_REQUIRE(genes.size() == kNumGenes, "integrator design needs 15 genes");
  scint::IntegratorDesign d;
  d.opamp.m1 = {genes[kW1], genes[kL1]};
  d.opamp.m3 = {genes[kW3], genes[kL3]};
  d.opamp.m5 = {genes[kW5], genes[kL5]};
  d.opamp.m6 = {genes[kW6], genes[kL6]};
  d.opamp.m7 = {genes[kW7], genes[kL7]};
  d.opamp.ibias = genes[kIbias];
  d.opamp.cc = genes[kCc];
  d.cs = genes[kCs];
  d.coc = genes[kCoc];
  d.cload = genes[kCload];
  return d;
}

std::vector<double> IntegratorProblem::encode(const scint::IntegratorDesign& design) {
  std::vector<double> genes(kNumGenes);
  genes[kW1] = design.opamp.m1.w;
  genes[kL1] = design.opamp.m1.l;
  genes[kW3] = design.opamp.m3.w;
  genes[kL3] = design.opamp.m3.l;
  genes[kW5] = design.opamp.m5.w;
  genes[kL5] = design.opamp.m5.l;
  genes[kW6] = design.opamp.m6.w;
  genes[kL6] = design.opamp.m6.l;
  genes[kW7] = design.opamp.m7.w;
  genes[kL7] = design.opamp.m7.l;
  genes[kIbias] = design.opamp.ibias;
  genes[kCc] = design.opamp.cc;
  genes[kCs] = design.cs;
  genes[kCoc] = design.coc;
  genes[kCload] = design.cload;
  return genes;
}

scint::IntegratorPerformance IntegratorProblem::typical_performance(
    const scint::IntegratorDesign& design) const {
  return scint::evaluate(corners_[0], design, context_);
}

double IntegratorProblem::design_robustness(const scint::IntegratorDesign& design) const {
  return yield::robustness(corners_[0], design, context_, spec_, perturbations_);
}

void IntegratorProblem::evaluate(std::span<const double> genes, moga::Evaluation& out) const {
  const scint::IntegratorDesign design = decode(genes);

  // Worst-case spec figures across the five corners.
  double dr_worst = std::numeric_limits<double>::infinity();
  double or_worst = std::numeric_limits<double>::infinity();
  double st_worst = 0.0;
  double se_worst = 0.0;
  double area_worst = 0.0;
  double sat_worst = std::numeric_limits<double>::infinity();
  double balance_worst = 0.0;
  double vov_worst = std::numeric_limits<double>::infinity();
  double power_tt = 0.0;
  bool tt_pass = false;

  for (std::size_t c = 0; c < corners_.size(); ++c) {
    const scint::IntegratorPerformance perf = scint::evaluate(corners_[c], design, context_);
    dr_worst = std::min(dr_worst, perf.dynamic_range_db);
    or_worst = std::min(or_worst, perf.output_range);
    st_worst = std::max(st_worst, perf.settling_time);
    se_worst = std::max(se_worst, perf.settling_error);
    area_worst = std::max(area_worst, perf.area);
    sat_worst = std::min(sat_worst, perf.sat_margin_worst);
    balance_worst = std::max(balance_worst, perf.mirror_balance_error);
    vov_worst = std::min(vov_worst, perf.vov_worst);
    if (c == 0) {
      power_tt = perf.power;
      tt_pass = spec_.satisfied_by(perf);
    }
  }

  // Monte-Carlo robustness is only worth spending on designs that pass the
  // deterministic limits at the typical corner; others would score ~0
  // anyway (the samples are centred on TT).
  const double rob = tt_pass ? design_robustness(design) : 0.0;

  out.objectives = {power_tt, kLoadMax - design.cload};
  out.violations = {
      violation((spec_.dr_min_db - dr_worst) / 10.0),          // per 10 dB
      violation((spec_.or_min - or_worst) / 0.5),              // per 0.5 V
      violation((st_worst - spec_.st_max) / spec_.st_max),
      violation((se_worst - spec_.se_max) / spec_.se_max),
      violation((area_worst - spec_.area_max) / spec_.area_max),
      violation(-sat_worst / 0.1),                             // per 100 mV shortfall
      violation((balance_worst - spec_.balance_max) / spec_.balance_max),
      violation((spec_.vov_min - vov_worst) / 0.1),                // strong inversion
      robustness_violation(spec_, rob),
  };
}

// 16 measured fastest on AVX-512 and AVX2 hosts alike (deeper lane pool
// amortizes the masked Newton iterations of slow-converging lanes).
std::size_t IntegratorProblem::preferred_lane_width() const { return 16; }

void IntegratorProblem::evaluate_lanes(std::span<const std::span<const double>> genes,
                                       std::span<moga::Evaluation* const> outs) const {
  ANADEX_REQUIRE(genes.size() == outs.size() && !genes.empty(),
                 "evaluate_lanes needs parallel, non-empty spans");
  // Pre-screen the whole call BEFORE any output is written (LaneEvaluator
  // error contract). The engine reacts to a throw by re-running every
  // genome of the call through the scalar path, which reproduces the
  // precise per-genome exception (or result) the scalar mode would produce.
  for (const std::span<const double> g : genes) prescreen(decode(g));

  // Stage 1, corners, in lane groups of up to 16 genomes. Stage 2,
  // Monte-Carlo robustness, runs on the TT passers of the whole call in
  // full groups of 16 as they accumulate; only the last is fitted.
  PassingPool pool;
  std::size_t pos = 0;
  while (pos < genes.size()) {
    const std::size_t n = std::min<std::size_t>(genes.size() - pos, circuit::kMaxLaneWidth);
    const auto g = genes.subspan(pos, n);
    const auto o = outs.subspan(pos, n);
    if (n <= 4) {
      evaluate_lane_group<4>(g, o, pool);
    } else if (n <= 8) {
      evaluate_lane_group<8>(g, o, pool);
    } else {
      evaluate_lane_group<16>(g, o, pool);
    }
    pos += n;
  }
  score_pool(pool);
}

template <std::size_t W>
void IntegratorProblem::evaluate_lane_group(std::span<const std::span<const double>> genes,
                                            std::span<moga::Evaluation* const> outs,
                                            PassingPool& pool) const {
  const std::size_t n = genes.size();

  // Pad the group with lane 0; padded results are computed and discarded.
  std::array<scint::IntegratorDesign, W> designs;
  for (std::size_t i = 0; i < n; ++i) designs[i] = decode(genes[i]);
  for (std::size_t i = n; i < W; ++i) designs[i] = designs[0];

  // Per-lane worst-case accumulators, mirroring evaluate()'s corner loop.
  std::array<double, W> dr_worst, or_worst, st_worst, se_worst, area_worst;
  std::array<double, W> sat_worst, balance_worst, vov_worst, power_tt;
  std::array<bool, W> tt_pass;
  for (std::size_t i = 0; i < W; ++i) {
    dr_worst[i] = std::numeric_limits<double>::infinity();
    or_worst[i] = std::numeric_limits<double>::infinity();
    st_worst[i] = 0.0;
    se_worst[i] = 0.0;
    area_worst[i] = 0.0;
    sat_worst[i] = std::numeric_limits<double>::infinity();
    balance_worst[i] = 0.0;
    vov_worst[i] = std::numeric_limits<double>::infinity();
    power_tt[i] = 0.0;
    tt_pass[i] = false;
  }

  std::array<scint::IntegratorPerformance, W> perfs;
  for (std::size_t c = 0; c < corners_.size(); ++c) {
    scint::evaluate_lanes<W>(corners_[c], std::span<const scint::IntegratorDesign, W>{designs},
                             context_, std::span<scint::IntegratorPerformance, W>{perfs});
    for (std::size_t i = 0; i < n; ++i) {
      const scint::IntegratorPerformance& perf = perfs[i];
      dr_worst[i] = std::min(dr_worst[i], perf.dynamic_range_db);
      or_worst[i] = std::min(or_worst[i], perf.output_range);
      st_worst[i] = std::max(st_worst[i], perf.settling_time);
      se_worst[i] = std::max(se_worst[i], perf.settling_error);
      area_worst[i] = std::max(area_worst[i], perf.area);
      sat_worst[i] = std::min(sat_worst[i], perf.sat_margin_worst);
      balance_worst[i] = std::max(balance_worst[i], perf.mirror_balance_error);
      vov_worst[i] = std::min(vov_worst[i], perf.vov_worst);
      if (c == 0) {
        power_tt[i] = perf.power;
        tt_pass[i] = spec_.satisfied_by(perf);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    moga::Evaluation& out = *outs[i];
    out.objectives = {power_tt[i], kLoadMax - designs[i].cload};
    out.violations = {
        violation((spec_.dr_min_db - dr_worst[i]) / 10.0),
        violation((spec_.or_min - or_worst[i]) / 0.5),
        violation((st_worst[i] - spec_.st_max) / spec_.st_max),
        violation((se_worst[i] - spec_.se_max) / spec_.se_max),
        violation((area_worst[i] - spec_.area_max) / spec_.area_max),
        violation(-sat_worst[i] / 0.1),
        violation((balance_worst[i] - spec_.balance_max) / spec_.balance_max),
        violation((spec_.vov_min - vov_worst[i]) / 0.1),
        robustness_violation(spec_, 0.0),
    };
    if (tt_pass[i]) {
      pool.designs[pool.size] = designs[i];
      pool.outs[pool.size] = &out;
      if (++pool.size == circuit::kMaxLaneWidth) score_pool(pool);
    }
  }
}

void IntegratorProblem::score_pool(PassingPool& pool) const {
  const std::size_t m = pool.size;
  if (m == 0) return;
  // Perturbation-major: one lane kernel call per shifted process over the
  // pooled designs. A pair-mismatch set has no shared shifted processes,
  // so it falls back to the scalar form per design.
  std::array<double, circuit::kMaxLaneWidth> rob;
  if (!mc_processes_.empty()) {
    fitted_robustness<circuit::kMaxLaneWidth>(mc_processes_, pool.designs, m, context_, spec_,
                                              rob);
  } else {
    for (std::size_t k = 0; k < m; ++k) rob[k] = design_robustness(pool.designs[k]);
  }
  for (std::size_t k = 0; k < m; ++k) {
    pool.outs[k]->violations[kRobustnessViolation] = robustness_violation(spec_, rob[k]);
  }
  pool.size = 0;
}

std::unique_ptr<IntegratorProblem> make_integrator_problem(const scint::Spec& spec) {
  return std::make_unique<IntegratorProblem>(spec);
}

}  // namespace anadex::problems
