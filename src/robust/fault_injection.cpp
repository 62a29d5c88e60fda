#include "robust/fault_injection.hpp"

#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "robust/fault.hpp"

namespace anadex::robust {

FaultInjectingProblem::FaultInjectingProblem(std::shared_ptr<const moga::Problem> inner,
                                             FaultInjectionConfig config)
    : inner_(std::move(inner)), config_(config) {
  ANADEX_REQUIRE(inner_ != nullptr, "FaultInjectingProblem needs an inner problem");
  for (double rate : {config_.exception_rate, config_.nan_rate, config_.slow_rate}) {
    ANADEX_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault injection rates must lie in [0, 1]");
  }
}

std::string FaultInjectingProblem::name() const { return inner_->name() + "+faults"; }
std::size_t FaultInjectingProblem::num_variables() const { return inner_->num_variables(); }
std::size_t FaultInjectingProblem::num_objectives() const { return inner_->num_objectives(); }
std::size_t FaultInjectingProblem::num_constraints() const { return inner_->num_constraints(); }
std::vector<moga::VariableBound> FaultInjectingProblem::bounds() const { return inner_->bounds(); }

FaultInjectionCounters FaultInjectingProblem::counters() const {
  FaultInjectionCounters c;
  c.evaluations = counters_.evaluations.load(std::memory_order_relaxed);
  c.exceptions = counters_.exceptions.load(std::memory_order_relaxed);
  c.nans = counters_.nans.load(std::memory_order_relaxed);
  c.slow = counters_.slow.load(std::memory_order_relaxed);
  return c;
}

void FaultInjectingProblem::evaluate(std::span<const double> genes, moga::Evaluation& out) const {
  counters_.evaluations.fetch_add(1, std::memory_order_relaxed);
  Rng rng(hash_genes(genes, config_.seed));

  if (rng.bernoulli(config_.exception_rate)) {
    counters_.exceptions.fetch_add(1, std::memory_order_relaxed);
    throw InjectedFault("injected evaluator failure");
  }

  if (rng.bernoulli(config_.slow_rate)) {
    counters_.slow.fetch_add(1, std::memory_order_relaxed);
    // Busy-spin standing in for a simulator that converges slowly. volatile
    // keeps the loop from being optimized away. The spin polls the
    // cancellation token every 1024 iterations — the cooperative contract a
    // watchdog-aware evaluator implements — and bails out with
    // OperationCancelled when the watchdog deadline fires.
    volatile double sink = 0.0;
    for (std::size_t i = 0; i < config_.slow_spin_iterations; ++i) {
      if ((i & 1023u) == 0 && cancel_ != nullptr && cancel_->requested()) {
        throw OperationCancelled("injected slow evaluation cancelled");
      }
      sink = sink + 1e-9;
    }
  }

  inner_->evaluate(genes, out);

  if (!out.objectives.empty() && rng.bernoulli(config_.nan_rate)) {
    counters_.nans.fetch_add(1, std::memory_order_relaxed);
    const std::size_t slot = rng.uniform_index(out.objectives.size());
    out.objectives[slot] = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace anadex::robust
