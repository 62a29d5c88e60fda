// FaultInjectingProblem: deterministic fault injection for testing the
// guard layer and the evolvers' tolerance to misbehaving evaluators.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "moga/problem.hpp"

namespace anadex::robust {

/// Exception type thrown by injected evaluator failures, so tests can
/// distinguish injected faults from genuine ones.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-evaluation fault probabilities. Rates are independent; exceptions
/// are decided first, then NaN injection, then the slow path.
struct FaultInjectionConfig {
  double exception_rate = 0.0;  ///< probability evaluate() throws InjectedFault
  double nan_rate = 0.0;        ///< probability one objective becomes NaN
  double slow_rate = 0.0;       ///< probability of a busy-spin before returning
  std::size_t slow_spin_iterations = 100000;  ///< spin length for the slow path
  std::uint64_t seed = 0x51f0a17ULL;          ///< mixes into the per-genome draw
};

/// Totals of what the injector actually did — compared against the
/// GuardedProblem's FaultReport in tests.
struct FaultInjectionCounters {
  std::size_t evaluations = 0;
  std::size_t exceptions = 0;
  std::size_t nans = 0;
  std::size_t slow = 0;
};

/// Wraps an inner Problem and injects faults at configurable rates.
///
/// Fault decisions are drawn from an Rng seeded by hash_genes(genes, seed),
/// i.e. they are a pure function of the genome: the same genes always fault
/// the same way. This keeps the decorated problem deterministic (the
/// Problem contract) and makes injected runs reproducible and resumable.
class FaultInjectingProblem final : public moga::Problem {
 public:
  FaultInjectingProblem(std::shared_ptr<const moga::Problem> inner, FaultInjectionConfig config);

  std::string name() const override;
  std::size_t num_variables() const override;
  std::size_t num_objectives() const override;
  std::size_t num_constraints() const override;
  std::vector<moga::VariableBound> bounds() const override;
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override;

  const FaultInjectionConfig& config() const { return config_; }

  /// Snapshot of the injection totals so far. evaluate() may run on
  /// several engine workers at once, so the totals are relaxed atomics;
  /// read them once the evaluations of interest have returned.
  FaultInjectionCounters counters() const;

  /// Makes the slow-eval spin cooperative: when `token` (non-owning,
  /// nullptr detaches) is raised mid-spin, evaluate() throws
  /// OperationCancelled — exactly what a watchdog-aware simulator binding
  /// would do. This is how the chaos harness exercises the stuck-eval
  /// detection path end to end.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

 private:
  std::shared_ptr<const moga::Problem> inner_;
  FaultInjectionConfig config_;
  const CancelToken* cancel_ = nullptr;
  struct AtomicCounters {
    std::atomic<std::size_t> evaluations{0};
    std::atomic<std::size_t> exceptions{0};
    std::atomic<std::size_t> nans{0};
    std::atomic<std::size_t> slow{0};
  };
  mutable AtomicCounters counters_;
};

}  // namespace anadex::robust
