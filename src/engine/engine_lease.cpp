#include "engine/engine_lease.hpp"

#include "common/check.hpp"

namespace anadex::engine {

EngineLease::EngineLease(const moga::Problem& problem, const EngineHandle& handle,
                         std::size_t threads, obs::EventSink* sink,
                         std::size_t cache_capacity, EvalWatchdog watchdog,
                         BatchEval batch_eval)
    : problem_(problem), handle_(handle) {
  if (!handle_.shared()) {
    owned_.emplace(problem, threads, sink, cache_capacity, watchdog);
    owned_->set_batch_eval(batch_eval);
    return;
  }
  // A per-run deadline thread belongs to the engine that owns the worker
  // pool; on a shared hub the deadline is the hub's to enforce. Job
  // admission re-validates this so a bad request is rejected, not fatal.
  ANADEX_REQUIRE(!watchdog.enabled(),
                 "EngineLease: per-run eval watchdog is unsupported on a "
                 "shared engine (configure the deadline on the hub)");
}

EngineLease::EngineLease(const moga::Problem& problem, const EvalKnobs& knobs,
                         obs::EventSink* sink, EvalWatchdog watchdog)
    : EngineLease(problem, knobs.engine, knobs.threads, sink, knobs.eval_cache,
                  watchdog, knobs.batch_eval) {}

std::size_t EngineLease::threads() const {
  return owned_ ? owned_->threads() : handle_.engine->threads();
}

void EngineLease::evaluate_members(std::span<moga::Individual> members) const {
  if (owned_) {
    owned_->evaluate_members(members);
    return;
  }
  handle_.engine->evaluate_members_as(problem_, handle_.context, members,
                                      &client_stats_);
}

moga::Evaluation EngineLease::evaluate(std::span<const double> genes) const {
  if (owned_) return owned_->evaluate(genes);
  return problem_.evaluated(genes);
}

EvalStats EngineLease::stats() const {
  return owned_ ? owned_->stats() : client_stats_;
}

}  // namespace anadex::engine
