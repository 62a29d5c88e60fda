// Shared helpers for the figure-reproduction binaries.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "expt/figures.hpp"
#include "expt/runner.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::bench {

/// Standard generation budget of the paper's front figures.
inline constexpr std::size_t kPaperBudget = 800;

/// Seed used by all figure benches (deterministic output).
inline constexpr std::uint64_t kSeed = 3;

/// Scale factor for quick smoke runs: ANADEX_BENCH_QUICK=1 in the
/// environment divides generation budgets by 8 (useful while developing).
inline std::size_t scaled(std::size_t generations) {
  static const bool quick = [] {
    // Quick-mode is a CI pacing switch, not a result input: it only
    // scales iteration budgets. anadex-lint: allow(env-read)
    const char* env = std::getenv("ANADEX_BENCH_QUICK");
    return env != nullptr && env[0] == '1';
  }();
  return quick ? std::max<std::size_t>(generations / 8, 16) : generations;
}

/// Counts the steps of `values` that break a monotone trend: a rise when
/// `down`, a fall otherwise. A NaN step counts as a break.
inline std::size_t trend_breaks(const std::vector<double>& values, bool down) {
  std::size_t breaks = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const bool follows = down ? values[i] <= values[i - 1] : values[i] >= values[i - 1];
    if (!follows) ++breaks;
  }
  return breaks;
}

/// The verdict suffix of a measured claim.
inline const char* verdict(bool holds) { return holds ? "  [holds]" : "  [DEVIATES]"; }

/// Base settings for runs against the paper's chosen specification.
inline expt::RunSettings chosen_settings(expt::Algo algo, std::size_t generations) {
  expt::RunSettings s;
  s.algo = algo;
  s.spec = problems::chosen_spec();
  s.population = 100;
  s.generations = scaled(generations);
  // Keep the phase-I cap under the total budget when quick-scaling.
  s.phase1_cap = std::min<std::size_t>(200, std::max<std::size_t>(s.generations / 4, 1));
  s.partitions = 8;
  s.seed = kSeed;
  return s;
}

}  // namespace anadex::bench
