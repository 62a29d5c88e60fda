// Unit tests of the deterministic chaos harness: seeded plan derivation and
// the checkpoint-write crash hook. The end-to-end kill/resume byte-identity
// matrix lives in tests/integration/chaos_recovery_test.cpp.
#include "robust/chaos.hpp"

#include <cstdio>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "moga/nsga2.hpp"

namespace anadex::robust {
namespace {

TEST(ChaosPlan, IsAPureFunctionOfTheSeed) {
  const auto a = ChaosPlan::from_seed(42, 100);
  const auto b = ChaosPlan::from_seed(42, 100);
  EXPECT_EQ(a.faults.seed, b.faults.seed);
  EXPECT_EQ(a.faults.exception_rate, b.faults.exception_rate);
  EXPECT_EQ(a.faults.nan_rate, b.faults.nan_rate);
  EXPECT_EQ(a.faults.slow_rate, b.faults.slow_rate);
  EXPECT_EQ(a.faults.slow_spin_iterations, b.faults.slow_spin_iterations);
  EXPECT_EQ(a.kill_generation, b.kill_generation);
  EXPECT_EQ(a.crash_at_write, b.crash_at_write);

  const auto c = ChaosPlan::from_seed(43, 100);
  EXPECT_NE(a.faults.seed, c.faults.seed);
}

TEST(ChaosPlan, StaysWithinItsDocumentedEnvelope) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto plan = ChaosPlan::from_seed(seed, 40);
    EXPECT_GE(plan.faults.exception_rate, 0.01);
    EXPECT_LE(plan.faults.exception_rate, 0.05);
    EXPECT_GE(plan.faults.nan_rate, 0.01);
    EXPECT_LE(plan.faults.nan_rate, 0.05);
    EXPECT_GE(plan.faults.slow_rate, 0.005);
    EXPECT_LE(plan.faults.slow_rate, 0.02);
    // Kill in the middle half, never at the very start or end.
    EXPECT_GE(plan.kill_generation, 10u);
    EXPECT_LT(plan.kill_generation, 30u);
    EXPECT_GE(plan.crash_at_write, 1u);
    EXPECT_LE(plan.crash_at_write, 3u);
    EXPECT_EQ(ChaosPlan::from_seed(seed, 40, false).crash_at_write, 0u);
  }
  EXPECT_THROW(ChaosPlan::from_seed(1, 3), PreconditionError);
}

Checkpoint small_checkpoint(std::size_t generation) {
  Checkpoint cp;
  cp.meta.algo = "TPG(NSGA-II)";
  cp.meta.seed = 1;
  cp.meta.population = 4;
  cp.meta.generations = 8;
  moga::Nsga2State state;
  state.next_generation = generation;
  cp.state = state;
  return cp;
}

TEST(ChaosHook, CrashesOnTheConfiguredWriteAndLeavesTheOldFileIntact) {
  const std::string path = testing::TempDir() + "anadex_chaos_hook.cp";
  auto completed = std::make_shared<std::size_t>(0);
  CheckpointWriteOptions options;
  options.hook = make_crashing_write_hook(2, completed);

  write_checkpoint_file(path, small_checkpoint(1), options);
  EXPECT_EQ(*completed, 1u);

  // The second write dies after the temp-file phase: the previous
  // checkpoint must survive untouched, with the orphaned temp alongside.
  EXPECT_THROW(write_checkpoint_file(path, small_checkpoint(2), options),
               InjectedCrash);
  EXPECT_EQ(*completed, 1u);
  const Checkpoint survivor = read_checkpoint_file(path);
  EXPECT_EQ(std::get<moga::Nsga2State>(survivor.state).next_generation, 1u);
  std::ifstream orphan(path + ".tmp");
  EXPECT_TRUE(orphan.good());

  // recover_checkpoint ignores the orphan and finds the good slot.
  const auto recovered = recover_checkpoint(path);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->path, path);

  // The next write simply overwrites the orphaned temp file.
  CheckpointWriteOptions clean;
  write_checkpoint_file(path, small_checkpoint(3), clean);
  EXPECT_EQ(std::get<moga::Nsga2State>(read_checkpoint_file(path).state).next_generation, 3u);

  std::remove((path + ".tmp").c_str());
  std::remove(path.c_str());
}

TEST(ChaosHook, ZeroNeverCrashes) {
  const std::string path = testing::TempDir() + "anadex_chaos_nocrash.cp";
  auto completed = std::make_shared<std::size_t>(0);
  CheckpointWriteOptions options;
  options.hook = make_crashing_write_hook(0, completed);
  for (std::size_t i = 0; i < 5; ++i) {
    write_checkpoint_file(path, small_checkpoint(i), options);
  }
  EXPECT_EQ(*completed, 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anadex::robust
