// Table-driven corruption suite for the durable-checkpoint layer: every
// damaged-file shape must (a) fail loading with a diagnostic naming the
// file, and (b) be skipped by recover_checkpoint in favor of the newest
// rotated slot that still checksum-verifies — the `--resume auto` path.
#include "robust/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "expt/runner.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::robust {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

Checkpoint make_checkpoint(std::size_t next_generation) {
  Checkpoint cp;
  cp.meta.algo = "TPG(NSGA-II)";
  cp.meta.seed = 7;
  cp.meta.population = 8;
  cp.meta.generations = 64;
  cp.meta.config = "corrupt-suite";
  moga::Nsga2State state;
  moga::Individual ind;
  ind.genes = {0.25, 0.5};
  ind.eval.objectives = {1.0, 2.0};
  state.parents.push_back(ind);
  state.next_generation = next_generation;
  cp.state = state;
  return cp;
}

/// Replaces the first `from` in a checkpoint's body and writes a fresh
/// checksum trailer, so the damage reaches the parser instead of being
/// caught by the checksum.
std::string resigned_with(std::string text, const std::string& from, const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at == std::string::npos) return text;
  text.replace(at, from.size(), to);
  const std::string body = text.substr(0, text.rfind("checksum "));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash_bytes(body, 0)));
  return body + "checksum " + hex + "\n";
}

/// One way of damaging a checkpoint file's bytes.
struct Corruption {
  const char* name;
  std::function<std::string(std::string)> mutate;
  /// Substring the load diagnostic must contain (besides the path).
  const char* diagnostic;
};

std::vector<Corruption> corruption_table() {
  return {
      {"truncated-half",
       [](std::string text) { return text.substr(0, text.size() / 2); },
       "truncated"},
      {"truncated-tail",  // cuts into the trailer's checksum hex
       [](std::string text) { return text.substr(0, text.size() - 12); },
       "checksum"},
      {"bit-flipped",
       [](std::string text) {
         text[text.size() / 3] ^= 0x10;
         return text;
       },
       "checksum"},
      {"bad-checksum",
       [](std::string text) {
         const auto at = text.rfind("checksum ");
         text.replace(at + 9, 16, std::string(16, '0'));
         return text;
       },
       "checksum"},
      {"wrong-version",
       [](std::string text) {
         return "anadex-checkpoint v7" + text.substr(text.find('\n'));
       },
       "anadex-checkpoint v7"},
      {"emptied", [](std::string) { return std::string(); }, "version mismatch"},
      {"overflowing-seed",  // 2^64: one past the largest u64
       [](std::string text) {
         return resigned_with(std::move(text), "meta TPG(NSGA-II) 7 ",
                              "meta TPG(NSGA-II) 18446744073709551616 ");
       },
       "18446744073709551616"},
      {"junk-rank",  // the parents' one record: 2 genes, 2 objectives, 0 violations
       [](std::string text) {
         return resigned_with(std::move(text), "individual 2 2 0 -1 ",
                              "individual 2 2 0 9abc ");
       },
       "9abc"},
  };
}

TEST(CorruptCheckpoint, EveryShapeFailsLoudlyWithPathAndReason) {
  const std::string path = testing::TempDir() + "anadex_corrupt_load.cp";
  for (const auto& corruption : corruption_table()) {
    write_checkpoint_file(path, make_checkpoint(10));
    spit(path, corruption.mutate(slurp(path)));
    try {
      (void)read_checkpoint_file(path);
      FAIL() << corruption.name << ": expected PreconditionError";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos)
          << corruption.name << ": " << what;
      EXPECT_NE(what.find(corruption.diagnostic), std::string::npos)
          << corruption.name << ": " << what;
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, DiagnosticsReportByteOffsets) {
  const std::string path = testing::TempDir() + "anadex_corrupt_offset.cp";
  write_checkpoint_file(path, make_checkpoint(10));
  const std::string text = slurp(path);
  spit(path, text.substr(0, text.size() / 2));
  try {
    (void)read_checkpoint_file(path);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    // "... (at byte N of M)" places the failure inside the damaged file.
    const std::string what = e.what();
    EXPECT_NE(what.find("at byte "), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, RecoverFallsBackToNewestGoodSlot) {
  const std::string base = testing::TempDir() + "anadex_corrupt_recover.cp";
  CheckpointWriteOptions keep2;
  keep2.keep = 2;
  for (const auto& corruption : corruption_table()) {
    // Two rotated writes: slot .1 holds generation 10, slot 0 generation 20.
    write_checkpoint_file(base, make_checkpoint(10), keep2);
    write_checkpoint_file(base, make_checkpoint(20), keep2);
    spit(base, corruption.mutate(slurp(base)));

    const auto recovered = recover_checkpoint(base);
    ASSERT_TRUE(recovered.has_value()) << corruption.name;
    EXPECT_EQ(recovered->path, base + ".1") << corruption.name;
    ASSERT_TRUE(std::holds_alternative<moga::Nsga2State>(recovered->checkpoint.state)) << corruption.name;
    EXPECT_EQ(std::get<moga::Nsga2State>(recovered->checkpoint.state).next_generation, 10u) << corruption.name;
    // The skipped slot is reported, so callers can surface what was lost.
    ASSERT_EQ(recovered->rejected.size(), 1u) << corruption.name;
    EXPECT_NE(recovered->rejected[0].find(base), std::string::npos)
        << corruption.name;
  }
  std::remove(base.c_str());
  std::remove((base + ".1").c_str());
}

TEST(CorruptCheckpoint, RecoverReturnsNulloptWhenEverySlotIsBad) {
  const std::string base = testing::TempDir() + "anadex_corrupt_all_bad.cp";
  CheckpointWriteOptions keep2;
  keep2.keep = 2;
  write_checkpoint_file(base, make_checkpoint(10), keep2);
  write_checkpoint_file(base, make_checkpoint(20), keep2);
  spit(base, "anadex-checkpoint v2\ngarbage\n");
  spit(base + ".1", "");
  const auto recovered = recover_checkpoint(base);
  EXPECT_FALSE(recovered.has_value());
  std::remove(base.c_str());
  std::remove((base + ".1").c_str());

  // And with no files at all (the very first `--resume auto` invocation).
  EXPECT_FALSE(recover_checkpoint(base).has_value());
}

TEST(CorruptCheckpoint, RecoverTriesThePresentSlotsNewestFirst) {
  // No slot 0, a gap, a corrupt slot, then two good ones: the newer good
  // slot wins and the corrupt one is reported. Names that are not slots
  // of this chain (a leading zero, a suffix, another base) are never read,
  // even when they hold a valid checkpoint.
  const std::string base = testing::TempDir() + "anadex_corrupt_gaps.cp";
  const std::vector<std::string> slots = {".2", ".5", ".12", ".05", ".5.tmp", "x.1"};
  for (const std::string& suffix : slots) std::remove((base + suffix).c_str());
  std::remove(base.c_str());
  spit(base + ".2", "anadex-checkpoint v2\ngarbage\n");
  write_checkpoint_file(base + ".5", make_checkpoint(20));
  write_checkpoint_file(base + ".12", make_checkpoint(10));
  write_checkpoint_file(base + ".05", make_checkpoint(30));
  write_checkpoint_file(base + ".5.tmp", make_checkpoint(40));
  write_checkpoint_file(base + "x.1", make_checkpoint(50));

  const auto recovered = recover_checkpoint(base);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->path, base + ".5");
  EXPECT_EQ(std::get<moga::Nsga2State>(recovered->checkpoint.state).next_generation, 20u);
  ASSERT_EQ(recovered->rejected.size(), 1u);
  EXPECT_NE(recovered->rejected[0].find(base + ".2"), std::string::npos);
  // Slots at or past max_slots are out of the chain.
  std::remove((base + ".5").c_str());
  EXPECT_FALSE(recover_checkpoint(base, 12).has_value());
  for (const std::string& suffix : slots) std::remove((base + suffix).c_str());
}

TEST(CorruptCheckpoint, ResumeAutoFallsBackThroughTheRotationChain) {
  // Full-runner version of the fallback: a checkpointed run whose newest
  // slot is then corrupted must auto-resume from the previous rotation and
  // still finish identical to an uninterrupted run.
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  expt::RunSettings settings;
  settings.algo = expt::Algo::TPG;
  settings.spec = problems::spec_suite().front();
  settings.population = 16;
  settings.generations = 12;
  settings.seed = 3;
  const auto full = expt::run(problem, settings);

  settings.checkpoint_path = testing::TempDir() + "anadex_auto_fallback.cp";
  settings.checkpoint_every = 4;
  settings.checkpoint_keep = 3;
  (void)expt::run(problem, settings);
  // Rotation after the run: slot 0 = gen 12, .1 = gen 8, .2 = gen 4.
  spit(settings.checkpoint_path, slurp(settings.checkpoint_path).substr(0, 40));

  settings.resume = expt::ResumeMode::Auto;
  const auto resumed = expt::run(problem, settings);
  EXPECT_EQ(resumed.resumed_from_path, settings.checkpoint_path + ".1");
  EXPECT_EQ(resumed.resumed_from_generation, 8u);
  ASSERT_EQ(resumed.front.size(), full.front.size());
  for (std::size_t i = 0; i < full.front.size(); ++i) {
    EXPECT_EQ(resumed.front[i].power_w, full.front[i].power_w);
    EXPECT_EQ(resumed.front[i].cload_f, full.front[i].cload_f);
  }

  for (const char* suffix : {"", ".1", ".2"}) {
    std::remove((settings.checkpoint_path + suffix).c_str());
  }
}

}  // namespace
}  // namespace anadex::robust
