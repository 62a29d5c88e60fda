// Checkpoint/resume determinism at the algorithm level: a run interrupted
// at ANY snapshot and resumed from it must finish byte-identical to the
// uninterrupted run — same final population (genes, objectives, rank,
// crowding, all bit-exact via the v2 serialization), same front, same
// cumulative evaluation count.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "moga/nsga2.hpp"
#include "moga/serialize.hpp"
#include "moga/spea2.hpp"
#include "problems/analytic.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"

namespace anadex::robust {
namespace {

std::string exact_bytes(const moga::Population& population) {
  std::ostringstream os;
  moga::save_population_exact(os, population);
  return os.str();
}

TEST(Resume, Nsga2ResumesBitIdenticallyFromEverySnapshot) {
  const auto problem = problems::make_sch();
  moga::Nsga2Params base;
  base.population_size = 16;
  base.generations = 12;
  base.seed = 5;
  const auto full = moga::run_nsga2(*problem, base);

  moga::Nsga2Params snapshotting = base;
  snapshotting.snapshot_every = 5;
  std::vector<moga::Nsga2State> states;
  snapshotting.on_snapshot = [&](const moga::Nsga2State& s) { states.push_back(s); };
  (void)moga::run_nsga2(*problem, snapshotting);
  ASSERT_EQ(states.size(), 2u);  // generations 5 and 10

  for (const auto& state : states) {
    moga::Nsga2Params resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = moga::run_nsga2(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
  }
}

TEST(Resume, Spea2ResumesBitIdenticallyFromEverySnapshot) {
  const auto problem = problems::make_sch();
  moga::Spea2Params base;
  base.population_size = 16;
  base.archive_size = 12;
  base.generations = 12;
  base.seed = 5;
  const auto full = moga::run_spea2(*problem, base);

  moga::Spea2Params snapshotting = base;
  snapshotting.snapshot_every = 5;
  std::vector<moga::Spea2State> states;
  snapshotting.on_snapshot = [&](const moga::Spea2State& s) { states.push_back(s); };
  (void)moga::run_spea2(*problem, snapshotting);
  ASSERT_EQ(states.size(), 2u);  // generations 5 and 10

  for (const auto& state : states) {
    moga::Spea2Params resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = moga::run_spea2(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.archive), exact_bytes(full.archive));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
  }
}

TEST(Resume, LocalOnlyResumesBitIdenticallyFromEverySnapshot) {
  const auto problem = problems::make_sch();
  sacga::LocalOnlyParams base;
  base.population_size = 16;
  base.partitions = 4;
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.generations = 12;
  base.seed = 7;
  const auto full = sacga::run_local_only(*problem, base);

  sacga::LocalOnlyParams snapshotting = base;
  snapshotting.snapshot_every = 5;
  std::vector<sacga::LocalOnlyState> states;
  snapshotting.on_snapshot = [&](const sacga::LocalOnlyState& s) { states.push_back(s); };
  (void)sacga::run_local_only(*problem, snapshotting);
  ASSERT_FALSE(states.empty());

  for (const auto& state : states) {
    sacga::LocalOnlyParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_local_only(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
  }
}

TEST(Resume, SacgaResumesBitIdenticallyAcrossBothPhases) {
  const auto problem = problems::make_sch();
  sacga::SacgaParams base;
  base.population_size = 16;
  base.partitions = 4;
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.phase1_max_generations = 6;
  base.span = 20;
  base.span_is_total_budget = true;
  base.seed = 3;
  const auto full = sacga::run_sacga(*problem, base);

  sacga::SacgaParams snapshotting = base;
  snapshotting.snapshot_every = 3;  // lands inside phase I and phase II
  std::vector<sacga::SacgaState> states;
  snapshotting.on_snapshot = [&](const sacga::SacgaState& s) { states.push_back(s); };
  (void)sacga::run_sacga(*problem, snapshotting);
  ASSERT_GE(states.size(), 3u);
  EXPECT_FALSE(states.front().phase1_done);  // earliest snapshot is mid-phase-I
  EXPECT_TRUE(states.back().phase1_done);

  for (const auto& state : states) {
    sacga::SacgaParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_sacga(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
    EXPECT_EQ(resumed.phase1_generations, full.phase1_generations);
  }
}

TEST(Resume, MesacgaResumesBitIdenticallyAcrossPhaseBoundaries) {
  const auto problem = problems::make_sch();
  sacga::MesacgaParams base;
  base.population_size = 16;
  base.partition_schedule = {4, 2, 1};
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.phase1_max_generations = 4;
  base.span = 6;
  base.seed = 11;
  const auto full = sacga::run_mesacga(*problem, base);

  sacga::MesacgaParams snapshotting = base;
  // With gen_t = 4 and span 6, phase boundaries fall on generations 10, 16
  // and 22; every-2 snapshots hit phase interiors AND exact boundaries.
  snapshotting.snapshot_every = 2;
  std::vector<sacga::MesacgaState> states;
  snapshotting.on_snapshot = [&](const sacga::MesacgaState& s) { states.push_back(s); };
  (void)sacga::run_mesacga(*problem, snapshotting);
  ASSERT_GE(states.size(), 4u);

  for (const auto& state : states) {
    sacga::MesacgaParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_mesacga(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
    ASSERT_EQ(resumed.phases.size(), full.phases.size());
    for (std::size_t p = 0; p < full.phases.size(); ++p) {
      EXPECT_EQ(resumed.phases[p].partitions, full.phases[p].partitions);
      EXPECT_EQ(exact_bytes(resumed.phases[p].front), exact_bytes(full.phases[p].front));
    }
  }
}

TEST(Resume, PreRaisedStopSnapshotsGenerationZeroInPhaseI) {
  // Phase I polls the stop token BEFORE each step: a token raised before
  // the run takes zero steps and snapshots the initial population, which
  // resumes to the uninterrupted run.
  const auto problem = problems::make_sch();
  CancelToken stop;
  stop.request();

  sacga::SacgaParams sacga_base;
  sacga_base.population_size = 16;
  sacga_base.partitions = 4;
  sacga_base.axis_objective = 0;
  sacga_base.axis_lo = 0.0;
  sacga_base.axis_hi = 4.0;
  sacga_base.phase1_max_generations = 6;
  sacga_base.span = 20;
  sacga_base.span_is_total_budget = true;
  sacga_base.seed = 3;
  const auto sacga_full = sacga::run_sacga(*problem, sacga_base);
  sacga::SacgaParams sacga_stopped = sacga_base;
  sacga_stopped.snapshot_every = 3;
  sacga_stopped.stop = &stop;
  std::vector<sacga::SacgaState> sacga_states;
  sacga_stopped.on_snapshot = [&](const sacga::SacgaState& s) { sacga_states.push_back(s); };
  const auto sacga_partial = sacga::run_sacga(*problem, sacga_stopped);
  EXPECT_TRUE(sacga_partial.interrupted);
  EXPECT_EQ(sacga_partial.generations_run, 0u);
  ASSERT_EQ(sacga_states.size(), 1u);
  EXPECT_EQ(sacga_states[0].evolver.generation, 0u);
  EXPECT_FALSE(sacga_states[0].phase1_done);
  sacga::SacgaParams sacga_resumed = sacga_base;
  sacga_resumed.resume = &sacga_states[0];
  const auto sacga_finished = sacga::run_sacga(*problem, sacga_resumed);
  EXPECT_EQ(exact_bytes(sacga_finished.population), exact_bytes(sacga_full.population));
  EXPECT_EQ(sacga_finished.evaluations, sacga_full.evaluations);

  sacga::MesacgaParams mesacga_base;
  mesacga_base.population_size = 16;
  mesacga_base.partition_schedule = {4, 2, 1};
  mesacga_base.axis_objective = 0;
  mesacga_base.axis_lo = 0.0;
  mesacga_base.axis_hi = 4.0;
  mesacga_base.phase1_max_generations = 4;
  mesacga_base.span = 6;
  mesacga_base.seed = 11;
  const auto mesacga_full = sacga::run_mesacga(*problem, mesacga_base);
  sacga::MesacgaParams mesacga_stopped = mesacga_base;
  mesacga_stopped.snapshot_every = 2;
  mesacga_stopped.stop = &stop;
  std::vector<sacga::MesacgaState> mesacga_states;
  mesacga_stopped.on_snapshot = [&](const sacga::MesacgaState& s) {
    mesacga_states.push_back(s);
  };
  const auto mesacga_partial = sacga::run_mesacga(*problem, mesacga_stopped);
  EXPECT_TRUE(mesacga_partial.interrupted);
  EXPECT_EQ(mesacga_partial.generations_run, 0u);
  EXPECT_TRUE(mesacga_partial.phases.empty());
  ASSERT_EQ(mesacga_states.size(), 1u);
  EXPECT_EQ(mesacga_states[0].evolver.generation, 0u);
  EXPECT_FALSE(mesacga_states[0].phase1_done);
  sacga::MesacgaParams mesacga_resumed = mesacga_base;
  mesacga_resumed.resume = &mesacga_states[0];
  const auto mesacga_finished = sacga::run_mesacga(*problem, mesacga_resumed);
  EXPECT_EQ(exact_bytes(mesacga_finished.population), exact_bytes(mesacga_full.population));
  EXPECT_EQ(mesacga_finished.evaluations, mesacga_full.evaluations);

  // Every other loop polls after its step: the same token stops NSGA-II
  // after one generation, snapshotted off-cycle.
  moga::Nsga2Params nsga2;
  nsga2.population_size = 16;
  nsga2.generations = 12;
  nsga2.seed = 5;
  nsga2.snapshot_every = 5;
  nsga2.stop = &stop;
  std::vector<moga::Nsga2State> nsga2_states;
  nsga2.on_snapshot = [&](const moga::Nsga2State& s) { nsga2_states.push_back(s); };
  const auto nsga2_partial = moga::run_nsga2(*problem, nsga2);
  EXPECT_TRUE(nsga2_partial.interrupted);
  EXPECT_EQ(nsga2_partial.generations_run, 1u);
  ASSERT_EQ(nsga2_states.size(), 1u);
  EXPECT_EQ(nsga2_states[0].next_generation, 1u);
}

TEST(Resume, IslandGaResumesBitIdenticallyAcrossMigrations) {
  const auto problem = problems::make_sch();
  sacga::IslandParams base;
  base.islands = 2;
  base.island_population = 8;
  base.generations = 12;
  base.migration_interval = 4;
  base.migrants = 1;
  base.seed = 13;
  const auto full = sacga::run_island_ga(*problem, base);

  sacga::IslandParams snapshotting = base;
  snapshotting.snapshot_every = 5;  // gen 5 is mid-interval, gen 10 just after migration
  std::vector<sacga::IslandState> states;
  snapshotting.on_snapshot = [&](const sacga::IslandState& s) { states.push_back(s); };
  (void)sacga::run_island_ga(*problem, snapshotting);
  ASSERT_EQ(states.size(), 2u);

  for (const auto& state : states) {
    sacga::IslandParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_island_ga(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.migrations, full.migrations);
  }
}


TEST(Resume, IslandGaRejectsAMisSizedIslandNamingIt) {
  const auto problem = problems::make_sch();
  sacga::IslandParams params;
  params.islands = 2;
  params.island_population = 8;
  params.generations = 12;
  params.migration_interval = 4;
  params.seed = 13;
  params.snapshot_every = 5;
  std::vector<sacga::IslandState> states;
  params.on_snapshot = [&](const sacga::IslandState& s) { states.push_back(s); };
  (void)sacga::run_island_ga(*problem, params);
  ASSERT_FALSE(states.empty());

  // A state whose island 1 lost members (e.g. an edited checkpoint) must be
  // refused at resume, naming the island, not evolved with the wrong size.
  sacga::IslandState damaged = states.front();
  damaged.islands[1].resize(3);
  params.on_snapshot = nullptr;
  params.resume = &damaged;
  try {
    (void)sacga::run_island_ga(*problem, params);
    FAIL() << "a 3-member island resumed";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("island 1 holds 3 members"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace anadex::robust
