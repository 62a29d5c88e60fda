#include "robust/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <iterator>
#include <sstream>
#include <variant>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace anadex::robust {
namespace {

moga::Individual make_individual(double x, int rank, double crowding) {
  moga::Individual ind;
  ind.genes = {x, 1.0 - x};
  ind.eval.objectives = {x * x, (x - 2.0) * (x - 2.0)};
  ind.eval.violations = {0.0};
  ind.rank = rank;
  ind.crowding = crowding;
  return ind;
}

moga::Population make_population() {
  moga::Population pop;
  pop.push_back(make_individual(0.125, 0, moga::Individual::kInfiniteCrowding));
  pop.push_back(make_individual(0.3, 0, 0.75));
  pop.push_back(make_individual(0.9, 1, 1.0 / 3.0));  // not exactly representable in decimal
  pop.push_back(make_individual(0.7, 2, 0.0));
  return pop;
}

RngState make_rng_state(std::uint64_t seed, int warmup_normals) {
  Rng rng(seed);
  for (int i = 0; i < warmup_normals; ++i) (void)rng.normal();
  return rng.state();
}

void expect_population_eq(const moga::Population& a, const moga::Population& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].genes, b[i].genes);
    EXPECT_EQ(a[i].eval.objectives, b[i].eval.objectives);
    EXPECT_EQ(a[i].eval.violations, b[i].eval.violations);
    EXPECT_EQ(a[i].rank, b[i].rank);
    EXPECT_EQ(a[i].crowding, b[i].crowding);  // inf == inf holds
  }
}

Checkpoint base_checkpoint() {
  Checkpoint cp;
  cp.meta.algo = "SACGA";
  cp.meta.seed = 42;
  cp.meta.population = 4;
  cp.meta.generations = 100;
  cp.meta.config = "partitions=8 span=0 stride=25";
  cp.faults.exceptions = 3;
  cp.faults.non_finite = 1;
  cp.faults.retries = 4;
  cp.faults.recovered = 2;
  cp.faults.penalized = 2;
  cp.faults.failure_genes = {0.25, 0.75};
  cp.faults.failure_message = "exception: simulated divergence";
  cp.history.push_back({25, 38.5, 7});
  cp.history.push_back({50, 30.25, 9});
  return cp;
}

void expect_common_eq(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(a.meta, b.meta);
  EXPECT_EQ(a.faults.exceptions, b.faults.exceptions);
  EXPECT_EQ(a.faults.non_finite, b.faults.non_finite);
  EXPECT_EQ(a.faults.wrong_arity, b.faults.wrong_arity);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.recovered, b.faults.recovered);
  EXPECT_EQ(a.faults.penalized, b.faults.penalized);
  EXPECT_EQ(a.faults.failure_genes, b.faults.failure_genes);
  EXPECT_EQ(a.faults.failure_message, b.faults.failure_message);
  EXPECT_EQ(a.history, b.history);
}

Checkpoint round_trip(const Checkpoint& cp) {
  std::stringstream stream;
  save_checkpoint(stream, cp);
  return load_checkpoint(stream);
}

TEST(Checkpoint, RoundTripsNsga2State) {
  Checkpoint cp = base_checkpoint();
  moga::Nsga2State state;
  state.parents = make_population();
  state.rng = make_rng_state(9, 1);  // odd warmup leaves a cached spare normal
  state.next_generation = 57;
  state.evaluations = 5800;
  cp.state = state;

  const Checkpoint loaded = round_trip(cp);
  expect_common_eq(cp, loaded);
  ASSERT_TRUE(std::holds_alternative<moga::Nsga2State>(loaded.state));
  EXPECT_EQ(loaded.state_kind(), "nsga2");
  EXPECT_EQ(std::get<moga::Nsga2State>(loaded.state).rng, state.rng);
  EXPECT_TRUE(std::get<moga::Nsga2State>(loaded.state).rng.has_spare_normal);
  EXPECT_EQ(std::get<moga::Nsga2State>(loaded.state).next_generation, 57u);
  EXPECT_EQ(std::get<moga::Nsga2State>(loaded.state).evaluations, 5800u);
  expect_population_eq(std::get<moga::Nsga2State>(loaded.state).parents, state.parents);
}

TEST(Checkpoint, RestoredRngContinuesTheSameStream) {
  Checkpoint cp = base_checkpoint();
  Rng original(123);
  for (int i = 0; i < 7; ++i) (void)original.normal();
  moga::Nsga2State state;
  state.parents = make_population();
  state.rng = original.state();
  cp.state = state;

  const Checkpoint loaded = round_trip(cp);
  Rng restored(1);
  restored.set_state(std::get<moga::Nsga2State>(loaded.state).rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored(), original());
    EXPECT_EQ(restored.normal(), original.normal());
  }
}

TEST(Checkpoint, RoundTripsSpea2State) {
  Checkpoint cp = base_checkpoint();
  moga::Spea2State state;
  state.population = make_population();
  state.archive = make_population();
  state.archive.pop_back();  // archive and population sizes differ
  state.rng = make_rng_state(11, 1);
  state.next_generation = 33;
  state.evaluations = 3400;
  cp.state = state;

  const Checkpoint loaded = round_trip(cp);
  expect_common_eq(cp, loaded);
  ASSERT_TRUE(std::holds_alternative<moga::Spea2State>(loaded.state));
  EXPECT_EQ(loaded.state_kind(), "spea2");
  EXPECT_EQ(std::get<moga::Spea2State>(loaded.state).rng, state.rng);
  EXPECT_EQ(std::get<moga::Spea2State>(loaded.state).next_generation, 33u);
  EXPECT_EQ(std::get<moga::Spea2State>(loaded.state).evaluations, 3400u);
  expect_population_eq(std::get<moga::Spea2State>(loaded.state).population, state.population);
  expect_population_eq(std::get<moga::Spea2State>(loaded.state).archive, state.archive);
}

TEST(Checkpoint, RoundTripsSacgaStateWithDiscardedPartitions) {
  Checkpoint cp = base_checkpoint();
  sacga::SacgaState state;
  state.evolver.population = make_population();
  state.evolver.discarded = {false, true, false, true, true};
  state.evolver.partitions = 5;
  state.evolver.rng = make_rng_state(17, 0);
  state.evolver.evaluations = 4321;
  state.evolver.generation = 87;
  state.phase1_done = true;
  state.phase1_generations = 12;
  cp.state = state;

  const Checkpoint loaded = round_trip(cp);
  expect_common_eq(cp, loaded);
  ASSERT_TRUE(std::holds_alternative<sacga::SacgaState>(loaded.state));
  EXPECT_EQ(std::get<sacga::SacgaState>(loaded.state).evolver.discarded, state.evolver.discarded);
  EXPECT_EQ(std::get<sacga::SacgaState>(loaded.state).evolver.partitions, 5u);
  EXPECT_EQ(std::get<sacga::SacgaState>(loaded.state).evolver.rng, state.evolver.rng);
  EXPECT_EQ(std::get<sacga::SacgaState>(loaded.state).evolver.generation, 87u);
  EXPECT_TRUE(std::get<sacga::SacgaState>(loaded.state).phase1_done);
  EXPECT_EQ(std::get<sacga::SacgaState>(loaded.state).phase1_generations, 12u);
  expect_population_eq(std::get<sacga::SacgaState>(loaded.state).evolver.population, state.evolver.population);
}

TEST(Checkpoint, RoundTripsMesacgaStateWithPhaseHistory) {
  Checkpoint cp = base_checkpoint();
  sacga::MesacgaState state;
  state.evolver.population = make_population();
  state.evolver.discarded = {false, false};
  state.evolver.partitions = 2;
  state.evolver.rng = make_rng_state(5, 2);
  state.evolver.generation = 140;
  state.phase1_done = true;
  state.phase1_generations = 20;
  sacga::PhaseSnapshot phase;
  phase.phase = 1;
  phase.partitions = 4;
  phase.generation = 80;
  phase.front = make_population();
  state.phases.push_back(phase);
  cp.state = state;

  const Checkpoint loaded = round_trip(cp);
  ASSERT_TRUE(std::holds_alternative<sacga::MesacgaState>(loaded.state));
  ASSERT_EQ(std::get<sacga::MesacgaState>(loaded.state).phases.size(), 1u);
  EXPECT_EQ(std::get<sacga::MesacgaState>(loaded.state).phases[0].phase, 1u);
  EXPECT_EQ(std::get<sacga::MesacgaState>(loaded.state).phases[0].partitions, 4u);
  EXPECT_EQ(std::get<sacga::MesacgaState>(loaded.state).phases[0].generation, 80u);
  expect_population_eq(std::get<sacga::MesacgaState>(loaded.state).phases[0].front, phase.front);
}

TEST(Checkpoint, RoundTripsLocalOnlyAndIslandStates) {
  {
    Checkpoint cp = base_checkpoint();
    sacga::LocalOnlyState state;
    state.evolver.population = make_population();
    state.evolver.discarded = {false, false, false};
    state.evolver.partitions = 3;
    state.evolver.rng = make_rng_state(2, 0);
    state.evolver.generation = 10;
    cp.state = state;
    const Checkpoint loaded = round_trip(cp);
    ASSERT_TRUE(std::holds_alternative<sacga::LocalOnlyState>(loaded.state));
    EXPECT_EQ(std::get<sacga::LocalOnlyState>(loaded.state).evolver.generation, 10u);
  }
  {
    Checkpoint cp = base_checkpoint();
    sacga::IslandState state;
    state.islands = {make_population(), make_population()};
    state.rngs = {make_rng_state(3, 1), make_rng_state(4, 0)};
    state.next_generation = 64;
    state.evaluations = 9000;
    state.migrations = 2;
    cp.state = state;
    const Checkpoint loaded = round_trip(cp);
    ASSERT_TRUE(std::holds_alternative<sacga::IslandState>(loaded.state));
    ASSERT_EQ(std::get<sacga::IslandState>(loaded.state).islands.size(), 2u);
    EXPECT_EQ(std::get<sacga::IslandState>(loaded.state).rngs, state.rngs);
    EXPECT_EQ(std::get<sacga::IslandState>(loaded.state).migrations, 2u);
    expect_population_eq(std::get<sacga::IslandState>(loaded.state).islands[1], state.islands[1]);
  }
}

TEST(Checkpoint, NonFiniteValuesSurviveTheRoundTrip) {
  Checkpoint cp = base_checkpoint();
  moga::Nsga2State state;
  moga::Individual poisoned = make_individual(0.5, 0, moga::Individual::kInfiniteCrowding);
  poisoned.eval.objectives[1] = std::numeric_limits<double>::quiet_NaN();
  state.parents.push_back(poisoned);
  cp.state = state;

  const Checkpoint loaded = round_trip(cp);
  const auto& ind = std::get<moga::Nsga2State>(loaded.state).parents.at(0);
  EXPECT_TRUE(std::isnan(ind.eval.objectives[1]));
  EXPECT_TRUE(std::isinf(ind.crowding));
}

TEST(Checkpoint, RequiresExactlyOneState) {
  // Two states at once cannot be expressed by the CheckpointState variant;
  // a checkpoint with no state must still be refused.
  Checkpoint cp = base_checkpoint();
  std::stringstream stream;
  EXPECT_THROW(save_checkpoint(stream, cp), PreconditionError);
}

std::string valid_checkpoint_text() {
  Checkpoint cp = base_checkpoint();
  cp.state = moga::Nsga2State{};
  std::get<moga::Nsga2State>(cp.state).parents = make_population();
  std::stringstream stream;
  save_checkpoint(stream, cp);
  return stream.str();
}

TEST(Checkpoint, RejectsMalformedInput) {
  {
    // Version gate fires before anything else, naming both versions.
    std::stringstream stream("anadex-checkpoint v99\n");
    try {
      load_checkpoint(stream, "test.cp");
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("test.cp"), std::string::npos) << what;
      EXPECT_NE(what.find("anadex-checkpoint v2"), std::string::npos) << what;
      EXPECT_NE(what.find("anadex-checkpoint v99"), std::string::npos) << what;
    }
  }
  {
    std::string text = valid_checkpoint_text();
    text = text.substr(0, text.size() / 2);  // truncate mid-file
    std::stringstream half(text);
    EXPECT_THROW(load_checkpoint(half), PreconditionError);
  }
  {
    // Flip one byte of the body: the checksum must catch it.
    std::string text = valid_checkpoint_text();
    text[text.size() / 3] ^= 0x08;
    std::stringstream corrupt(text);
    try {
      load_checkpoint(corrupt, "flipped.cp");
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("flipped.cp"), std::string::npos) << what;
      EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    }
  }
  {
    // Unknown state kind, with the trailer recomputed so only the body
    // parser can object.
    std::string text = valid_checkpoint_text();
    const auto state_at = text.find("\nstate nsga2");
    ASSERT_NE(state_at, std::string::npos);
    text.replace(state_at, 12, "\nstate alien");
    const auto end_at = text.rfind("\nend\n");
    ASSERT_NE(end_at, std::string::npos);
    const std::string body = text.substr(0, end_at + 5);
    std::ostringstream fixed;
    fixed << body << "checksum " << std::hex << std::setw(16) << std::setfill('0')
          << hash_bytes(body, 0) << "\n";
    std::stringstream stream(fixed.str());
    EXPECT_THROW(load_checkpoint(stream), PreconditionError);
  }
}

TEST(Checkpoint, FileRoundTripIsAtomic) {
  const std::string path = testing::TempDir() + "anadex_checkpoint_test.txt";
  Checkpoint cp = base_checkpoint();
  moga::Nsga2State state;
  state.parents = make_population();
  state.rng = make_rng_state(1, 0);
  cp.state = state;

  write_checkpoint_file(path, cp);
  // The temp staging file must not linger after the rename.
  std::ifstream staging(path + ".tmp");
  EXPECT_FALSE(staging.good());

  const Checkpoint loaded = read_checkpoint_file(path);
  expect_common_eq(cp, loaded);
  expect_population_eq(std::get<moga::Nsga2State>(loaded.state).parents, state.parents);
  std::remove(path.c_str());

  EXPECT_THROW(read_checkpoint_file(path), PreconditionError);  // now missing
}


// --- pinned v2 byte format -------------------------------------------------
// One fixed state per kind, saved over base_checkpoint(). The hashes were
// recorded from the checkpoint writer before the states moved into one
// std::variant; a renamed kind, a reordered record or a changed number
// spelling changes them. Round-trip tests alone would not notice.

CheckpointState pinned_nsga2() {
  moga::Nsga2State st;
  st.parents = make_population();
  st.rng = make_rng_state(9, 1);
  st.next_generation = 57;
  st.evaluations = 5800;
  return st;
}

CheckpointState pinned_spea2() {
  moga::Spea2State st;
  st.population = make_population();
  st.archive = make_population();
  st.archive.pop_back();
  st.rng = make_rng_state(11, 1);
  st.next_generation = 33;
  st.evaluations = 3400;
  return st;
}

CheckpointState pinned_local_only() {
  sacga::LocalOnlyState st;
  st.evolver.population = make_population();
  st.evolver.discarded = {false, false, true};
  st.evolver.partitions = 3;
  st.evolver.rng = make_rng_state(2, 0);
  st.evolver.evaluations = 777;
  st.evolver.generation = 10;
  return st;
}

CheckpointState pinned_sacga() {
  sacga::SacgaState st;
  st.evolver.population = make_population();
  st.evolver.discarded = {false, true, false, true, true};
  st.evolver.partitions = 5;
  st.evolver.rng = make_rng_state(17, 0);
  st.evolver.evaluations = 4321;
  st.evolver.generation = 87;
  st.phase1_done = true;
  st.phase1_generations = 12;
  return st;
}

CheckpointState pinned_mesacga() {
  sacga::MesacgaState st;
  st.evolver.population = make_population();
  st.evolver.discarded = {false, false};
  st.evolver.partitions = 2;
  st.evolver.rng = make_rng_state(5, 2);
  st.evolver.evaluations = 1234;
  st.evolver.generation = 140;
  st.phase1_done = true;
  st.phase1_generations = 20;
  sacga::PhaseSnapshot phase;
  phase.phase = 1;
  phase.partitions = 4;
  phase.generation = 80;
  phase.front = make_population();
  st.phases.push_back(phase);
  return st;
}

CheckpointState pinned_island() {
  sacga::IslandState st;
  st.islands = {make_population(), make_population()};
  st.islands[1].pop_back();
  st.rngs = {make_rng_state(3, 1), make_rng_state(4, 0)};
  st.next_generation = 64;
  st.evaluations = 9000;
  st.migrations = 2;
  return st;
}

struct PinnedFormat {
  const char* kind;
  CheckpointState (*state)();
  std::uint64_t hash;  ///< hash_bytes(saved bytes, 0)
  std::size_t bytes;
};

TEST(Checkpoint, ByteFormatIsPinnedForEveryStateKind) {
  const PinnedFormat table[] = {
      {"nsga2", pinned_nsga2, 0x01e2010f5cfe5b6dULL, 959},
      {"spea2", pinned_spea2, 0x56bc438e7c954023ULL, 1379},
      {"local-only", pinned_local_only, 0x7b7663e679745d6aULL, 973},
      {"sacga", pinned_sacga, 0x9c7519efc1e59d34ULL, 980},
      {"mesacga", pinned_mesacga, 0x9122a4463ce4d1b5ULL, 1573},
      {"island", pinned_island, 0xb68000a8bd136416ULL, 1481},
  };
  ASSERT_EQ(std::size(table), std::variant_size_v<CheckpointState> - 1);
  for (const PinnedFormat& row : table) {
    Checkpoint cp = base_checkpoint();
    cp.state = row.state();
    EXPECT_EQ(cp.state_kind(), row.kind);
    std::stringstream saved;
    save_checkpoint(saved, cp);
    const std::string bytes = saved.str();
    EXPECT_EQ(bytes.size(), row.bytes) << row.kind;
    EXPECT_EQ(hash_bytes(bytes, 0), row.hash) << row.kind;

    // load -> save reproduces the same bytes.
    std::stringstream reloaded(bytes);
    std::stringstream resaved;
    save_checkpoint(resaved, load_checkpoint(reloaded));
    EXPECT_EQ(resaved.str(), bytes) << row.kind;
  }
}

}  // namespace
}  // namespace anadex::robust
