// Versioned, durable checkpoint files for long explorations.
//
// A checkpoint captures everything needed to resume a run bit-identically:
// the meta description of the run (algorithm, seed, sizes, a config digest
// that must match on resume), the cumulative fault report, the history
// samples recorded so far, and one algorithm state (population(s),
// rank/crowding bookkeeping, full RNG state, phase/annealing position).
//
// File format (line-oriented text, doubles as bit-exact hex-floats):
//
//   anadex-checkpoint v2
//   meta <algo> <seed> <population> <generations>
//   config <opaque one-line digest, compared for equality on resume>
//   faults <exceptions> <non_finite> <wrong_arity> <timeouts> <retries> <recovered> <penalized>
//   fault-genes <n> [g1 g2 ...]
//   fault-message [text...]
//   history <count>
//   sample <generation> <front_area> <front_size>     (x count)
//   state <nsga2|spea2|local-only|sacga|mesacga|island>
//   <state-specific records; populations as embedded "anadex-population v2">
//   end
//   checksum <16 hex digits>
//
// The checksum trailer is FNV-1a (common/hash.hpp hash_bytes) over every
// byte up to and including the "end" line, so truncation, bit flips and
// partial writes are all detected before any state is trusted.
//
// Durability: write_checkpoint_file writes to a temp file, fsyncs it,
// rotates the existing chain (path -> path.1 -> path.2 ...) and renames the
// temp into place, so a kill at ANY instant leaves at least one valid
// checkpoint on disk. recover_checkpoint scans the chain newest-first and
// returns the first slot that passes the checksum and format checks — the
// engine behind the CLI's `--resume auto`. See docs/robustness.md.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "moga/nsga2.hpp"
#include "moga/spea2.hpp"
#include "robust/fault.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"

namespace anadex::robust {

/// Identity of the run a checkpoint belongs to. On resume, every field must
/// match the resuming run's settings; `config` is an opaque digest of the
/// remaining knobs (built by the caller, e.g. expt::run) compared verbatim.
struct CheckpointMeta {
  std::string algo;
  std::uint64_t seed = 0;
  std::size_t population = 0;
  std::size_t generations = 0;
  std::string config;  ///< one-line digest; no newlines

  bool operator==(const CheckpointMeta&) const = default;
};

/// One recorded history point (mirrors expt's per-stride metric sampling;
/// lives here so expt can persist history without a dependency cycle).
struct HistorySample {
  std::size_t generation = 0;
  double front_area = 0.0;
  std::size_t front_size = 0;

  bool operator==(const HistorySample&) const = default;
};

/// The one algorithm state a checkpoint carries. The alternatives after
/// monostate are listed in the order of their `state` kind names
/// ("nsga2", "spea2", "local-only", "sacga", "mesacga", "island").
using CheckpointState =
    std::variant<std::monostate, moga::Nsga2State, moga::Spea2State,
                 sacga::LocalOnlyState, sacga::SacgaState, sacga::MesacgaState,
                 sacga::IslandState>;

/// A complete checkpoint: meta + faults + history + one algorithm state.
struct Checkpoint {
  CheckpointMeta meta;
  FaultReport faults;
  std::vector<HistorySample> history;
  CheckpointState state;  ///< monostate until a state is assigned

  /// Kind name of the held state ("nsga2", "spea2", "local-only", ...).
  /// Throws PreconditionError when no state is held.
  std::string state_kind() const;
};

/// Serializes `checkpoint` (which must hold a state), including the
/// checksum trailer.
void save_checkpoint(std::ostream& os, const Checkpoint& checkpoint);

/// Parses and checksum-verifies a checkpoint stream. Throws
/// PreconditionError with a diagnostic naming `source`, the byte offset
/// reached and what was expected vs found on truncated, corrupted or
/// version-mismatched input.
Checkpoint load_checkpoint(std::istream& is, const std::string& source = "<stream>");

/// Where a checkpoint write stands when a CheckpointWriteHook fires.
enum class CheckpointWritePhase {
  AfterTempWrite,  ///< temp file written + synced; rotation/rename not yet done
  AfterRename,     ///< new checkpoint in place at the base path
};

/// Test seam into write_checkpoint_file: invoked with the phase and the
/// file involved (the temp path for AfterTempWrite, the base path for
/// AfterRename). The chaos harness throws from AfterTempWrite to simulate
/// a crash mid-write and prove the previous chain survives intact.
using CheckpointWriteHook = std::function<void(CheckpointWritePhase, const std::string&)>;

/// Durability knobs for write_checkpoint_file. The defaults match the
/// strongest guarantee: fsync the data before rename, keep one checkpoint.
struct CheckpointWriteOptions {
  /// Total rotated slots retained: 1 = just `path` (no rotation), N > 1
  /// additionally keeps path.1 (previous) ... path.(N-1) (oldest).
  std::size_t keep = 1;
  /// fsync the temp file before rename and the parent directory after (so
  /// the rename itself is durable). Off only for tests/benches that measure
  /// pure serialization cost.
  bool fsync = true;
  CheckpointWriteHook hook;  ///< test seam; empty in production
};

/// Durably writes `checkpoint` to `path`: serialize to `<path>.tmp`, fsync,
/// rotate the existing chain (path -> path.1 -> ... -> path.(keep-1), the
/// oldest slot is dropped), rename the temp into place and fsync the
/// directory. A crash at any instant leaves every previously-completed slot
/// readable. Throws PreconditionError on IO failure.
void write_checkpoint_file(const std::string& path, const Checkpoint& checkpoint,
                           const CheckpointWriteOptions& options = {});

/// Reads and verifies the checkpoint at `path`. Throws PreconditionError if
/// the file is missing, corrupt or version-mismatched.
Checkpoint read_checkpoint_file(const std::string& path);

/// Result of a recovery scan over a rotated checkpoint chain.
struct RecoveredCheckpoint {
  Checkpoint checkpoint;
  std::string path;                   ///< the slot that validated
  std::vector<std::string> rejected;  ///< diagnostics for newer slots skipped
};

/// Scans `base_path`, `base_path.1`, `base_path.2`, ... newest-first and
/// returns the first slot that loads and checksum-verifies, together with
/// the reasons every newer slot was rejected. Returns nullopt when no slot
/// exists or validates (the `rejected` diagnostics are then lost — callers
/// wanting them on total failure can rescan with read_checkpoint_file).
/// This is `--resume auto`: fall back past corrupt/truncated checkpoints to
/// the last good one.
std::optional<RecoveredCheckpoint> recover_checkpoint(const std::string& base_path,
                                                      std::size_t max_slots = 100);

}  // namespace anadex::robust
