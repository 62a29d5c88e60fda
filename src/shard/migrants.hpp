// Migrant exchange files — the on-disk protocol between worker shards.
//
// At every migration epoch each shard publishes, for each owned island
// whose ring successor lives on another shard, one migrant file into the
// exchange spool directory:
//
//   epoch<E>.from<I>.mig
//
//   anadex-migrants v1
//   migrants <epoch> <from_island> <count>
//   anadex-population v2 <count>        (bit-exact block, moga/serialize)
//   end
//   checksum <16 hex digits>
//
// The format reuses the checkpoint idioms (robust/checkpoint.hpp): the
// hex-float v2 population block preserves genes, objectives, violations,
// rank and crowding bit-exactly — migration replaces destination members by
// crowded_less order, so the bookkeeping must travel with the genome — and
// the FNV-1a checksum trailer rejects truncated or corrupted files before
// any individual is trusted.
//
// Durability matches the spool/checkpoint contract: write to a temp file,
// fsync, rename into place, fsync the directory. A migrant file is
// immutable once named (nothing ever claims or deletes it mid-run), and a
// crash-replaying shard rewriting an epoch it already published produces
// byte-identical content, so rewrites are idempotent by construction.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include "moga/individual.hpp"

namespace anadex::shard {

/// Spool file name for island `from_island`'s emigrants at `epoch`.
std::string migrant_file_name(std::size_t epoch, std::size_t from_island);

/// Atomically publishes `migrants` (best first, as selected by
/// sacga::IslandArc::migrate) into `dir`. Safe to call again after a crash
/// replay — the rewrite is byte-identical and the rename atomic. `fsync`
/// gates only the flush-to-disk step (a durability knob, never a result
/// knob): off for benchmarks measuring pure scale-out, on everywhere else.
void write_migrant_file(const std::filesystem::path& dir, std::size_t epoch,
                        std::size_t from_island, const moga::Population& migrants,
                        bool fsync = true);

/// Reads and checksum-verifies a migrant file, requiring its embedded epoch
/// and source island to match the expectation. Throws PreconditionError on
/// corruption, truncation or a mismatched header.
moga::Population read_migrant_file(const std::filesystem::path& path,
                                   std::size_t expect_epoch,
                                   std::size_t expect_from_island);

}  // namespace anadex::shard
