// EvalCache — a bounded genotype -> Evaluation memo for EvalEngine.
//
// Problems in this library are pure functions of the genome (the engine's
// determinism contract depends on it), so a cached Evaluation is
// bit-identical to a fresh one and memoization cannot change results —
// only skip redundant work. Duplicate genotypes are pervasive in the
// evolutionary loop: elitism re-submits survivors, crossover emits clones,
// and MESACGA's phase re-seeding replays earlier designs.
//
// Keys are the raw gene bytes plus a caller-chosen `context` word: an
// FNV-1a hash (robust::hash_genes(genes, context)) selects the bucket and
// a full context + gene-vector compare confirms the hit, so hash
// collisions can never alias two designs. The context partitions the cache
// between clients that evaluate DIFFERENT problems through one shared
// engine (anadex serve): identical genes under different problems are
// distinct designs and must never alias. Private engines pass context 0,
// which reproduces the pre-context behaviour bit for bit. Eviction is
// least-recently-used with a fixed entry capacity shared across contexts.
// Every entry point locks one reader-writer mutex: peek() (the read-only
// lookup of clients running concurrently) shares it, so such clients never
// wait for each other; the rest hold it exclusively. Each entry is ONE
// allocation: a small
// header (LRU links, hash, context, lengths) followed by the genes, the
// objectives and the violations as one run of doubles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "moga/problem.hpp"

namespace anadex::engine {

/// Cumulative evaluation accounting for one EvalEngine. `requested` counts
/// every submitted item; `evaluated` counts the distinct evaluations that
/// actually ran. The difference is work the cache absorbed, split into
/// intra-batch duplicate fan-outs and cross-batch LRU hits. With the cache
/// disabled, requested == evaluated and both hit counters stay zero.
struct EvalStats {
  std::uint64_t requested = 0;   ///< items submitted to evaluate_batch
  std::uint64_t evaluated = 0;   ///< distinct evaluations dispatched
  std::uint64_t batch_hits = 0;  ///< duplicates resolved within one batch
  std::uint64_t lru_hits = 0;    ///< duplicates resolved from earlier batches

  std::uint64_t cache_hits() const { return batch_hits + lru_hits; }
};

/// Thread-safe bounded LRU map from gene bytes to Evaluation.
class EvalCache {
 public:
  /// `capacity` is the maximum number of retained entries (> 0).
  explicit EvalCache(std::size_t capacity);
  ~EvalCache();

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

  /// Looks up `genes` under `context` (pre-hashed with
  /// robust::hash_genes(genes, context)). On a hit, copies the stored
  /// result into `out`, refreshes the entry's recency and returns true.
  bool lookup(std::span<const double> genes, std::uint64_t hash,
              moga::Evaluation& out, std::uint64_t context = 0);

  /// lookup() without the recency refresh: it only reads, so concurrent
  /// peeks leave the eviction order as it was.
  bool peek(std::span<const double> genes, std::uint64_t hash,
            moga::Evaluation& out, std::uint64_t context = 0) const;

  /// Stores (context, genes) -> eval, evicting the least-recently-used
  /// entry when full. Re-inserting an existing key refreshes its recency.
  void insert(std::span<const double> genes, std::uint64_t hash,
              const moga::Evaluation& eval, std::uint64_t context = 0);

  class Stage;

  /// Inserts the entries of `stage` in the order they were staged, exactly
  /// as insert() calls would (an entry whose key is present refreshes it),
  /// without copying them again, and leaves `stage` empty.
  void commit(Stage& stage);

  /// True when the LRU list and hash index describe the same entry set:
  /// equal sizes within capacity, list links agree both ways, every index
  /// slot points at a live list node under its stored hash, and no two
  /// entries share identical (context, gene bytes). O(n log n); compiled
  /// unconditionally so tests can call it in any build, with insert()
  /// self-checking under kCheckInvariants.
  bool coherent() const;

 private:
  /// One retained evaluation. Allocated with its payload in one block: the
  /// header is followed by `genes`, then `objectives`, then `violations`
  /// doubles.
  struct Entry {
    Entry* prev = nullptr;  ///< towards the most recently used end
    Entry* next = nullptr;  ///< towards the least recently used end
    std::uint64_t hash = 0;
    std::uint64_t context = 0;
    std::uint32_t genes = 0;
    std::uint32_t objectives = 0;
    std::uint32_t violations = 0;

    const double* data() const { return reinterpret_cast<const double*>(this + 1); }
    double* data() { return reinterpret_cast<double*>(this + 1); }
    std::span<const double> gene_span() const { return {data(), genes}; }
    void copy_eval_to(moga::Evaluation& out) const;
  };

  static Entry* make_entry(std::span<const double> genes, std::uint64_t hash,
                           const moga::Evaluation& eval, std::uint64_t context);
  static void free_entry(Entry* entry);

  /// Returns the entry matching `context` + `genes` byte-for-byte, or null.
  Entry* find_locked(std::span<const double> genes, std::uint64_t hash,
                     std::uint64_t context) const;
  void unlink(Entry* entry);
  void push_front(Entry* entry);
  /// Makes `entry` the most recent one (its key must be absent), evicting
  /// the least recently used entry when full.
  void link_locked(Entry* entry);

  /// coherent() with mu_ already held (for the insert() self-check).
  bool coherent_locked() const;

  const std::size_t capacity_;
  mutable std::shared_mutex mu_;
  Entry* head_ = nullptr;  ///< most recently used
  Entry* tail_ = nullptr;  ///< least recently used (the eviction victim)
  std::size_t size_ = 0;
  // Keyed equal_range lookups only, and at most one bucket entry can pass
  // the full gene-vector compare, so the order entries appear within a
  // bucket (or across buckets) never selects a different result.
  // anadex-lint: allow(det-unordered)
  std::unordered_multimap<std::uint64_t, Entry*> index_;
};

/// What one client would insert into (or refresh in) an EvalCache while the
/// cache is frozen, built without its lock: entries in first-touch order,
/// found again by their client, until EvalCache::commit() adopts them. It
/// holds at most `capacity` entries, the cache's own bound: past that it
/// drops its first-touched entry, which the commit would have pushed out
/// of the LRU anyway. Single-client: not synchronized.
class EvalCache::Stage {
 public:
  Stage(std::uint64_t context, std::size_t capacity) : context_(context), capacity_(capacity) {}
  ~Stage();

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  std::size_t size() const { return entries_.size(); }

  /// Copies the staged result for `genes` into `out`; false when none.
  bool lookup(std::span<const double> genes, std::uint64_t hash,
              moga::Evaluation& out) const;
  /// Stages (context, genes) -> eval; the genes must not be staged yet.
  void add(std::span<const double> genes, std::uint64_t hash,
           const moga::Evaluation& eval);

 private:
  friend class EvalCache;
  std::uint64_t context_;
  std::size_t capacity_;
  std::deque<Entry*> entries_;                    ///< first-touch order
  std::multimap<std::uint64_t, Entry*> index_;    ///< hash -> entry
};

}  // namespace anadex::engine
