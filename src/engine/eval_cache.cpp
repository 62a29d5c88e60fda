#include "engine/eval_cache.hpp"

#include <algorithm>
#include <mutex>
#include <new>
#include <shared_mutex>

#include "common/check.hpp"

namespace anadex::engine {

EvalCache::EvalCache(std::size_t capacity) : capacity_(capacity) {
  ANADEX_REQUIRE(capacity > 0, "EvalCache capacity must be > 0");
}

EvalCache::~EvalCache() {
  for (Entry* entry = head_; entry != nullptr;) {
    Entry* const next = entry->next;
    free_entry(entry);
    entry = next;
  }
}

std::size_t EvalCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return size_;
}

void EvalCache::Entry::copy_eval_to(moga::Evaluation& out) const {
  const double* objectives_begin = data() + genes;
  const double* violations_begin = objectives_begin + objectives;
  out.objectives.assign(objectives_begin, violations_begin);
  out.violations.assign(violations_begin, violations_begin + violations);
}

EvalCache::Entry* EvalCache::make_entry(std::span<const double> genes, std::uint64_t hash,
                                        const moga::Evaluation& eval,
                                        std::uint64_t context) {
  static_assert(sizeof(Entry) % alignof(double) == 0,
                "the payload after the header must be double-aligned");
  const std::size_t doubles = genes.size() + eval.objectives.size() + eval.violations.size();
  void* raw = ::operator new(sizeof(Entry) + doubles * sizeof(double));
  auto* entry = new (raw) Entry;
  entry->hash = hash;
  entry->context = context;
  entry->genes = static_cast<std::uint32_t>(genes.size());
  entry->objectives = static_cast<std::uint32_t>(eval.objectives.size());
  entry->violations = static_cast<std::uint32_t>(eval.violations.size());
  double* out = std::copy(genes.begin(), genes.end(), entry->data());
  out = std::copy(eval.objectives.begin(), eval.objectives.end(), out);
  std::copy(eval.violations.begin(), eval.violations.end(), out);
  return entry;
}

void EvalCache::free_entry(Entry* entry) {
  entry->~Entry();
  ::operator delete(entry);
}

void EvalCache::unlink(Entry* entry) {
  (entry->prev != nullptr ? entry->prev->next : head_) = entry->next;
  (entry->next != nullptr ? entry->next->prev : tail_) = entry->prev;
  entry->prev = nullptr;
  entry->next = nullptr;
}

void EvalCache::push_front(Entry* entry) {
  entry->prev = nullptr;
  entry->next = head_;
  (head_ != nullptr ? head_->prev : tail_) = entry;
  head_ = entry;
}

EvalCache::Entry* EvalCache::find_locked(std::span<const double> genes,
                                         std::uint64_t hash,
                                         std::uint64_t context) const {
  auto [lo, hi] = index_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    Entry* const entry = it->second;
    if (entry->context == context && entry->genes == genes.size() &&
        std::equal(genes.begin(), genes.end(), entry->data())) {
      return entry;
    }
  }
  return nullptr;
}

bool EvalCache::lookup(std::span<const double> genes, std::uint64_t hash,
                       moga::Evaluation& out, std::uint64_t context) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry* const entry = find_locked(genes, hash, context);
  if (entry == nullptr) return false;
  entry->copy_eval_to(out);
  unlink(entry);  // refresh recency
  push_front(entry);
  return true;
}

bool EvalCache::peek(std::span<const double> genes, std::uint64_t hash,
                     moga::Evaluation& out, std::uint64_t context) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry* const entry = find_locked(genes, hash, context);
  if (entry == nullptr) return false;
  entry->copy_eval_to(out);
  return true;
}

void EvalCache::insert(std::span<const double> genes, std::uint64_t hash,
                       const moga::Evaluation& eval, std::uint64_t context) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (Entry* const existing = find_locked(genes, hash, context); existing != nullptr) {
    unlink(existing);
    push_front(existing);
    return;
  }
  link_locked(make_entry(genes, hash, eval, context));
}

void EvalCache::commit(Stage& stage) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (Entry* const entry : stage.entries_) {
    if (Entry* const existing = find_locked(entry->gene_span(), entry->hash, entry->context);
        existing != nullptr) {
      unlink(existing);
      push_front(existing);
      free_entry(entry);
    } else {
      link_locked(entry);
    }
  }
  stage.entries_.clear();
  stage.index_.clear();
}

void EvalCache::link_locked(Entry* entry) {
  if (size_ >= capacity_) {
    Entry* const victim = tail_;
    auto [lo, hi] = index_.equal_range(victim->hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == victim) {
        index_.erase(it);
        break;
      }
    }
    unlink(victim);
    free_entry(victim);
    --size_;
  }
  push_front(entry);
  index_.emplace(entry->hash, entry);
  ++size_;
  if constexpr (kCheckInvariants) {
    ANADEX_ASSERT(coherent_locked(),
                  "LRU list and hash index must describe the same entries");
  }
}

EvalCache::Stage::~Stage() {
  for (Entry* const entry : entries_) free_entry(entry);
}

bool EvalCache::Stage::lookup(std::span<const double> genes, std::uint64_t hash,
                              moga::Evaluation& out) const {
  auto [lo, hi] = index_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    const Entry* const entry = it->second;
    if (entry->genes == genes.size() &&
        std::equal(genes.begin(), genes.end(), entry->data())) {
      entry->copy_eval_to(out);
      return true;
    }
  }
  return false;
}

void EvalCache::Stage::add(std::span<const double> genes, std::uint64_t hash,
                           const moga::Evaluation& eval) {
  Entry* const entry = make_entry(genes, hash, eval, context_);
  entries_.push_back(entry);
  index_.emplace(hash, entry);
  if (entries_.size() > capacity_) {
    Entry* const oldest = entries_.front();
    entries_.pop_front();
    auto [lo, hi] = index_.equal_range(oldest->hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == oldest) {
        index_.erase(it);
        break;
      }
    }
    free_entry(oldest);
  }
}

bool EvalCache::coherent() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return coherent_locked();
}

bool EvalCache::coherent_locked() const {
  if (size_ > capacity_) return false;
  if (index_.size() != size_) return false;
  // Walk the list: links must agree both ways and the walk must see exactly
  // size_ nodes, each indexed under its own hash. Collect the nodes to
  // prove the mapping is a bijection.
  std::vector<const Entry*> seen;
  seen.reserve(size_);
  const Entry* prev = nullptr;
  for (const Entry* entry = head_; entry != nullptr; entry = entry->next) {
    if (entry->prev != prev || seen.size() == size_) return false;
    auto [lo, hi] = index_.equal_range(entry->hash);
    bool indexed = false;
    for (auto slot = lo; slot != hi; ++slot) {
      if (slot->second == entry) {
        indexed = true;
        break;
      }
    }
    if (!indexed) return false;
    seen.push_back(entry);
    prev = entry;
  }
  if (prev != tail_ || seen.size() != size_) return false;
  // index_.size() == size_ plus every node indexed under its hash leaves no
  // room for dangling slots; finally, keys must be unique.
  const auto key_less = [](const Entry* a, const Entry* b) {
    if (a->hash != b->hash) return a->hash < b->hash;
    if (a->context != b->context) return a->context < b->context;
    const auto ga = a->gene_span();
    const auto gb = b->gene_span();
    return std::lexicographical_compare(ga.begin(), ga.end(), gb.begin(), gb.end());
  };
  std::sort(seen.begin(), seen.end(), key_less);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (!key_less(seen[i - 1], seen[i])) return false;
  }
  return true;
}

}  // namespace anadex::engine
