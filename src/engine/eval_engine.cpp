#include "engine/eval_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace anadex::engine {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::size_t EvalEngine::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

EvalEngine::EvalEngine(const moga::Problem& problem, std::size_t threads,
                       obs::EventSink* sink, std::size_t cache_capacity,
                       EvalWatchdog watchdog)
    : EvalEngine(threads, sink, cache_capacity, watchdog) {
  problem_ = &problem;
}

EvalEngine::EvalEngine(std::size_t threads, obs::EventSink* sink,
                       std::size_t cache_capacity, EvalWatchdog watchdog)
    : threads_(resolve_threads(threads)), sink_(sink), watchdog_(watchdog) {
  if (cache_capacity > 0) cache_ = std::make_unique<EvalCache>(cache_capacity);
  if (watchdog_.token != nullptr) {
    ANADEX_REQUIRE(
        std::isfinite(watchdog_.deadline_s) && watchdog_.deadline_s > 0.0,
        "watchdog deadline must be finite and positive");
  }
  if (watchdog_.enabled()) {
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
  if (threads_ <= 1) return;  // serial path: no pool
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

EvalEngine::~EvalEngine() {
  if (watchdog_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      watch_stop_ = true;
    }
    watch_cv_.notify_all();
    watchdog_thread_.join();
  }
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }
  if (sink_ != nullptr && sink_->enabled(obs::TraceLevel::Eval) && trace_batches_ > 0) {
    const obs::Field fields[] = {obs::u64("batches", trace_batches_),
                                 obs::u64("items", trace_items_),
                                 obs::u64("workers", threads_),
                                 obs::u64("requested", stats_.requested),
                                 obs::u64("distinct", stats_.evaluated),
                                 obs::u64("cache_hits", stats_.cache_hits())};
    sink_->record(obs::Event{"eval_engine", obs::TraceLevel::Eval, true, fields});
  }
}

const moga::Problem& EvalEngine::problem() const {
  ANADEX_REQUIRE(problem_ != nullptr,
                 "EvalEngine::problem: hub engines have no bound problem");
  return *problem_;
}

void EvalEngine::evaluate_batch(std::span<const Genome> genomes,
                                std::span<moga::Evaluation> out) const {
  ANADEX_REQUIRE(genomes.size() == out.size(),
                 "evaluate_batch: genome and result spans must have equal size");
  ANADEX_REQUIRE(problem_ != nullptr,
                 "evaluate_batch: hub engines require evaluate_members_as");
  std::vector<Item> items(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    items[i] = Item{&genomes[i], &out[i]};
  }
  submit(*problem_, 0, items, nullptr);
}

void EvalEngine::evaluate_members(std::span<moga::Individual> members) const {
  ANADEX_REQUIRE(problem_ != nullptr,
                 "evaluate_members: hub engines require evaluate_members_as");
  std::vector<Item> items(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    items[i] = Item{&members[i].genes, &members[i].eval};
  }
  submit(*problem_, 0, items, nullptr);
}

void EvalEngine::evaluate_members_as(const moga::Problem& problem,
                                     std::uint64_t context,
                                     std::span<moga::Individual> members,
                                     EvalStats* client) const {
  std::vector<Item> items(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    items[i] = Item{&members[i].genes, &members[i].eval};
  }
  submit(problem, context, items, client);
}

moga::Evaluation EvalEngine::evaluate(std::span<const double> genes) const {
  return problem().evaluated(genes);
}

void EvalEngine::submit(const moga::Problem& problem, std::uint64_t context,
                        std::span<const Item> items, EvalStats* client) const {
  batch_problem_ = &problem;
  stats_.requested += items.size();
  if (client != nullptr) client->requested += items.size();
  if (!cache_) {
    trace_requested_ = items.size();
    trace_cache_hits_ = 0;
    stats_.evaluated += items.size();
    if (client != nullptr) client->evaluated += items.size();
    run_batch(items);
    return;
  }

  // Dedup on the calling thread, in ascending item order, so (a) the
  // counters need no synchronization and (b) the distinct dispatch list
  // preserves original index order — the pool's lowest-index-error rule
  // then surfaces the same exception the cache-off path would, because the
  // lowest-index faulting item is always a first occurrence.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  struct Pending {
    Item item;
    std::uint64_t hash = 0;
  };
  // Hash-keyed bucket lookup only: every access goes through operator[] on
  // a specific hash and a linear scan of that one bucket vector (filled in
  // ascending item order), so the map itself is never range-iterated and
  // its unspecified iteration order cannot reach results or traces.
  // anadex-lint: allow(det-unordered)
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> reps;
  std::vector<std::size_t> duplicate_of(items.size(), kNone);
  std::vector<Pending> missing;
  missing.reserve(items.size());
  std::uint64_t lru_hits = 0;
  std::uint64_t batch_hits = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Genome& genes = *items[i].genes;
    const std::uint64_t hash = hash_genes(genes, context);
    auto& bucket = reps[hash];
    std::size_t rep = kNone;
    for (std::size_t j : bucket) {
      if (*items[j].genes == genes) {
        rep = j;
        break;
      }
    }
    if (rep != kNone) {
      duplicate_of[i] = rep;
      ++batch_hits;
      continue;
    }
    bucket.push_back(i);
    if (cache_->lookup(genes, hash, *items[i].out, context)) {
      ++lru_hits;
      continue;
    }
    missing.push_back(Pending{items[i], hash});
  }
  if constexpr (kCheckInvariants) {
    // Dedup bookkeeping: every item is exactly one of intra-batch duplicate,
    // LRU hit, or dispatched representative; and a duplicate's representative
    // always precedes it in the batch — the property the lowest-index-error
    // rethrow rule relies on to match the cache-off path.
    ANADEX_ASSERT(batch_hits + lru_hits + missing.size() == items.size(),
                  "dedup must classify every batch item exactly once");
    for (std::size_t i = 0; i < items.size(); ++i) {
      ANADEX_ASSERT(duplicate_of[i] == kNone || duplicate_of[i] < i,
                    "a duplicate's representative must precede it in the batch");
    }
  }
  stats_.evaluated += missing.size();
  stats_.batch_hits += batch_hits;
  stats_.lru_hits += lru_hits;
  if (client != nullptr) {
    client->evaluated += missing.size();
    client->batch_hits += batch_hits;
    client->lru_hits += lru_hits;
  }
  trace_requested_ = items.size();
  trace_cache_hits_ = lru_hits;

  std::exception_ptr error;
  if (!missing.empty()) {
    std::vector<Item> dispatch;
    dispatch.reserve(missing.size());
    for (const Pending& p : missing) dispatch.push_back(p.item);
    try {
      run_batch(dispatch);
    } catch (...) {
      error = std::current_exception();
    }
    // A faulted batch may have left some representatives unwritten, so
    // nothing from it enters the LRU; fan-out below still mirrors the
    // representative slots, matching what independent evaluation of the
    // clones would have produced (they fault identically).
    if (!error) {
      for (const Pending& p : missing) {
        cache_->insert(*p.item.genes, p.hash, *p.item.out, context);
      }
    }
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (duplicate_of[i] != kNone) *items[i].out = *items[duplicate_of[i]].out;
  }
  if (error) std::rethrow_exception(error);
}

void EvalEngine::run_serial(std::span<const Item> items) const {
  // Same contract as the pooled path: attempt every item, collect the
  // lowest-index failure in first_error_, so thread count never changes
  // which items got their results written. With lanes engaged the whole
  // batch is ONE evaluate_lanes() call, so the evaluator can pool work
  // across all of it; the pool keeps claiming lane_width_ groups, which
  // balance its workers.
  if (lanes_ != nullptr) {
    process_group(0, items.size());
    return;
  }
  for (std::size_t i = 0; i < items.size(); ++i) process_item(i);
}

void EvalEngine::process_item(std::size_t index) const {
  const Item& item = items_[index];
  Clock::time_point item_start;
  if (trace_timing_) item_start = Clock::now();
  try {
    batch_problem_->evaluate(*item.genes, *item.out);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_ || index < first_error_index_) {
      first_error_ = std::current_exception();
      first_error_index_ = index;
    }
  }
  if (trace_timing_) {
    // Each slot is written by the single worker that claimed the item, so
    // this is race-free without further synchronization.
    const Clock::time_point done = Clock::now();
    trace_start_s_[index] = seconds_between(trace_submit_, item_start);
    trace_dur_s_[index] = seconds_between(item_start, done);
  }
}

void EvalEngine::process_group(std::size_t start, std::size_t count) const {
  if (lanes_ != nullptr && count > 1) {
    Clock::time_point group_start;
    if (trace_timing_) group_start = Clock::now();
    bool lanes_ok = false;
    try {
      std::vector<std::span<const double>> genes(count);
      std::vector<moga::Evaluation*> outs(count);
      for (std::size_t i = 0; i < count; ++i) {
        genes[i] = std::span<const double>(*items_[start + i].genes);
        outs[i] = items_[start + i].out;
      }
      lanes_->evaluate_lanes(genes, outs);
      lanes_ok = true;
    } catch (...) {
      // LaneEvaluator contract: a throwing group has written NO outputs.
      // Fall through to the per-item scalar path below, which reproduces
      // exactly what a scalar batch would have done with these items —
      // including recording the lowest-index per-item exception.
    }
    if (lanes_ok) {
      lane_groups_.fetch_add(1, std::memory_order_relaxed);
      lane_items_.fetch_add(count, std::memory_order_relaxed);
      if (trace_timing_) {
        // Lane groups are timed as a unit; each item is attributed an even
        // share so batch-level latency stats stay comparable. Measurement
        // only — never feeds back into results.
        const Clock::time_point done = Clock::now();
        const double share =
            seconds_between(group_start, done) / static_cast<double>(count);
        const double offset = seconds_between(trace_submit_, group_start);
        for (std::size_t i = 0; i < count; ++i) {
          trace_start_s_[start + i] = offset;
          trace_dur_s_[start + i] = share;
        }
      }
      return;
    }
    lane_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < count; ++i) process_item(start + i);
}

void EvalEngine::emit_batch_event(std::size_t size, double wall_seconds,
                                  std::size_t workers_used) const {
  obs::MinMeanMax latency;
  double queue_wait = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size; ++i) {
    latency.add(trace_dur_s_[i]);
    queue_wait = std::min(queue_wait, trace_start_s_[i]);
  }
  // Utilization: fraction of the pool's wall-clock capacity spent inside
  // Problem::evaluate. 1.0 = perfectly busy workers.
  const double capacity = wall_seconds * static_cast<double>(workers_used);
  const double utilization = capacity > 0.0 ? latency.sum / capacity : 0.0;

  const obs::Field fields[] = {obs::u64("batch", trace_batches_),
                               obs::u64("size", size),
                               obs::u64("requested", trace_requested_),
                               obs::u64("cache_hits", trace_cache_hits_),
                               obs::u64("workers", workers_used),
                               obs::f64("wall_s", wall_seconds),
                               obs::f64("queue_wait_s", queue_wait),
                               obs::f64("lat_min_s", latency.min),
                               obs::f64("lat_mean_s", latency.mean()),
                               obs::f64("lat_max_s", latency.max),
                               obs::f64("utilization", utilization)};
  sink_->record(obs::Event{"batch", obs::TraceLevel::Eval, true, fields});
  ++trace_batches_;
  trace_items_ += size;
}

void EvalEngine::arm_watchdog() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watch_deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(watchdog_.deadline_s));
  watch_armed_ = true;
  watch_fired_ = false;
  watch_cv_.notify_all();
}

bool EvalEngine::disarm_watchdog() const {
  bool fired = false;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    fired = watch_fired_;
    watch_armed_ = false;
    watch_fired_ = false;
  }
  watch_cv_.notify_all();
  if (fired) {
    // The batch has fully drained (every in-flight item observed the raised
    // token or finished), so clear it: the next batch must start clean.
    watchdog_.token->reset();
    ++watchdog_fires_;
  }
  return fired;
}

void EvalEngine::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watch_mu_);
  for (;;) {
    watch_cv_.wait(lock, [&] { return watch_stop_ || watch_armed_; });
    if (watch_stop_) return;
    const bool disarmed = watch_cv_.wait_until(
        lock, watch_deadline_, [&] { return watch_stop_ || !watch_armed_; });
    if (watch_stop_) return;
    if (disarmed) continue;  // batch finished inside the deadline
    // Deadline expired with the batch still running: presume a stuck
    // evaluation and raise the cooperative cancellation token. The batch
    // thread observes `watch_fired_` at disarm time.
    watchdog_.token->request();
    watch_fired_ = true;
    watch_armed_ = false;
  }
}

void EvalEngine::run_batch(std::span<const Item> items) const {
  if (items.empty()) return;
  // Lifetime busy-time accounting for the serve stats snapshot: counts the
  // submitting thread's wall time inside dispatch on every exit path.
  // Measurement only — it never feeds back into results.
  struct BusyScope {
    const EvalEngine* engine;
    Clock::time_point start;
    explicit BusyScope(const EvalEngine* e) : engine(e), start(Clock::now()) {}
    ~BusyScope() {
      engine->busy_seconds_ += seconds_between(start, Clock::now());
      ++engine->busy_batches_;
    }
    BusyScope(const BusyScope&) = delete;
    BusyScope& operator=(const BusyScope&) = delete;
  };
  const BusyScope busy_scope(this);
  // Arms the watchdog for the lifetime of this batch; the destructor
  // disarms on every exit path, including a rethrown batch exception.
  struct WatchdogScope {
    const EvalEngine* engine;
    explicit WatchdogScope(const EvalEngine* e) : engine(e) {
      if (engine != nullptr) engine->arm_watchdog();
    }
    ~WatchdogScope() {
      if (engine != nullptr) engine->disarm_watchdog();
    }
    WatchdogScope(const WatchdogScope&) = delete;
    WatchdogScope& operator=(const WatchdogScope&) = delete;
  };
  const WatchdogScope watchdog_scope(watchdog_.enabled() ? this : nullptr);

  const bool tracing = sink_ != nullptr && sink_->enabled(obs::TraceLevel::Eval);
  if (tracing) {
    trace_start_s_.assign(items.size(), 0.0);
    trace_dur_s_.assign(items.size(), 0.0);
    trace_submit_ = Clock::now();
  }
  trace_timing_ = tracing;

  // Lane discovery, per batch (a hub's batch_problem_ changes per batch).
  // Simd uses lanes whenever the problem supports them; Auto additionally
  // requires at least one full lane group so tiny batches skip the setup.
  lanes_ = nullptr;
  lane_width_ = 1;
  if (batch_eval_ != BatchEval::Scalar) {
    if (const auto* lanes = dynamic_cast<const LaneEvaluator*>(batch_problem_);
        lanes != nullptr && lanes->lanes_supported()) {
      const std::size_t width = std::max<std::size_t>(1, lanes->preferred_lane_width());
      if (batch_eval_ == BatchEval::Simd || items.size() >= width) {
        lanes_ = lanes;
        lane_width_ = width;
      }
    }
  }

  if (workers_.empty() || items.size() == 1) {
    // `item_count_` stays 0: it is the workers' "a batch is published"
    // flag, and a serial batch publishes nothing to them.
    items_ = items.data();
    first_error_ = nullptr;
    first_error_index_ = std::numeric_limits<std::size_t>::max();
    run_serial(items);
    items_ = nullptr;
    const std::exception_ptr error = std::exchange(first_error_, nullptr);
    if (tracing) {
      trace_timing_ = false;
      emit_batch_event(items.size(), seconds_between(trace_submit_, Clock::now()), 1);
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  std::unique_lock<std::mutex> lock(mu_);
  // The previous batch was retired (item_count_ = 0) in the same critical
  // section that saw its last worker leave, and workers only join a
  // published batch, so none can still be inside one here.
  ANADEX_CHECK_INVARIANT(active_ == 0,
                         "a batch is published only while every worker is idle");
  items_ = items.data();
  item_count_ = items.size();
  next_item_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  first_error_ = nullptr;
  first_error_index_ = std::numeric_limits<std::size_t>::max();
  ++batch_seq_;
  lock.unlock();
  work_ready_.notify_all();

  lock.lock();
  batch_done_.wait(lock, [&] {
    return active_ == 0 && completed_.load(std::memory_order_acquire) == item_count_;
  });
  if constexpr (kCheckInvariants) {
    // Slot completeness: the index-addressed claim counter must have handed
    // out every slot exactly once — each item attempted, none skipped, no
    // slot written twice (completed_ would overshoot item_count_ otherwise).
    ANADEX_ASSERT(next_item_.load(std::memory_order_relaxed) >= item_count_,
                  "every batch slot must have been claimed");
    ANADEX_ASSERT(completed_.load(std::memory_order_acquire) == item_count_,
                  "every batch slot must complete exactly once");
  }
  items_ = nullptr;
  item_count_ = 0;
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  lock.unlock();

  if (tracing) {
    trace_timing_ = false;
    emit_batch_event(items.size(), seconds_between(trace_submit_, Clock::now()),
                     threads_);
  }
  if (error) std::rethrow_exception(error);
}

void EvalEngine::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t count = 0;
    std::size_t width = 1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return stopping_ || batch_seq_ != seen; });
      if (stopping_) return;
      // Snapshot the batch in the critical section that records `seen`. A
      // worker that wakes only after batch `seen` was retired finds
      // item_count_ == 0 and must not join: the claim cursor may already
      // belong to the next batch, whose slots it would take and drop.
      seen = batch_seq_;
      count = item_count_;
      if (count == 0) continue;
      width = lane_width_;
      ++active_;
    }

    // Workers claim whole lane groups (width 1 = the classic per-item
    // claim) so a LaneEvaluator sees contiguous, deterministic groups no
    // matter which worker lands on them; results are still written by item
    // index, keeping the bit-identity contract across thread counts and
    // batch-eval modes.
    for (;;) {
      const std::size_t start = next_item_.fetch_add(width, std::memory_order_relaxed);
      if (start >= count) break;
      const std::size_t group = std::min(width, count - start);
      process_group(start, group);
      completed_.fetch_add(group, std::memory_order_acq_rel);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (active_ == 0 && completed_.load(std::memory_order_acquire) == count) {
        batch_done_.notify_all();
      }
    }
  }
}

}  // namespace anadex::engine
