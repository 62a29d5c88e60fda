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

/// The engine whose frame slots this thread is running, if any: a batch or
/// run_tasks() call submitted from inside a task runs serially on that
/// thread instead of publishing a frame the busy pool cannot serve.
thread_local const EvalEngine* t_task_engine = nullptr;

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

EvalStats EvalEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::uint64_t EvalEngine::busy_batches() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return busy_batches_;
}

double EvalEngine::busy_seconds() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return busy_seconds_;
}

void EvalEngine::Frame::record_error(std::size_t index) {
  std::lock_guard<std::mutex> lock(error_mu);
  if (!first_error || index < first_error_index) {
    first_error = std::current_exception();
    first_error_index = index;
  }
}

void EvalEngine::submit(const moga::Problem& problem, std::uint64_t context,
                        std::span<const Item> items, EvalStats* client) const {
  if (!cache_) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.requested += items.size();
      stats_.evaluated += items.size();
    }
    if (client != nullptr) {
      client->requested += items.size();
      client->evaluated += items.size();
    }
    run_batch(problem, items, items.size(), 0);
    return;
  }
  EvalCache::Stage* stage = nullptr;
  if (staging_) {
    std::lock_guard<std::mutex> lock(stage_mu_);
    stage = &stages_.try_emplace(context, context, cache_->capacity()).first->second;
  }

  // Dedup on the calling thread, in ascending item order, so the distinct
  // dispatch list preserves original index order — the lowest-index-error
  // rule then surfaces the same exception the cache-off path would,
  // because the lowest-index faulting item is always a first occurrence.
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
    if (cache_lookup(stage, genes, hash, *items[i].out, context)) {
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
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requested += items.size();
    stats_.evaluated += missing.size();
    stats_.batch_hits += batch_hits;
    stats_.lru_hits += lru_hits;
  }
  if (client != nullptr) {
    client->requested += items.size();
    client->evaluated += missing.size();
    client->batch_hits += batch_hits;
    client->lru_hits += lru_hits;
  }

  std::exception_ptr error;
  if (!missing.empty()) {
    std::vector<Item> dispatch;
    dispatch.reserve(missing.size());
    for (const Pending& p : missing) dispatch.push_back(p.item);
    try {
      run_batch(problem, dispatch, items.size(), lru_hits);
    } catch (...) {
      error = std::current_exception();
    }
    // A faulted batch may have left some representatives unwritten, so
    // nothing from it enters the LRU; fan-out below still mirrors the
    // representative slots, matching what independent evaluation of the
    // clones would have produced (they fault identically).
    if (!error) {
      for (const Pending& p : missing) {
        cache_store(stage, *p.item.genes, p.hash, *p.item.out, context);
      }
    }
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (duplicate_of[i] != kNone) *items[i].out = *items[duplicate_of[i]].out;
  }
  if (error) std::rethrow_exception(error);
}

bool EvalEngine::cache_lookup(EvalCache::Stage* stage, const Genome& genes,
                              std::uint64_t hash, moga::Evaluation& out,
                              std::uint64_t context) const {
  if (stage == nullptr) return cache_->lookup(genes, hash, out, context);
  if (stage->lookup(genes, hash, out)) return true;
  if (!cache_->peek(genes, hash, out, context)) return false;
  stage->add(genes, hash, out);  // the hit refreshes its recency at commit
  return true;
}

void EvalEngine::cache_store(EvalCache::Stage* stage, const Genome& genes,
                             std::uint64_t hash, const moga::Evaluation& eval,
                             std::uint64_t context) const {
  if (stage == nullptr) {
    cache_->insert(genes, hash, eval, context);
  } else {
    stage->add(genes, hash, eval);
  }
}

void EvalEngine::process_item(Frame& frame, std::size_t index) const {
  const Item& item = frame.items[index];
  Clock::time_point item_start;
  if (frame.timing) item_start = Clock::now();
  try {
    frame.problem->evaluate(*item.genes, *item.out);
  } catch (...) {
    frame.record_error(index);
  }
  if (frame.timing) {
    // Each slot is written by the single worker that claimed the item, so
    // this is race-free without further synchronization.
    const Clock::time_point done = Clock::now();
    frame.start_s[index] = seconds_between(frame.submit, item_start);
    frame.dur_s[index] = seconds_between(item_start, done);
  }
}

void EvalEngine::process_group(Frame& frame, std::size_t start, std::size_t count) const {
  if (frame.lanes != nullptr && count > 1) {
    Clock::time_point group_start;
    if (frame.timing) group_start = Clock::now();
    bool lanes_ok = false;
    try {
      std::vector<std::span<const double>> genes(count);
      std::vector<moga::Evaluation*> outs(count);
      for (std::size_t i = 0; i < count; ++i) {
        genes[i] = std::span<const double>(*frame.items[start + i].genes);
        outs[i] = frame.items[start + i].out;
      }
      frame.lanes->evaluate_lanes(genes, outs);
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
      if (frame.timing) {
        // Lane groups are timed as a unit; each item is attributed an even
        // share so batch-level latency stats stay comparable. Measurement
        // only — never feeds back into results.
        const Clock::time_point done = Clock::now();
        const double share =
            seconds_between(group_start, done) / static_cast<double>(count);
        const double offset = seconds_between(frame.submit, group_start);
        for (std::size_t i = 0; i < count; ++i) {
          frame.start_s[start + i] = offset;
          frame.dur_s[start + i] = share;
        }
      }
      return;
    }
    lane_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < count; ++i) process_item(frame, start + i);
}

void EvalEngine::run_slots(Frame& frame, std::size_t start, std::size_t count) const {
  if (frame.task == nullptr) {
    process_group(frame, start, count);
    return;
  }
  for (std::size_t i = start; i < start + count; ++i) {
    try {
      (*frame.task)(i);
    } catch (...) {
      frame.record_error(i);
    }
  }
}

void EvalEngine::emit_batch_event(const Frame& frame, double wall_seconds,
                                  std::size_t workers_used) const {
  obs::MinMeanMax latency;
  double queue_wait = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < frame.count; ++i) {
    latency.add(frame.dur_s[i]);
    queue_wait = std::min(queue_wait, frame.start_s[i]);
  }
  // Utilization: fraction of the pool's wall-clock capacity spent inside
  // Problem::evaluate. 1.0 = perfectly busy workers.
  const double capacity = wall_seconds * static_cast<double>(workers_used);
  const double utilization = capacity > 0.0 ? latency.sum / capacity : 0.0;

  std::lock_guard<std::mutex> lock(sink_mu_);
  const obs::Field fields[] = {obs::u64("batch", trace_batches_),
                               obs::u64("size", frame.count),
                               obs::u64("requested", frame.requested),
                               obs::u64("cache_hits", frame.cache_hits),
                               obs::u64("workers", workers_used),
                               obs::f64("wall_s", wall_seconds),
                               obs::f64("queue_wait_s", queue_wait),
                               obs::f64("lat_min_s", latency.min),
                               obs::f64("lat_mean_s", latency.mean()),
                               obs::f64("lat_max_s", latency.max),
                               obs::f64("utilization", utilization)};
  sink_->record(obs::Event{"batch", obs::TraceLevel::Eval, true, fields});
  ++trace_batches_;
  trace_items_ += frame.count;
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

void EvalEngine::run_batch(const moga::Problem& problem, std::span<const Item> items,
                           std::uint64_t requested, std::uint64_t cache_hits) const {
  if (items.empty()) return;
  // Lifetime busy-time accounting for the serve stats snapshot: counts the
  // submitting thread's wall time inside dispatch on every exit path.
  // Measurement only — it never feeds back into results.
  struct BusyScope {
    const EvalEngine* engine;
    Clock::time_point start;
    explicit BusyScope(const EvalEngine* e) : engine(e), start(Clock::now()) {}
    ~BusyScope() {
      const double seconds = seconds_between(start, Clock::now());
      std::lock_guard<std::mutex> lock(engine->stats_mu_);
      engine->busy_seconds_ += seconds;
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

  Frame frame;
  frame.items = items.data();
  frame.count = items.size();
  frame.problem = &problem;
  frame.requested = requested;
  frame.cache_hits = cache_hits;
  frame.timing = sink_ != nullptr && sink_->enabled(obs::TraceLevel::Eval);
  if (frame.timing) {
    frame.start_s.assign(items.size(), 0.0);
    frame.dur_s.assign(items.size(), 0.0);
    frame.submit = Clock::now();
  }

  // Lane discovery, per batch (a hub's problem changes per batch). Simd
  // uses lanes whenever the problem supports them; Auto additionally
  // requires at least one full lane group so tiny batches skip the setup.
  if (batch_eval_ != BatchEval::Scalar) {
    if (const auto* lanes = dynamic_cast<const LaneEvaluator*>(&problem);
        lanes != nullptr && lanes->lanes_supported()) {
      const std::size_t width = std::max<std::size_t>(1, lanes->preferred_lane_width());
      if (batch_eval_ == BatchEval::Simd || items.size() >= width) {
        frame.lanes = lanes;
        frame.width = width;
      }
    }
  }

  // Serial on this thread: no pool, a single item, or a batch submitted
  // from inside a run_tasks() task. With lanes engaged the whole batch is
  // ONE evaluate_lanes() call, so the evaluator can pool work across all
  // of it; the pool claims `width` groups instead, which balance its
  // workers. Either way every item is attempted and the lowest-index
  // failure is the one rethrown, so thread count never changes which
  // items got their results written.
  const bool serial = workers_.empty() || items.size() == 1 || t_task_engine == this;
  if (serial) {
    run_slots(frame, 0, frame.count);
  } else {
    dispatch(frame);
  }
  if (frame.timing) {
    emit_batch_event(frame, seconds_between(frame.submit, Clock::now()),
                     serial ? 1 : threads_);
  }
  if (frame.first_error) std::rethrow_exception(frame.first_error);
}

void EvalEngine::run_tasks(std::size_t n,
                           const std::function<void(std::size_t)>& task) const {
  if (n == 0) return;
  Frame frame;
  frame.task = &task;
  frame.count = n;
  if (workers_.empty() || n == 1 || t_task_engine == this) {
    run_slots(frame, 0, n);
  } else {
    staging_ = cache_ != nullptr;
    dispatch(frame);
    if (staging_) {
      // Every task has finished: the frozen LRU takes the staged entries,
      // client by client in ascending context order (std::map order).
      for (auto& [context, stage] : stages_) cache_->commit(stage);
      stages_.clear();
      staging_ = false;
    }
  }
  if (frame.first_error) std::rethrow_exception(frame.first_error);
}

void EvalEngine::dispatch(Frame& frame) const {
  std::unique_lock<std::mutex> lock(mu_);
  // The previous frame was retired (current_ = nullptr) in the same
  // critical section that saw its last worker leave, and workers only join
  // a published frame, so none can still be inside one here.
  ANADEX_CHECK_INVARIANT(active_ == 0 && current_ == nullptr,
                         "a frame is published only while every worker is idle");
  current_ = &frame;
  ++batch_seq_;
  lock.unlock();
  work_ready_.notify_all();
  // The caller takes tasks too: it is awake while the workers still have to
  // wake up, and a wave is at most `threads_` tasks, so the caller plus
  // the workers that find one never outnumber the pool.
  if (frame.task != nullptr) claim_slots(frame);

  lock.lock();
  batch_done_.wait(lock, [&] {
    return active_ == 0 && frame.completed.load(std::memory_order_acquire) == frame.count;
  });
  if constexpr (kCheckInvariants) {
    // Slot completeness: the index-addressed claim counter must have handed
    // out every slot exactly once — each slot attempted, none skipped, none
    // run twice (completed would overshoot count otherwise).
    ANADEX_ASSERT(frame.next.load(std::memory_order_relaxed) >= frame.count,
                  "every frame slot must have been claimed");
    ANADEX_ASSERT(frame.completed.load(std::memory_order_acquire) == frame.count,
                  "every frame slot must complete exactly once");
  }
  current_ = nullptr;
}

void EvalEngine::claim_slots(Frame& frame) const {
  // Claim whole lane groups (width 1 = the classic per-item claim, and the
  // task claim) so a LaneEvaluator sees contiguous, deterministic groups no
  // matter which thread lands on them; results are still written by item
  // index, keeping the bit-identity contract across thread counts and
  // batch-eval modes. While it runs slots, this thread is marked as one of
  // the engine's task threads, so a batch that a task submits runs here,
  // serially.
  const EvalEngine* const saved = std::exchange(t_task_engine, this);
  for (;;) {
    const std::size_t start = frame.next.fetch_add(frame.width, std::memory_order_relaxed);
    if (start >= frame.count) break;
    const std::size_t group = std::min(frame.width, frame.count - start);
    run_slots(frame, start, group);
    frame.completed.fetch_add(group, std::memory_order_acq_rel);
  }
  t_task_engine = saved;
}

void EvalEngine::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Frame* frame = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return stopping_ || batch_seq_ != seen; });
      if (stopping_) return;
      // Join the frame in the critical section that records `seen`. A
      // worker that wakes only after frame `seen` was retired finds
      // current_ == nullptr and must not join: the frame is gone.
      seen = batch_seq_;
      frame = current_;
      if (frame == nullptr) continue;
      ++active_;
    }

    claim_slots(*frame);

    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (active_ == 0 && frame->completed.load(std::memory_order_acquire) == frame->count) {
        batch_done_.notify_all();
      }
    }
  }
}

}  // namespace anadex::engine
