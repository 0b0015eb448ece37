#include "serve/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "fault/fault_injector.hpp"
#include "hw/timer.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rtmobile::serve {

namespace {

void latch_acquire(std::atomic<bool>& flag) {
  while (flag.exchange(true, std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void latch_release(std::atomic<bool>& flag) {
  flag.store(false, std::memory_order_release);
}

/// RAII form of the route latch for single-entry critical sections
/// (multi-entry holders — migration — acquire/release manually).
class SpinLatch {
 public:
  explicit SpinLatch(std::atomic<bool>& flag) : flag_(flag) {
    latch_acquire(flag_);
  }
  ~SpinLatch() { latch_release(flag_); }
  SpinLatch(const SpinLatch&) = delete;
  SpinLatch& operator=(const SpinLatch&) = delete;

 private:
  std::atomic<bool>& flag_;
};

/// Monotonic microseconds for heartbeat stamps (steady: never jumps with
/// wall-clock adjustments, which would fake a stall).
std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* to_string(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kQuarantined: return "quarantined";
    case ShardHealth::kFailed: return "failed";
    case ShardHealth::kLost: return "lost";
  }
  return "unknown";
}

ShardedEngine::ShardedEngine(const SpeechModel& model,
                             const std::map<std::string, BlockMask>& masks,
                             const CompilerOptions& options,
                             ShardConfig config)
    : config_(std::move(config)),
      router_(config_.shards, config_.policy) {
  RT_REQUIRE(config_.shards >= 1, "sharded engine needs >= 1 shard");
  RT_REQUIRE(config_.threads_per_shard >= 1,
             "sharded engine needs >= 1 thread per shard");

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    CompilerOptions shard_options = options;
    shard_options.threads = config_.threads_per_shard;
    if (config_.pin_cores) {
      shard_options.core_range = CoreRange{s * config_.threads_per_shard,
                                           config_.threads_per_shard};
    }
    if (config_.threads_per_shard > 1) {
      shard->pool = std::make_unique<ThreadPool>(config_.threads_per_shard,
                                                 shard_options.core_range);
    }
    shard->model = std::make_unique<CompiledSpeechModel>(
        model, masks, shard_options, shard->pool.get());
    // Each replica keys every injection site by its shard index, so a
    // fault spec can kill exactly one replica and leave its siblings
    // serving.
    runtime::EngineConfig engine_config = config_.engine;
    engine_config.fault_key = s;
    shard->engine = std::make_unique<runtime::InferenceEngine>(
        *shard->model, engine_config);
    shard->queue = std::make_unique<SubmissionQueue>(config_.queue_capacity);
    if (config_.engine.fault != nullptr) {
      shard->queue->set_fault(config_.engine.fault, s);
    }
    if (config_.engine.telemetry != nullptr) {
      obs::Telemetry& telemetry = *config_.engine.telemetry;
      shard->queue_depth_gauge = &telemetry.shard_gauge(
          "rt_shard_queue_depth", "Ingress commands queued per shard", s);
      shard->backlog_gauge = &telemetry.shard_gauge(
          "rt_shard_backlog_frames",
          "Engine-internal feature-frame backlog per shard", s);
      shard->lag_gauge = &telemetry.shard_gauge(
          "rt_shard_max_lag_us",
          "Worst-stream lag last published per shard", s);
      shard->streams_gauge = &telemetry.shard_gauge(
          "rt_shard_live_streams", "Live streams per shard", s);
    }
    shards_.push_back(std::move(shard));
  }
  blocks_ = std::make_unique<std::unique_ptr<EntryBlock>[]>(kMaxBlocks);
}

ShardedEngine::~ShardedEngine() {
  try {
    stop();
  } catch (...) {
    // A pump's stored failure must not escape a destructor.
  }
}

const CompiledSpeechModel& ShardedEngine::shard_model(std::size_t s) const {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return *shards_[s]->model;
}

ShardedEngine::StreamEntry& ShardedEngine::entry(StreamHandle h) const {
  // Lock-free: open_stream fully initializes the entry (and its block)
  // before publishing the slot through slot_count_ with release order,
  // so a slot below the acquired count always maps to a ready entry. The
  // generation check rejects handles whose stream was closed and whose
  // slot has since been reissued.
  const std::uint64_t slot = h.id & kSlotMask;
  RT_REQUIRE(slot < slot_count_.load(std::memory_order_acquire),
             "unknown stream handle");
  StreamEntry& e = blocks_[slot / kEntriesPerBlock]
                       ->entries[slot % kEntriesPerBlock];
  RT_REQUIRE(e.generation.load(std::memory_order_acquire) ==
                 h.id >> kSlotBits,
             "stale stream handle (stream closed, slot reissued)");
  return e;
}

ShardedEngine::StreamEntry* ShardedEngine::try_entry(
    std::uint64_t id) const {
  const std::uint64_t slot = id & kSlotMask;
  if (slot >= slot_count_.load(std::memory_order_acquire)) return nullptr;
  StreamEntry& e = blocks_[slot / kEntriesPerBlock]
                       ->entries[slot % kEntriesPerBlock];
  if (e.generation.load(std::memory_order_acquire) != id >> kSlotBits) {
    return nullptr;
  }
  return &e;
}

std::vector<std::size_t> ShardedEngine::snapshot_loads() const {
  std::vector<std::size_t> loads(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) loads[s] = load(s);
  return loads;
}

std::vector<double> ShardedEngine::snapshot_lags_us() const {
  std::vector<double> lags(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    lags[s] = shards_[s]->max_lag_us.load(std::memory_order_acquire);
  }
  return lags;
}

StreamHandle ShardedEngine::open_stream(std::uint64_t session_key) {
  StreamConfig config;
  config.decode = speech::StreamingDecoderConfig::none();
  config.session_key = session_key;
  return open_stream(config);
}

OpenResult ShardedEngine::try_open_stream(const StreamConfig& config) {
  std::size_t target = 0;
  StreamHandle handle;
  bool reused = false;
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    const std::vector<std::size_t> loads = snapshot_loads();
    const std::vector<double> lags = snapshot_lags_us();
    target = router_.pick(loads, lags, config.session_key);
    // Open-time admission control: the router already picked the
    // least-loaded/least-lagged admissible shard, so if even that
    // shard's last published worst-stream lag exceeds the requested
    // budget, the whole fleet is too far behind to serve this stream
    // inside its deadline — refuse before wasting a slot and compute.
    if (config.deadline.enabled() &&
        lags[target] * 1e-6 > config.deadline.budget_seconds) {
      return OpenResult{StreamHandle{}, OpenStatus::kRejectedOverBudget};
    }

    // Prefer a slot freed by a closed stream; grow the table otherwise.
    std::uint64_t slot = 0;
    {
      const std::lock_guard<std::mutex> free_lock(free_mutex_);
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        reused = true;
      }
    }
    if (reused) {
      StreamEntry& free_entry = blocks_[slot / kEntriesPerBlock]
                                    ->entries[slot % kEntriesPerBlock];
      if (free_entry.route_latch.exchange(true,
                                          std::memory_order_acquire)) {
        // A migration sweep latched this free slot (its stale shard
        // field matched the shard being seized). Never block here — the
        // sweep may itself be waiting on admit_mutex_, which we hold —
        // put the slot back and grow the table instead.
        const std::lock_guard<std::mutex> free_lock(free_mutex_);
        free_slots_.push_back(static_cast<std::uint32_t>(slot));
        reused = false;
      }
    }
    if (!reused) {
      slot = slot_count_.load(std::memory_order_relaxed);
      RT_REQUIRE(slot < kEntriesPerBlock * kMaxBlocks,
                 "stream handle table exhausted (too many live streams)");
      std::unique_ptr<EntryBlock>& block = blocks_[slot / kEntriesPerBlock];
      if (block == nullptr) block = std::make_unique<EntryBlock>();
    }
    StreamEntry& e = blocks_[slot / kEntriesPerBlock]
                         ->entries[slot % kEntriesPerBlock];
    const std::uint64_t generation =
        reused ? e.generation.load(std::memory_order_relaxed) + 1 : 0;
    e.shard.store(target, std::memory_order_relaxed);
    e.session.store(nullptr, std::memory_order_relaxed);
    e.done.store(false, std::memory_order_relaxed);
    e.lag_us.store(0.0, std::memory_order_relaxed);
    e.shed_frames.store(0, std::memory_order_relaxed);
    e.deadline_misses.store(0, std::memory_order_relaxed);
    e.rejected.store(false, std::memory_order_relaxed);
    e.orphaned.store(false, std::memory_order_relaxed);
    e.session_key = config.session_key;
    {
      // Events the previous occupant never polled die with its handle.
      const std::lock_guard<std::mutex> events_lock(e.events_mutex);
      pending_events_.fetch_sub(e.events.size(),
                                std::memory_order_acq_rel);
      e.events.clear();
    }
    // Publish: a stale handle's generation stops matching here, and for
    // a fresh slot entry() accepts it only after the count store.
    e.generation.store(generation, std::memory_order_release);
    if (reused) {
      e.route_latch.store(false, std::memory_order_release);
    } else {
      slot_count_.store(slot + 1, std::memory_order_release);
    }
    handle.id = generation << kSlotBits | slot;
    // Counted before the admission lock drops so concurrent admissions
    // see this stream in load() and don't dog-pile one shard.
    shards_[target]->live_streams.fetch_add(1, std::memory_order_acq_rel);
  }
  StreamEntry& e = entry(handle);
  StreamCommand open;
  open.kind = StreamCommand::Kind::kOpen;
  open.stream = handle.id;
  open.decode = config.decode;
  open.deadline = config.deadline;
  // Undoes a failed admission: the stream never existed. The load signal
  // reverts (on whichever shard the stream is currently routed to — a
  // failover may have moved it along with its admission count) and the
  // slot is recycled (its next occupant bumps the generation, so the
  // handle we never returned can't alias it).
  const auto rollback = [this, &e, &handle] {
    {
      const SpinLatch latch(e.route_latch);
      shards_[e.shard.load(std::memory_order_acquire)]
          ->live_streams.fetch_sub(1, std::memory_order_acq_rel);
    }
    const std::lock_guard<std::mutex> free_lock(free_mutex_);
    free_slots_.push_back(static_cast<std::uint32_t>(handle.id & kSlotMask));
  };
  try {
    if (running()) {
      if (!enqueue_routed(e, std::move(open))) {
        // Ingress ring full: typed backpressure instead of spinning —
        // the base-class open_stream wrapper retries, a transport maps
        // it to a wire-level "try again" before any state leaks.
        rollback();
        return OpenResult{StreamHandle{}, OpenStatus::kBackpressure};
      }
    } else {
      // Synchronous mode: the caller is the only actor, apply in place.
      apply(*shards_[e.shard.load(std::memory_order_acquire)],
            std::move(open));
    }
  } catch (...) {
    rollback();  // dead shard: fail the open, not the engine
    throw;
  }
  return OpenResult{handle, OpenStatus::kOk};
}

bool ShardedEngine::enqueue(std::size_t shard, StreamCommand&& command) {
  Shard& target = *shards_[shard];
  if (target.dead.load(std::memory_order_acquire)) {
    // Fail fast on a dead shard when nobody will recover it: returning
    // false would send backpressure loops spinning on a ring nobody
    // drains. Under supervision the same condition is transient — the
    // supervisor is about to re-route this stream — so it surfaces as
    // ordinary backpressure and the caller's retry lands on the new
    // shard. A close is the exception either way: the failover's ring
    // flush (or the supervisor's failed-ring sweep) still serves it.
    RT_REQUIRE(config_.supervisor.enabled,
               "serve: shard pump died; stop() reports the cause");
    if (command.kind != StreamCommand::Kind::kClose) return false;
  } else if (config_.supervisor.enabled &&
             static_cast<ShardHealth>(target.health.load(
                 std::memory_order_acquire)) != ShardHealth::kHealthy &&
             command.kind != StreamCommand::Kind::kClose) {
    return false;
  }
  return target.queue->try_push(std::move(command));
}

bool ShardedEngine::enqueue_routed(StreamEntry& e, StreamCommand&& command) {
  // The latch orders this push against migration: either the command
  // lands in the ring the migrator is about to flush (and is re-routed
  // with the stream), or the shard load here is the post-migration one.
  const SpinLatch latch(e.route_latch);
  return enqueue(e.shard.load(std::memory_order_acquire),
                 std::move(command));
}

bool ShardedEngine::submit_audio(StreamHandle h,
                                 std::span<const float> samples) {
  StreamEntry& e = entry(h);
  {
    // Cheap pre-check: when the ring is saturated, report backpressure
    // before copying the payload — retry loops would otherwise allocate
    // and copy the chunk on every failed attempt. (Racy by nature; the
    // authoritative answer is still try_push's.)
    const Shard& shard = *shards_[e.shard.load(std::memory_order_acquire)];
    if (shard.queue->depth() >= shard.queue->capacity()) {
      RT_REQUIRE(config_.supervisor.enabled ||
                     !shard.dead.load(std::memory_order_acquire),
                 "serve: shard pump died; stop() reports the cause");
      return false;
    }
  }
  StreamCommand command;
  command.kind = StreamCommand::Kind::kAudio;
  command.stream = h.id;
  command.samples.assign(samples.begin(), samples.end());
  return enqueue_routed(e, std::move(command));
}

bool ShardedEngine::finish_stream(StreamHandle h) {
  StreamEntry& e = entry(h);
  StreamCommand command;
  command.kind = StreamCommand::Kind::kFinish;
  command.stream = h.id;
  return enqueue_routed(e, std::move(command));
}

bool ShardedEngine::close_stream(StreamHandle h) {
  StreamEntry& e = entry(h);
  if (e.orphaned.load(std::memory_order_acquire)) {
    // The stream was aborted with its shard: there is no session to
    // release and no pump to route through. Retire the mailbox here;
    // the slot stays reserved (never reissued), so a late lookup on
    // this handle keeps failing typed instead of aliasing a new stream.
    const std::lock_guard<std::mutex> lock(e.events_mutex);
    pending_events_.fetch_sub(e.events.size(), std::memory_order_acq_rel);
    e.events.clear();
    return true;
  }
  StreamCommand command;
  command.kind = StreamCommand::Kind::kClose;
  command.stream = h.id;
  if (running()) return enqueue_routed(e, std::move(command));
  apply(*shards_[e.shard.load(std::memory_order_acquire)],
        std::move(command));  // synchronous mode
  return true;
}

StreamDeadlineStats ShardedEngine::stream_deadline_stats(
    StreamHandle h) const {
  const StreamEntry& e = entry(h);
  StreamDeadlineStats stats;
  stats.lag_seconds = e.lag_us.load(std::memory_order_acquire) * 1e-6;
  stats.shed_frames = e.shed_frames.load(std::memory_order_acquire);
  stats.deadline_misses =
      e.deadline_misses.load(std::memory_order_acquire);
  stats.rejected = e.rejected.load(std::memory_order_acquire);
  return stats;
}

bool ShardedEngine::stream_done(StreamHandle h) const {
  StreamEntry& e = entry(h);
  if (e.done.load(std::memory_order_acquire)) return true;
  // An incomplete stream on a dead shard will never finish; surface
  // that instead of letting completion pollers spin forever. Under
  // supervision "not done yet" is the truth: the supervisor fails the
  // stream over (or aborts it with a terminal event, flipping done).
  if (!config_.supervisor.enabled) {
    RT_REQUIRE(
        !shards_[e.shard.load(std::memory_order_acquire)]->dead.load(
            std::memory_order_acquire),
        "serve: shard pump died; stop() reports the cause");
  }
  return false;
}

Matrix ShardedEngine::stream_logits(StreamHandle h) const {
  StreamEntry& e = entry(h);
  RT_REQUIRE(e.done.load(std::memory_order_acquire) || !running(),
             "stream_logits: stream still being served");
  const runtime::StreamingSession* session =
      e.session.load(std::memory_order_acquire);
  RT_REQUIRE(session != nullptr,
             "stream_logits: stream not open (never pumped or closed)");
  return session->logits();
}

std::size_t ShardedEngine::stream_shard(StreamHandle h) const {
  return entry(h).shard.load(std::memory_order_acquire);
}

std::size_t ShardedEngine::poll_events(StreamHandle h,
                                       std::vector<speech::StreamEvent>& out) {
  StreamEntry& e = entry(h);
  const std::lock_guard<std::mutex> lock(e.events_mutex);
  const std::size_t moved = e.events.size();
  out.insert(out.end(), std::make_move_iterator(e.events.begin()),
             std::make_move_iterator(e.events.end()));
  e.events.clear();
  pending_events_.fetch_sub(moved, std::memory_order_acq_rel);
  return moved;
}

std::size_t ShardedEngine::poll_events(std::vector<RecognizerEvent>& out) {
  const std::size_t start = out.size();
  std::size_t total = 0;
  const std::uint64_t slots = slot_count_.load(std::memory_order_acquire);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    StreamEntry& e = blocks_[slot / kEntriesPerBlock]
                         ->entries[slot % kEntriesPerBlock];
    const std::lock_guard<std::mutex> lock(e.events_mutex);
    if (e.events.empty()) continue;
    // The mailbox was cleared when this slot was last reissued, so its
    // events belong to the current generation's stream.
    const std::uint64_t generation =
        e.generation.load(std::memory_order_acquire);
    const StreamHandle handle{generation << kSlotBits | slot};
    const std::size_t moved = e.events.size();
    for (speech::StreamEvent& event : e.events) {
      out.push_back(RecognizerEvent{handle, std::move(event)});
    }
    total += moved;
    e.events.clear();
    pending_events_.fetch_sub(moved, std::memory_order_acq_rel);
  }
  // Slot order is not handle order once closed slots are reissued (a
  // reissued low slot carries a newer, higher id). Sort into ascending
  // handle-id order — the deterministic drain-all contract shared with
  // LocalRecognizer; stable, so each stream's own events stay ordered.
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(start),
                   out.end(),
                   [](const RecognizerEvent& a, const RecognizerEvent& b) {
                     return a.stream.id < b.stream.id;
                   });
  return total;
}

bool ShardedEngine::wait_for_events(std::chrono::microseconds timeout) {
  if (pending_events_.load(std::memory_order_acquire) > 0) return true;
  std::unique_lock<std::mutex> lock(events_cv_mutex_);
  return events_cv_.wait_for(lock, timeout, [this] {
    return pending_events_.load(std::memory_order_acquire) > 0;
  });
}

// ---------------------------------------------------------- command flow

void ShardedEngine::apply(Shard& shard, StreamCommand&& command) {
  switch (command.kind) {
    case StreamCommand::Kind::kOpen: {
      StreamEntry* e = try_entry(command.stream);
      if (e == nullptr) break;  // slot already reissued: drop
      runtime::StreamingSession& session = shard.engine->create_session(
          config_.engine.mfcc, command.decode);
      session.set_deadline(command.deadline);
      shard.local.emplace(command.stream, &session);
      e->session.store(&session, std::memory_order_release);
      break;
    }
    // kAudio/kFinish for a stream no longer in `local` (it completed or
    // was closed while the command sat in the ring) are dropped: one
    // misbehaving client must not take the shard down. A stream that a
    // failover just migrated HERE may still sit in the adoption inbox
    // when its next chunk arrives (the producer pushed between the
    // migrator's inbox store and this pump's round top) — adopt before
    // concluding the stream is gone, or the chunk would be lost.
    case StreamCommand::Kind::kAudio: {
      auto it = shard.local.find(command.stream);
      if (it == shard.local.end() &&
          shard.inbox_size.load(std::memory_order_acquire) > 0) {
        adopt_inbox(shard);
        it = shard.local.find(command.stream);
      }
      if (it != shard.local.end() && !it->second->finished()) {
        it->second->push_audio(command.samples);
      }
      break;
    }
    case StreamCommand::Kind::kFinish: {
      auto it = shard.local.find(command.stream);
      if (it == shard.local.end() &&
          shard.inbox_size.load(std::memory_order_acquire) > 0) {
        adopt_inbox(shard);
        it = shard.local.find(command.stream);
      }
      if (it != shard.local.end() && !it->second->finished()) {
        it->second->finish();
      }
      break;
    }
    case StreamCommand::Kind::kClose: {
      StreamEntry* stale_checked = try_entry(command.stream);
      if (stale_checked == nullptr) break;  // slot already reissued: drop
      StreamEntry& e = *stale_checked;
      runtime::StreamingSession* session =
          e.session.load(std::memory_order_acquire);
      if (session == nullptr) break;  // double close: drop
      const auto it = shard.local.find(command.stream);
      if (it != shard.local.end()) {  // closing a live stream abandons it
        shard.local.erase(it);
        shard.live_streams.fetch_sub(1, std::memory_order_acq_rel);
      }
      // Unpublish so no NEW stream_logits lookup can reach the dying
      // session. A lookup already in flight on this handle is the
      // documented client misuse (reading a handle while closing it).
      e.session.store(nullptr, std::memory_order_release);
      e.done.store(true, std::memory_order_release);
      {
        // Unpolled hypotheses die with the stream the client abandoned.
        const std::lock_guard<std::mutex> events_lock(e.events_mutex);
        pending_events_.fetch_sub(e.events.size(),
                                  std::memory_order_acq_rel);
        e.events.clear();
      }
      // Ownership returns to us and dies here: the session is freed.
      (void)shard.engine->release_session(session);
      // The slot can serve a future stream; its next occupant bumps the
      // generation, invalidating this handle.
      {
        const std::lock_guard<std::mutex> free_lock(free_mutex_);
        free_slots_.push_back(
            static_cast<std::uint32_t>(command.stream & kSlotMask));
      }
      break;
    }
  }
}

std::size_t ShardedEngine::apply_commands(Shard& shard) {
  std::size_t applied = 0;
  StreamCommand command;
  while (shard.queue->try_pop(command)) {
    apply(shard, std::move(command));
    ++applied;
  }
  return applied;
}

std::size_t ShardedEngine::adopt_inbox(Shard& shard) {
  if (shard.inbox_size.load(std::memory_order_acquire) == 0) return 0;
  std::vector<std::pair<std::uint64_t,
                        std::unique_ptr<runtime::StreamingSession>>>
      batch;
  {
    const std::lock_guard<std::mutex> lock(shard.inbox_mutex);
    batch.swap(shard.inbox);
    shard.inbox_size.store(0, std::memory_order_release);
  }
  for (auto& [id, session] : batch) {
    // adopt_session keeps the session object's identity, so the handle
    // entry's published session pointer stays valid across the move.
    runtime::StreamingSession& adopted =
        shard.engine->adopt_session(std::move(session));
    shard.local.emplace(id, &adopted);
  }
  return batch.size();
}

void ShardedEngine::collect_events(Shard& shard) {
  obs::Telemetry* telemetry = config_.engine.telemetry;
  RT_SPAN(telemetry != nullptr ? &telemetry->trace() : nullptr,
          kEventFlush, obs::kNoStream);
  std::size_t published = 0;
  for (const auto& [id, session] : shard.local) {
    if (session->pending_events() == 0) continue;
    StreamEntry* e = try_entry(id);
    if (e == nullptr || e->orphaned.load(std::memory_order_acquire)) {
      continue;  // slot reissued or stream aborted mid-flight: drop
    }
    const std::lock_guard<std::mutex> lock(e->events_mutex);
    published += session->poll_events(e->events);
  }
  if (published > 0) {
    pending_events_.fetch_add(published, std::memory_order_acq_rel);
    // Empty critical section: a wait_for_events caller that checked the
    // counter before this add is guaranteed to be inside wait_for by the
    // time notify fires (the lost-wakeup guard).
    { const std::lock_guard<std::mutex> lock(events_cv_mutex_); }
    events_cv_.notify_all();
  }
}

void ShardedEngine::mark_done(Shard& shard) {
  for (auto it = shard.local.begin(); it != shard.local.end();) {
    StreamEntry* e = try_entry(it->first);
    if (e == nullptr || e->orphaned.load(std::memory_order_acquire)) {
      // A session stranded by an abort: its stream already got its
      // terminal event and its live_streams accounting was settled when
      // it was aborted — just reclaim the memory.
      (void)shard.engine->release_session(it->second);
      it = shard.local.erase(it);
      continue;
    }
    if (it->second->done()) {
      e->done.store(true, std::memory_order_release);
      shard.live_streams.fetch_sub(1, std::memory_order_acq_rel);
      it = shard.local.erase(it);
    } else {
      ++it;
    }
  }
}

void ShardedEngine::publish_deadline(Shard& shard) {
  for (const auto& [id, session] : shard.local) {
    StreamEntry* e = try_entry(id);
    if (e == nullptr || e->orphaned.load(std::memory_order_acquire)) {
      continue;  // slot reissued or stream aborted mid-flight: drop
    }
    e->lag_us.store(session->lag_seconds() * 1e6,
                    std::memory_order_release);
    e->shed_frames.store(session->shed_frames(),
                         std::memory_order_release);
    e->deadline_misses.store(session->deadline_misses(),
                             std::memory_order_release);
    e->rejected.store(session->rejected(), std::memory_order_release);
  }
}

void ShardedEngine::publish_backlog(Shard& shard) {
  const std::size_t backlog = shard.engine->pending_frames();
  const double lag_us = shard.engine->max_lag_seconds() * 1e6;
  shard.backlog.store(backlog, std::memory_order_release);
  shard.max_lag_us.store(lag_us, std::memory_order_release);
  if (shard.backlog_gauge != nullptr) {
    shard.queue_depth_gauge->set(
        static_cast<double>(shard.queue->depth()));
    shard.backlog_gauge->set(static_cast<double>(backlog));
    shard.lag_gauge->set(lag_us);
    shard.streams_gauge->set(static_cast<double>(
        shard.live_streams.load(std::memory_order_acquire)));
  }
}

// ---------------------------------------------------------- threaded mode

void ShardedEngine::pump_loop(std::size_t s) {
  Shard& shard = *shards_[s];
  fault::FaultInjector* fault = config_.engine.fault;
  if (config_.pin_cores) {
    ThreadPool::pin_current_thread(s * config_.threads_per_shard);
  }
  try {
    std::size_t idle_rounds = 0;
    for (;;) {
      if (shard.park_requested.load(std::memory_order_acquire)) {
        // Cooperative park: exit between rounds, state-clean, so the
        // supervisor can replay this shard's streams bit-identically.
        shard.parked.store(true, std::memory_order_release);
        return;
      }
      shard.heartbeat.fetch_add(1, std::memory_order_acq_rel);
      shard.heartbeat_us.store(steady_now_us(), std::memory_order_release);
      if (fault != nullptr) {
        if (fault->should_fire(fault::Site::kPumpStall, s)) {
          std::this_thread::sleep_for(fault->stall(fault::Site::kPumpStall));
        }
        if (fault->should_fire(fault::Site::kPumpFault, s)) {
          throw fault::FaultInjected("injected pump fault");
        }
      }
      std::size_t worked = adopt_inbox(shard);
      worked += apply_commands(shard);
      worked += shard.engine->step();
      collect_events(shard);
      publish_deadline(shard);
      mark_done(shard);
      publish_backlog(shard);
      if (worked > 0) {
        idle_rounds = 0;
        continue;
      }
      if (stop_requested_.load(std::memory_order_acquire) &&
          shard.queue->depth() == 0) {
        break;  // graceful: everything submitted has been served
      }
      // Idle backoff: yield first so bursts restart instantly, then
      // sleep so parked shards do not burn a core.
      ++idle_rounds;
      if (idle_rounds < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  } catch (...) {
    // An internal error must not std::terminate the whole service; park
    // the shard (producers fail fast on `dead`; the supervisor, when
    // enabled, fails its streams over) and surface the failure from
    // stop() if nothing recovers it first.
    shard.failure = std::current_exception();
    shard.dead.store(true, std::memory_order_release);
  }
}

void ShardedEngine::start() {
  RT_REQUIRE(!running(), "sharded engine already running");
  stop_requested_.store(false, std::memory_order_release);
  for (const auto& shard : shards_) {
    // A shard parked by a previous window's failure gets a fresh pump;
    // clear its health state so traffic flows again. (Admissibility is
    // the caller's: a drained or failed-over shard stays out of the
    // rotation until re-admitted or rejoined.)
    shard->failure = nullptr;
    shard->dead.store(false, std::memory_order_release);
    shard->park_requested.store(false, std::memory_order_release);
    shard->parked.store(false, std::memory_order_release);
    shard->health.store(static_cast<std::uint8_t>(ShardHealth::kHealthy),
                        std::memory_order_release);
    shard->heartbeat_us.store(steady_now_us(), std::memory_order_release);
  }
  running_.store(true, std::memory_order_release);
  window_timer_.reset();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->pump = std::thread([this, s] { pump_loop(s); });
  }
  if (config_.supervisor.enabled) {
    supervisor_ = std::thread([this] { supervisor_loop(); });
  }
}

void ShardedEngine::stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  // The supervisor joins first: it is the only other thread that joins
  // and relaunches pump threads, so winding it down before touching the
  // pumps keeps thread-handle ownership single-threaded here.
  if (supervisor_.joinable()) supervisor_.join();
  for (const auto& shard : shards_) {
    if (shard->pump.joinable()) shard->pump.join();
  }
  // A submission can race the pumps' exit check and strand in a ring.
  // With the pumps joined this thread is the sole consumer, so sweep
  // until every ring reads empty — anything accepted before the sweep
  // finishes is served here. running_ stays true until the sweep is
  // over, so stream_logits cannot read a session the sweep still feeds.
  std::exception_ptr failure;
  try {
    for (;;) {
      std::size_t worked = 0;
      for (const auto& shard : shards_) {
        worked += adopt_inbox(*shard);
        worked += apply_commands(*shard);
        worked += shard->engine->drain();
        collect_events(*shard);
        publish_deadline(*shard);
        mark_done(*shard);
        publish_backlog(*shard);
      }
      if (worked == 0) break;
    }
  } catch (...) {
    failure = std::current_exception();
  }
  // Close the window only now (frames the sweep served are in the
  // per-shard stats, so they must be inside it), and accumulate: stats
  // counters span every window since reset_stats, so the wall view must
  // too.
  window_us_ += window_timer_.elapsed_us();
  running_.store(false, std::memory_order_release);
  for (const auto& shard : shards_) {
    // Failures the supervisor already recovered (failover or abort) were
    // cleared when they were handled; only unrecovered ones surface.
    if (failure == nullptr && shard->failure != nullptr) {
      failure = shard->failure;
    }
    shard->failure = nullptr;
  }
  if (failure != nullptr) std::rethrow_exception(failure);
}

// ------------------------------------------------------- synchronous mode

std::size_t ShardedEngine::pump_shard(std::size_t s) {
  RT_REQUIRE(!running(), "pump_shard: engine is in threaded mode");
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[s];
  std::size_t worked = adopt_inbox(shard);
  worked += apply_commands(shard);
  worked += shard.engine->step();
  collect_events(shard);
  publish_deadline(shard);
  mark_done(shard);
  publish_backlog(shard);
  return worked;
}

std::size_t ShardedEngine::drain() {
  RT_REQUIRE(!running(), "drain: engine is in threaded mode");
  std::size_t total_frames = 0;
  for (;;) {
    std::size_t worked = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      worked += adopt_inbox(shard);
      worked += apply_commands(shard);
      const std::size_t frames = shard.engine->drain();
      worked += frames;
      total_frames += frames;
      collect_events(shard);
      publish_deadline(shard);
      mark_done(shard);
      publish_backlog(shard);
    }
    if (worked == 0) return total_frames;
  }
}

// ------------------------------------------------------------- migration

std::size_t ShardedEngine::drain_shard(std::size_t s) {
  RT_REQUIRE(!running(), "drain_shard: stop the engine first");
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    router_.set_admissible(s, false);
    RT_REQUIRE(router_.admissible_count() > 0,
               "drain_shard: no shard left to migrate to");
  }
  return seize_and_migrate(s, /*record_failover=*/false);
}

void ShardedEngine::set_shard_admissible(std::size_t s, bool admissible) {
  const std::lock_guard<std::mutex> lock(admit_mutex_);
  router_.set_admissible(s, admissible);
}

std::size_t ShardedEngine::pick_target(std::uint64_t session_key) {
  const std::lock_guard<std::mutex> lock(admit_mutex_);
  // Re-route with the client's original key so session-hash placement
  // stays consistent with future streams of that client (and with the
  // lag signal, so least-lag keeps holding during migration).
  const std::vector<std::size_t> loads = snapshot_loads();
  const std::vector<double> lags = snapshot_lags_us();
  return router_.pick(loads, lags, session_key);
}

void ShardedEngine::forward_command(std::size_t target,
                                    StreamCommand&& command) {
  Shard& shard = *shards_[target];
  if (!running()) {
    // Synchronous mode: the migrator is the only actor, apply in place.
    apply(shard, std::move(command));
    return;
  }
  // A forwarded command is already accepted work — it cannot be dropped
  // and there is no client to bounce backpressure to. The target's pump
  // is live (it was picked as admissible), so a full ring drains.
  while (!shard.queue->try_push(std::move(command))) {
    std::this_thread::yield();
  }
}

std::size_t ShardedEngine::seize_and_migrate(std::size_t s,
                                             bool record_failover) {
  Shard& source = *shards_[s];
  obs::Telemetry* telemetry = config_.engine.telemetry;

  // Sessions a previous failover parked in the inbox that the pump died
  // before adopting must not be stranded here.
  adopt_inbox(source);

  // Latch every entry currently routed to this shard. From here no
  // producer can push toward the source ring (enqueue_routed re-reads
  // the shard under the latch), so one ring flush below reaches a
  // provably quiescent ring, and per-stream command order is preserved
  // across the re-route. Entries created after this snapshot route to
  // admissible shards only — the source was already taken out of the
  // rotation.
  std::vector<StreamEntry*> latched;
  const std::uint64_t slots = slot_count_.load(std::memory_order_acquire);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    StreamEntry& e = blocks_[slot / kEntriesPerBlock]
                         ->entries[slot % kEntriesPerBlock];
    latch_acquire(e.route_latch);
    if (e.shard.load(std::memory_order_acquire) != s) {
      latch_release(e.route_latch);
      continue;
    }
    latched.push_back(&e);
  }

  // Flush the ring. Commands for streams with a live session here are
  // applied in place (their effects migrate with the session); a kOpen
  // that never reached its session re-routes the stream, and everything
  // behind it in the ring follows it to the new shard, in order.
  std::unordered_set<std::uint64_t> rerouted;
  StreamCommand command;
  while (source.queue->try_pop(command)) {
    StreamEntry* e = try_entry(command.stream);
    if (e == nullptr) continue;  // stale: drop, as the pump would
    if (rerouted.contains(command.stream)) {
      forward_command(e->shard.load(std::memory_order_acquire),
                      std::move(command));
      command = StreamCommand{};
      continue;
    }
    if (command.kind == StreamCommand::Kind::kOpen &&
        e->session.load(std::memory_order_acquire) == nullptr &&
        !e->done.load(std::memory_order_acquire)) {
      const std::size_t target = pick_target(e->session_key);
      source.live_streams.fetch_sub(1, std::memory_order_acq_rel);
      shards_[target]->live_streams.fetch_add(1, std::memory_order_acq_rel);
      e->shard.store(target, std::memory_order_release);
      rerouted.insert(command.stream);
      forward_command(target, std::move(command));
      command = StreamCommand{};
      continue;
    }
    if (source.local.contains(command.stream) ||
        command.kind == StreamCommand::Kind::kClose) {
      apply(source, std::move(command));
      command = StreamCommand{};
      continue;
    }
    // Audio/finish for a completed or closed stream: drop.
  }

  // Publish any decoder events the flush produced and let finished
  // streams complete in place — they stay readable where they are.
  collect_events(source);
  publish_deadline(source);
  mark_done(source);

  // Move every remaining live stream to an admissible sibling, hidden
  // state, pending frames, and produced logits intact.
  std::size_t migrated = 0;
  while (!source.local.empty()) {
    const auto [id, session] = *source.local.begin();
    source.local.erase(source.local.begin());
    StreamEntry* e = try_entry(id);
    if (e == nullptr || e->orphaned.load(std::memory_order_acquire)) {
      (void)source.engine->release_session(session);
      continue;
    }
    const std::size_t target_index = pick_target(e->session_key);
    Shard& target = *shards_[target_index];
    std::unique_ptr<runtime::StreamingSession> released =
        source.engine->release_session(session);
    if (running()) {
      // The target's pump owns its engine; hand the session over through
      // the adoption inbox, which it drains at its next round top. The
      // session object's identity is preserved, so the entry's published
      // pointer stays valid throughout the transit.
      const std::lock_guard<std::mutex> lock(target.inbox_mutex);
      target.inbox.emplace_back(id, std::move(released));
      target.inbox_size.store(target.inbox.size(),
                              std::memory_order_release);
    } else {
      runtime::StreamingSession& adopted =
          target.engine->adopt_session(std::move(released));
      target.local.emplace(id, &adopted);
    }
    source.live_streams.fetch_sub(1, std::memory_order_acq_rel);
    target.live_streams.fetch_add(1, std::memory_order_acq_rel);
    e->shard.store(target_index, std::memory_order_release);
    ++migrated;
  }

  // Streams admitted to this shard whose open is still in a producer's
  // hands (blocked on the latch, or about to enqueue): re-route the
  // entry so that push lands on a live shard. Closed slots whose stale
  // shard field matched are left alone (`done` distinguishes them).
  for (StreamEntry* e : latched) {
    if (e->shard.load(std::memory_order_relaxed) != s) continue;
    if (e->done.load(std::memory_order_acquire) ||
        e->orphaned.load(std::memory_order_acquire)) {
      continue;
    }
    if (e->session.load(std::memory_order_acquire) != nullptr) continue;
    const std::size_t target = pick_target(e->session_key);
    source.live_streams.fetch_sub(1, std::memory_order_acq_rel);
    shards_[target]->live_streams.fetch_add(1, std::memory_order_acq_rel);
    e->shard.store(target, std::memory_order_release);
  }

  for (StreamEntry* e : latched) latch_release(e->route_latch);
  // Only the seized source is this thread's to read. While pumps run,
  // each target's pump republishes its own backlog every round.
  publish_backlog(source);
  if (!running()) {
    for (const auto& shard : shards_) {
      if (shard.get() != &source) publish_backlog(*shard);
    }
  }

  if (telemetry != nullptr) {
    if (record_failover) telemetry->fault().failovers->add(1);
    telemetry->fault().replayed_streams->add(migrated);
  }
  return migrated;
}

// ------------------------------------------- supervision, failover, rejoin

ShardHealth ShardedEngine::shard_health(std::size_t s) const {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return static_cast<ShardHealth>(
      shards_[s]->health.load(std::memory_order_acquire));
}

std::uint64_t ShardedEngine::shard_heartbeat(std::size_t s) const {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->heartbeat.load(std::memory_order_acquire);
}

void ShardedEngine::quarantine(std::size_t s) {
  Shard& shard = *shards_[s];
  auto expected = static_cast<std::uint8_t>(ShardHealth::kHealthy);
  if (!shard.health.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(ShardHealth::kQuarantined),
          std::memory_order_acq_rel)) {
    return;  // already out of rotation for this failure
  }
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    router_.set_admissible(s, false);
  }
  if (config_.engine.telemetry != nullptr) {
    config_.engine.telemetry->fault().detected->add(1);
  }
}

std::size_t ShardedEngine::fail_over_shard(std::size_t s) {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[s];
  RT_REQUIRE(!running() || shard.dead.load(std::memory_order_acquire) ||
                 shard.parked.load(std::memory_order_acquire),
             "fail_over_shard: the shard's pump must not be running");
  quarantine(s);
  bool has_target = false;
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    has_target = router_.admissible_count() > 0;
  }
  if (!has_target) {
    // Nowhere to replay to: typed abort beats silent hanging streams.
    (void)abort_shard_streams(s);
    return 0;
  }
  // The pump exited (dead or parked) but its thread handle may still
  // need collecting before this thread touches the shard's engine.
  if (shard.pump.joinable() && running()) shard.pump.join();
  const std::size_t migrated = seize_and_migrate(s, /*record_failover=*/true);
  shard.health.store(static_cast<std::uint8_t>(ShardHealth::kFailed),
                     std::memory_order_release);
  shard.failed_at_us.store(steady_now_us(), std::memory_order_release);
  // The failure is handled — every stream was replayed elsewhere — so
  // stop() must not rethrow it as if it had gone unrecovered.
  shard.failure = nullptr;
  return migrated;
}

std::size_t ShardedEngine::abort_shard_streams(std::size_t s) {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[s];
  quarantine(s);
  obs::Telemetry* telemetry = config_.engine.telemetry;
  std::size_t aborted = 0;
  const std::uint64_t slots = slot_count_.load(std::memory_order_acquire);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    StreamEntry& e = blocks_[slot / kEntriesPerBlock]
                         ->entries[slot % kEntriesPerBlock];
    const SpinLatch latch(e.route_latch);
    if (e.shard.load(std::memory_order_acquire) != s) continue;
    if (e.done.load(std::memory_order_acquire) ||
        e.orphaned.load(std::memory_order_acquire)) {
      continue;  // finished streams stay readable; closed slots are stale
    }
    // The shard's engine cannot be trusted (its pump may still be wedged
    // inside it), so the session is stranded: unpublish it, deliver the
    // typed terminal event, and settle the stream's accounting. The slot
    // is never reissued — a revived pump reclaims the session memory via
    // the orphan sweep in mark_done.
    e.orphaned.store(true, std::memory_order_release);
    e.session.store(nullptr, std::memory_order_release);
    push_abort_event(e);
    e.done.store(true, std::memory_order_release);
    shard.live_streams.fetch_sub(1, std::memory_order_acq_rel);
    ++aborted;
    if (telemetry != nullptr) telemetry->fault().aborted_streams->add(1);
  }
  shard.health.store(static_cast<std::uint8_t>(ShardHealth::kLost),
                     std::memory_order_release);
  shard.failed_at_us.store(steady_now_us(), std::memory_order_release);
  return aborted;
}

void ShardedEngine::push_abort_event(StreamEntry& e) {
  speech::StreamEvent event;
  event.kind = speech::StreamEventKind::kAborted;
  event.is_final = true;
  {
    const std::lock_guard<std::mutex> lock(e.events_mutex);
    e.events.push_back(std::move(event));
  }
  pending_events_.fetch_add(1, std::memory_order_acq_rel);
  { const std::lock_guard<std::mutex> lock(events_cv_mutex_); }
  events_cv_.notify_all();
}

bool ShardedEngine::probe_shard(Shard& shard) {
  // Health probe: one short synthetic utterance end to end through the
  // shard's own engine. Created and released here, so a passing shard
  // rejoins with no residue; any engine fault (including a still-armed
  // injection) fails the probe instead of escaping.
  try {
    runtime::StreamingSession& session = shard.engine->create_session(
        config_.engine.mfcc, speech::StreamingDecoderConfig::none());
    Rng rng(42);
    std::vector<float> samples(3200);
    for (float& x : samples) x = rng.uniform(-0.05F, 0.05F);
    session.push_audio(samples);
    session.finish();
    for (int i = 0; i < 10000 && !session.done(); ++i) {
      if (shard.engine->step() == 0) break;
    }
    const bool ok = session.done() && session.logits().rows() > 0;
    (void)shard.engine->release_session(&session);
    return ok;
  } catch (...) {
    return false;
  }
}

bool ShardedEngine::rejoin_shard(std::size_t s) {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[s];
  if (static_cast<ShardHealth>(shard.health.load(
          std::memory_order_acquire)) != ShardHealth::kFailed) {
    return false;  // only a failed-over (replayed) shard can come back
  }
  if (!probe_shard(shard)) {
    // Restart the backoff clock so auto-rejoin doesn't probe-spin.
    shard.failed_at_us.store(steady_now_us(), std::memory_order_release);
    return false;
  }
  shard.failure = nullptr;
  shard.dead.store(false, std::memory_order_release);
  shard.park_requested.store(false, std::memory_order_release);
  shard.parked.store(false, std::memory_order_release);
  shard.heartbeat_us.store(steady_now_us(), std::memory_order_release);
  shard.health.store(static_cast<std::uint8_t>(ShardHealth::kHealthy),
                     std::memory_order_release);
  if (running()) {
    if (shard.pump.joinable()) shard.pump.join();
    const std::size_t index = s;
    shard.pump = std::thread([this, index] { pump_loop(index); });
  }
  set_shard_admissible(s, true);
  return true;
}

void ShardedEngine::handle_shard_failure(std::size_t s) {
  Shard& shard = *shards_[s];
  quarantine(s);
  if (!shard.dead.load(std::memory_order_acquire)) {
    // Stalled, not dead: ask the pump to park between rounds — a
    // state-clean exit, which is what keeps its streams' replay
    // bit-identical — and give it the grace window to comply.
    shard.park_requested.store(true, std::memory_order_release);
    const auto deadline =
        std::chrono::steady_clock::now() + config_.supervisor.park_grace;
    while (!shard.parked.load(std::memory_order_acquire) &&
           !shard.dead.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) {
        // Wedged past the grace: its engine state cannot be trusted.
        (void)abort_shard_streams(s);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  (void)fail_over_shard(s);
}

void ShardedEngine::supervisor_loop() {
  const SupervisorConfig& sup = config_.supervisor;
  const std::uint64_t stall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          sup.stall_timeout)
          .count());
  const std::uint64_t rejoin_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          sup.rejoin_backoff)
          .count());
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(sup.check_interval);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      const auto health = static_cast<ShardHealth>(
          shard.health.load(std::memory_order_acquire));
      if (health == ShardHealth::kHealthy) {
        if (shard.dead.load(std::memory_order_acquire)) {
          handle_shard_failure(s);
          continue;
        }
        const std::uint64_t beat =
            shard.heartbeat_us.load(std::memory_order_acquire);
        const std::uint64_t now = steady_now_us();
        if (now > beat && now - beat > stall_us) handle_shard_failure(s);
        continue;
      }
      if (health == ShardHealth::kFailed) {
        // No pump: the supervisor is the failed ring's consumer, so a
        // straggler command (e.g. a close that raced the failover) is
        // still served instead of rotting in the ring.
        StreamCommand command;
        while (shard.queue->try_pop(command)) {
          apply(shard, std::move(command));
        }
        if (sup.auto_rejoin &&
            steady_now_us() -
                    shard.failed_at_us.load(std::memory_order_acquire) >
                rejoin_us) {
          (void)rejoin_shard(s);
        }
      }
      // kQuarantined is transient (this thread finishes the failover
      // before returning here); kLost shards are never touched — their
      // wedged pump may still own the engine.
    }
  }
}

// ----------------------------------------------------------- load & stats

std::size_t ShardedEngine::load(std::size_t s) const {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  const Shard& shard = *shards_[s];
  return shard.queue->depth() +
         shard.live_streams.load(std::memory_order_acquire) +
         shard.backlog.load(std::memory_order_acquire);
}

std::size_t ShardedEngine::queue_depth(std::size_t s) const {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->queue->depth();
}

double ShardedEngine::shard_lag_seconds(std::size_t s) const {
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->max_lag_us.load(std::memory_order_acquire) * 1e-6;
}

const runtime::RuntimeStats& ShardedEngine::shard_stats(
    std::size_t s) const {
  RT_REQUIRE(!running(), "shard_stats: stop the engine first");
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->engine->stats();
}

const cache::PrefixCache* ShardedEngine::shard_cache(std::size_t s) const {
  RT_REQUIRE(!running(), "shard_cache: stop the engine first");
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->engine->cache();
}

std::size_t ShardedEngine::shard_session_count(std::size_t s) const {
  RT_REQUIRE(!running(), "shard_session_count: stop the engine first");
  RT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->engine->session_count();
}

GlobalStats ShardedEngine::stats() const {
  RT_REQUIRE(!running(), "stats: stop the engine first");
  StatsAggregator aggregator;
  for (const auto& shard : shards_) {
    aggregator.add_shard(shard->engine->stats());
  }
  aggregator.set_wall_us(window_us_);
  GlobalStats global = aggregator.global();
  for (const auto& shard : shards_) {
    global.weight_bytes += shard->model->total_memory_bytes();
  }
  return global;
}

void ShardedEngine::reset_stats() {
  RT_REQUIRE(!running(), "reset_stats: stop the engine first");
  for (const auto& shard : shards_) shard->engine->reset_stats();
  window_us_ = 0.0;
}

}  // namespace rtmobile::serve
