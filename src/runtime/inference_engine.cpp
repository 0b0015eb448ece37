#include "runtime/inference_engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "fault/fault_injector.hpp"
#include "hw/timer.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace rtmobile::runtime {

InferenceEngine::InferenceEngine(const CompiledSpeechModel& model,
                                 EngineConfig config)
    : model_(model), config_(std::move(config)) {
  RT_REQUIRE(config_.max_batch > 0, "engine: max_batch must be positive");
  if (config_.stats_sample_cap != 0) {
    stats_.set_sample_cap(config_.stats_sample_cap);
  }
  if (config_.cache.enabled) {
    cache_ = std::make_unique<cache::PrefixCache>(config_.cache);
  }
}

StreamingSession& InferenceEngine::create_session() {
  return create_session(config_.mfcc);
}

StreamingSession& InferenceEngine::create_session(
    const speech::MfccConfig& mfcc) {
  return create_session(mfcc, speech::StreamingDecoderConfig::none());
}

StreamingSession& InferenceEngine::create_session(
    const speech::MfccConfig& mfcc,
    const speech::StreamingDecoderConfig& decode) {
  sessions_.push_back(
      std::make_unique<StreamingSession>(next_id_++, model_, mfcc, decode));
  sessions_.back()->set_clock(&clock());
  sessions_.back()->set_telemetry(config_.telemetry);
  return *sessions_.back();
}

StreamingSession& InferenceEngine::session(std::size_t index) {
  RT_REQUIRE(index < sessions_.size(), "session index out of range");
  return *sessions_[index];
}

void InferenceEngine::apply_overload(double now_us) {
  if (config_.overload == OverloadPolicy::kNone) return;
  for (const auto& session : sessions_) {
    if (!session->deadline().enabled() || session->rejected()) continue;
    if (!session->frame_ready()) continue;
    if (session->frame_wait_us(now_us) <= session->deadline().budget_us()) {
      continue;
    }
    if (config_.overload == OverloadPolicy::kShed) {
      const std::size_t shed = session->shed_overdue(now_us);
      stats_.shed_frames += shed;
      if (config_.telemetry != nullptr) {
        config_.telemetry->engine().shed_frames->add(shed);
      }
      RT_LOG(Debug, "engine") << "stream=" << session->id() << " shed "
                              << shed << " overdue frames";
    } else {
      const std::size_t shed = session->reject();
      stats_.shed_frames += shed;
      stats_.rejected_streams += 1;
      if (config_.telemetry != nullptr) {
        config_.telemetry->engine().shed_frames->add(shed);
        config_.telemetry->engine().rejected_streams->add(1);
      }
      RT_LOG(Info, "engine") << "stream=" << session->id()
                             << " rejected past deadline budget, dropped "
                             << shed << " frames";
    }
  }
}

void InferenceEngine::gather_by_priority() {
  ready_.clear();
  for (const auto& session : sessions_) {
    if (session->frame_ready()) ready_.push_back(session.get());
  }
  const bool edf =
      config_.scheduler == SchedulerPolicy::kEarliestDeadlineFirst;
  // EDF: serve the stream whose head-frame deadline (arrival + budget)
  // expires first; budgetless streams sort after every deadlined one,
  // oldest head frame first. Lag-aware: serve the most-behind stream
  // (oldest head-frame arrival) first. Both keys are arrival-derived, so
  // they are stable within a round; ties break by admission id for a
  // deterministic total order.
  auto key = [edf](const StreamingSession* s) {
    const double arrival = s->oldest_arrival_us();
    if (!edf) return arrival;
    return s->deadline().enabled()
               ? arrival + s->deadline().budget_us()
               : std::numeric_limits<double>::infinity();
  };
  const std::size_t take = std::min(ready_.size(), config_.max_batch);
  // Only the served prefix needs ordering: O(N log take) per round, not
  // a full sort of every ready stream in the overload regime.
  std::partial_sort(
      ready_.begin(), ready_.begin() + static_cast<std::ptrdiff_t>(take),
      ready_.end(),
      [&key, edf](const StreamingSession* a, const StreamingSession* b) {
        const double ka = key(a);
        const double kb = key(b);
        if (ka != kb) return ka < kb;
        // EDF tie (same deadline, e.g. both budgetless): the more
        // behind stream first, then id.
        if (edf && a->oldest_arrival_us() != b->oldest_arrival_us()) {
          return a->oldest_arrival_us() < b->oldest_arrival_us();
        }
        return a->id() < b->id();
      });
  active_.assign(ready_.begin(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(take));
}

void InferenceEngine::account_lag(double now_us) {
  double max_wait_us = 0.0;
  bool any_ready = false;
  for (const auto& session : sessions_) {
    if (!session->frame_ready()) continue;
    any_ready = true;
    max_wait_us = std::max(max_wait_us, session->frame_wait_us(now_us));
  }
  obs::Telemetry* telemetry = config_.telemetry;
  if (any_ready) {
    stats_.lag.record(max_wait_us);
    if (telemetry != nullptr) {
      telemetry->engine().lag_us->observe(max_wait_us);
    }
  }
  for (StreamingSession* session : active_) {
    if (session->deadline().enabled() &&
        session->frame_wait_us(now_us) > session->deadline().budget_us()) {
      stats_.deadline_misses += 1;
      session->note_deadline_miss();
      if (telemetry != nullptr) {
        telemetry->engine().deadline_misses->add(1);
        // A blown budget is the trigger for slow-stream exemplar
        // capture: freeze this stream's span trace before the rings
        // overwrite it.
        telemetry->trace().capture_exemplar(session->id(),
                                            session->frame_wait_us(now_us));
      }
    }
  }
}

std::size_t InferenceEngine::serve_cached(double& audio_seconds) {
  obs::Telemetry* telemetry = config_.telemetry;
  obs::TraceCollector* trace =
      telemetry != nullptr ? &telemetry->trace() : nullptr;
  std::size_t served = 0;
  for (const auto& session : sessions_) {
    std::size_t burst = 0;
    while (session->frame_ready() &&
           (config_.cache.max_hit_burst == 0 ||
            burst < config_.cache.max_hit_burst)) {
      // The injection point makes a poisoned lookup indistinguishable
      // from a miss: the frame falls through to plain compute below.
      if (config_.fault != nullptr &&
          config_.fault->should_fire(fault::Site::kCacheLookup,
                                     config_.fault_key)) {
        break;
      }
      cache::PrefixCursor next = session->prefix_cursor();
      next.advance(session->front_frame(), config_.cache.quant_scale);
      const cache::PrefixCache::Entry* entry = cache_->lookup(next);
      if (entry == nullptr) break;
      RT_SPAN(trace, kDecode, session->id());
      // Mirror the compute path's observable order exactly — state, then
      // the logits row (which feeds the in-loop decoder), then the frame
      // pop — so the event stream is bitwise what compute would emit.
      session->restore_state(entry->state);
      session->append_logits(entry->logits);
      session->pop_frame();
      session->prefix_cursor() = next;
      audio_seconds += session->seconds_per_frame();
      ++served;
      ++burst;
      stats_.cache_hits += 1;
      stats_.cache_skipped_steps += 1;
      if (telemetry != nullptr) {
        telemetry->cache().hits->add(1);
        telemetry->cache().skipped_steps->add(1);
      }
    }
  }
  return served;
}

std::size_t InferenceEngine::step() {
  // The injection point sits before any state mutation: an injected
  // engine fault leaves every session exactly as the previous round
  // published it, which is what makes failover replay bit-identical.
  if (config_.fault != nullptr &&
      config_.fault->should_fire(fault::Site::kEngineStep,
                                 config_.fault_key)) {
    throw fault::FaultInjected("injected engine-step fault");
  }
  const std::size_t count = sessions_.size();
  if (count == 0) return 0;
  // Times the whole scheduling round — gather and scatter copies are part
  // of the serving cost the stats must reflect, not just the model step.
  WallTimer timer;
  const double now_us = clock().now_us();

  // Overload actions run under every scheduler (shedding removes
  // overdue frames, never reorders the gather); with the default
  // OverloadPolicy::kNone this is a no-op, so the round-robin default
  // stays bit-identical.
  apply_overload(now_us);

  // Cached pre-pass: streams whose next frame(s) extend a memoized
  // trajectory are served here without model compute, freeing the batch
  // below for streams that actually need step_batch. With the cache off
  // (the default) this is one null check.
  double audio_seconds = 0.0;
  const std::size_t cached =
      cache_ != nullptr ? serve_cached(audio_seconds) : 0;

  active_.clear();
  if (config_.scheduler == SchedulerPolicy::kRoundRobin) {
    // Gather one ready frame per session, round-robin so no stream
    // starves when more than max_batch are ready. (Bit-identical to the
    // historical scheduler; lag accounting below never reorders it.)
    for (std::size_t i = 0; i < count && active_.size() < config_.max_batch;
         ++i) {
      StreamingSession& candidate = *sessions_[(round_robin_ + i) % count];
      if (candidate.frame_ready()) active_.push_back(&candidate);
    }
    round_robin_ = (round_robin_ + 1) % count;
  } else {
    gather_by_priority();
  }
  account_lag(now_us);
  if (active_.empty() && cached == 0) return 0;

  obs::Telemetry* telemetry = config_.telemetry;
  obs::TraceCollector* trace =
      telemetry != nullptr ? &telemetry->trace() : nullptr;

  // Grow-only reuse: the ready count fluctuates step to step as streams
  // finish, so only ever enlarge; step_batch reads just the first rows.
  const std::size_t batch = active_.size();
  if (batch > 0) {
    if (batch_features_.rows() < batch) {
      batch_features_ = Matrix(batch, model_.config().input_dim);
      batch_logits_ = Matrix(batch, model_.config().num_classes);
    }

    states_.resize(batch);
    {
      // Panel row b is active_[b]: the scheduler's gather order (round-
      // robin scan or priority order) is the fused step's pinned stream
      // order, so fp32 results are reproducible run to run — the fused
      // kernels additionally keep each stream bit-identical regardless
      // of which peers share its panel.
      RT_SPAN(trace, kGather, obs::kNoStream);
      for (std::size_t b = 0; b < batch; ++b) {
        const std::span<const float> frame = active_[b]->front_frame();
        std::copy(frame.begin(), frame.end(),
                  batch_features_.row(b).begin());
        states_[b] = &active_[b]->state();
      }
    }

    {
      RT_SPAN(trace, kLayerStep, obs::kNoStream);
      const StepResult result =
          model_.step_batch(batch_features_, states_, batch_logits_);
      stats_.fused_steps += 1;
      stats_.fused_width.record(static_cast<double>(result.width));
      if (telemetry != nullptr) {
        telemetry->engine().fused_steps->add(1);
        telemetry->engine().fused_batch_width->observe(
            static_cast<double>(result.width));
      }
    }

    for (std::size_t b = 0; b < batch; ++b) {
      RT_SPAN(trace, kDecode, active_[b]->id());
      // Advance the prefix chain over the frame being consumed before it
      // is popped; the cursor then names the trajectory this row extends.
      if (cache_ != nullptr) {
        active_[b]->prefix_cursor().advance(active_[b]->front_frame(),
                                            config_.cache.quant_scale);
      }
      active_[b]->append_logits(batch_logits_.row(b));
      active_[b]->pop_frame();
      audio_seconds += active_[b]->seconds_per_frame();
      if (cache_ != nullptr) {
        // Memoize this step so an identical prefix replays it: the row
        // plus the post-step hidden state the next frame resumes from.
        active_[b]->capture_state(cache_state_scratch_);
        const cache::PrefixCache::InsertResult inserted = cache_->insert(
            active_[b]->prefix_cursor(), batch_logits_.row(b),
            cache_state_scratch_);
        stats_.cache_misses += 1;
        stats_.cache_evictions += inserted.evicted;
        if (telemetry != nullptr) {
          telemetry->cache().misses->add(1);
          telemetry->cache().evictions->add(inserted.evicted);
          telemetry->cache().inserted_bytes->add(inserted.bytes_added);
        }
      }
    }
  }

  if (cache_ != nullptr) {
    stats_.cache_bytes = cache_->bytes();
    if (telemetry != nullptr) {
      telemetry->cache().resident_bytes->set(
          static_cast<double>(cache_->bytes()));
    }
  }

  const double elapsed_us = timer.elapsed_us();
  stats_.step_latency.record(elapsed_us);
  stats_.busy_us += elapsed_us;
  stats_.frames_processed += batch + cached;
  stats_.steps += 1;
  stats_.audio_seconds += audio_seconds;
  if (telemetry != nullptr) {
    // Mirrors of the stats_ updates just above, one for one, so a
    // /metrics scrape equals the StatsAggregator totals exactly.
    obs::EngineMetrics& m = telemetry->engine();
    m.step_latency_us->observe(elapsed_us);
    m.busy_us->add(elapsed_us);
    m.frames->add(batch + cached);
    m.steps->add(1);
    m.audio_seconds->add(audio_seconds);
  }
  return batch + cached;
}

std::size_t InferenceEngine::drain() {
  std::size_t total = 0;
  while (true) {
    const std::size_t advanced = step();
    if (advanced == 0) return total;
    total += advanced;
  }
}

std::unique_ptr<StreamingSession> InferenceEngine::release_session(
    std::size_t index) {
  RT_REQUIRE(index < sessions_.size(), "release_session: index out of range");
  std::unique_ptr<StreamingSession> released = std::move(sessions_[index]);
  sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(index));
  if (sessions_.empty()) {
    round_robin_ = 0;
  } else {
    // Erasing below the cursor shifts the sessions it was about to scan
    // one slot down; follow them so no stream loses its turn.
    if (index < round_robin_) --round_robin_;
    round_robin_ %= sessions_.size();
  }
  return released;
}

std::unique_ptr<StreamingSession> InferenceEngine::release_session(
    const StreamingSession* session) {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].get() == session) return release_session(i);
  }
  RT_REQUIRE(false, "release_session: session not owned by this engine");
  return nullptr;
}

StreamingSession& InferenceEngine::adopt_session(
    std::unique_ptr<StreamingSession> session) {
  RT_REQUIRE(session != nullptr, "adopt_session: null session");
  session->rebind(model_);
  session->set_clock(&clock());
  session->set_telemetry(config_.telemetry);
  sessions_.push_back(std::move(session));
  return *sessions_.back();
}

std::size_t InferenceEngine::pending_frames() const {
  std::size_t total = 0;
  for (const auto& session : sessions_) total += session->pending_frames();
  return total;
}

double InferenceEngine::max_lag_seconds() {
  const double now_us = clock().now_us();
  double max_wait_us = 0.0;
  for (const auto& session : sessions_) {
    if (!session->frame_ready()) continue;
    max_wait_us = std::max(max_wait_us, session->frame_wait_us(now_us));
  }
  return max_wait_us * 1e-6;
}

std::size_t InferenceEngine::remove_done() {
  const std::size_t before = sessions_.size();
  // Compact in place, counting removals below the cursor so it keeps
  // pointing at the same next session (erase_if + a blind clamp would
  // skip the streams that shifted under it).
  std::size_t erased_below_cursor = 0;
  std::size_t write = 0;
  for (std::size_t read = 0; read < sessions_.size(); ++read) {
    if (sessions_[read]->done()) {
      if (read < round_robin_) ++erased_below_cursor;
      continue;
    }
    if (write != read) sessions_[write] = std::move(sessions_[read]);
    ++write;
  }
  sessions_.resize(write);
  if (sessions_.empty()) {
    round_robin_ = 0;
  } else {
    round_robin_ = (round_robin_ - erased_below_cursor) % sessions_.size();
  }
  return before - sessions_.size();
}

}  // namespace rtmobile::runtime
