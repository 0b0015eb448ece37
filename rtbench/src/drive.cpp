#include "drive.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/wire_client.hpp"
#include "speech/streaming_decoder.hpp"

namespace rtbench {

using namespace rtmobile;

namespace {

constexpr std::size_t kFrameShift = 160;
constexpr std::size_t kFrameLength = 400;
/// Feature row t is final once base frame t + 4 exists (the delta and
/// delta-delta windows), so it has consumed audio up to that frame.
constexpr std::size_t kLookaheadFrames = 4;
/// Batch workloads leave this share of the run out of the metrics, so the
/// prefix cache and the engines' buffers are warm when measuring starts.
constexpr double kWarmShare = 0.2;
/// live_tcp measures from when the stream population has built up (one
/// mean utterance length) to when arrivals stop.
constexpr double kLiveWarmSeconds = 3.5;
/// Event-lag quantiles are taken per sub-window and reported as the
/// median over this many sub-windows, so a passing stall (of the host or
/// of the stack) moves one sub-window, not the run's figure.
constexpr std::size_t kLagWindows = 5;
constexpr double kRssPeriodSeconds = 0.25;
/// Streams still open this long after the window ends are failed.
constexpr double kDrainLimitSeconds = 30.0;
/// A refused open or a full ingress ring is retried for this long.
constexpr double kRetrySeconds = 1.0;
constexpr std::chrono::microseconds kPollWait{500};

std::size_t samples_per_chunk(double chunk_seconds) {
  return static_cast<std::size_t>(chunk_seconds * kSampleRate);
}

/// Index of the last audio sample an event that has consumed `frames`
/// logit rows depends on.
std::size_t last_sample(std::size_t frames, std::size_t total) {
  if (frames == 0) return 0;
  const std::size_t end =
      (frames - 1 + kLookaheadFrames) * kFrameShift + kFrameLength;
  return std::min(end, total) - 1;
}

/// The measurement window and the samples one generator thread collects.
struct Tally {
  bool live = false;
  double start = 0.0;  // absolute now_s() of the run's start
  double warm = 0.0;   // samples count from here
  double end = 0.0;    // ... to here
  std::vector<double> utt_ms, tcp_first_ms;
  // (at, ms): events by receipt time, finals by their stream's first audio.
  std::vector<std::pair<double, double>> lag_ms, tcp_lag_ms, final_ms;
  std::vector<double> send_late_ms;  // live: generator lateness
  std::size_t slo_hits = 0;
  std::size_t slo_total = 0;
  double decoded_seconds = 0.0;  // audio decoded inside the window
  double rss_peak_mb = 0.0;      // highest sampled resident set in it
  std::size_t rss_samples = 0;
  double next_rss_sample = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Served> served;
  bool tracing = false;
  DriveTrace calls;

  [[nodiscard]] bool in_window(double t) const { return t >= warm && t <= end; }
  /// Samples the resident set every kRssPeriodSeconds in the window.
  void sample_rss(double now) {
    if (!in_window(now) || now < next_rss_sample) return;
    rss_peak_mb = std::max(rss_peak_mb, current_rss_mb());
    ++rss_samples;
    next_rss_sample = now + kRssPeriodSeconds;
  }
  void fail(const std::string& why) {
    ++failed;
    ++slo_total;  // a failed operation misses the latency limit
    if (failures.size() < 8) failures.push_back(why);
  }
  void lag(bool tcp, double received, double due) {
    if (!in_window(received)) return;
    const double ms = (received - due) * 1e3;
    (tcp ? tcp_lag_ms : lag_ms).emplace_back(received, ms);
    ++slo_total;
    if (ms <= kSloMs) ++slo_hits;
  }
  void merge(Tally& other) {
    for (auto [dst, src] :
         {std::pair{&utt_ms, &other.utt_ms},
          {&tcp_first_ms, &other.tcp_first_ms},
          {&send_late_ms, &other.send_late_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    for (auto [dst, src] : {std::pair{&lag_ms, &other.lag_ms},
                            {&tcp_lag_ms, &other.tcp_lag_ms},
                            {&final_ms, &other.final_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    slo_hits += other.slo_hits;
    slo_total += other.slo_total;
    decoded_seconds += other.decoded_seconds;
    attempted += other.attempted;
    failed += other.failed;
    for (std::string& f : other.failures) {
      if (failures.size() < 8) failures.push_back(std::move(f));
    }
    for (Served& s : other.served) served.push_back(std::move(s));
    calls.merge(other.calls);
  }
};

/// Per-stream bookkeeping shared by the in-process and TCP paths: when
/// each chunk of audio was due (batch: when it was submitted), when the
/// finish was, and the transcript so far.
struct Timeline {
  const Utterance* utt = nullptr;
  const StreamPlan* plan = nullptr;
  std::size_t chunk = 0;  // samples per chunk
  std::vector<double> chunk_due;
  double finish_due = 0.0;
  double first_audio = 0.0;
  std::size_t frames_seen = 0;  // logit rows the events so far consumed
  std::vector<std::uint16_t> transcript;

  [[nodiscard]] std::size_t chunks() const {
    return (utt->wave.size() + chunk - 1) / chunk;
  }
  [[nodiscard]] std::span<const float> chunk_samples(std::size_t k) const {
    const std::size_t begin = k * chunk;
    const std::size_t len = std::min(chunk, utt->wave.size() - begin);
    return {utt->wave.data() + begin, len};
  }
  [[nodiscard]] double due_of(const speech::StreamEvent& event) const {
    if (event.is_final) return finish_due;
    const std::size_t sample = last_sample(event.frames, utt->wave.size());
    return chunk_due[std::min(sample / chunk, chunk_due.size() - 1)];
  }
  /// Planned real-time due times: chunk k is due when its last sample
  /// has been spoken, `arrival` seconds into the window.
  void plan_live(double arrival) {
    const std::size_t n = utt->wave.size();
    chunk_due.clear();
    for (std::size_t k = 0; k < chunks(); ++k) {
      chunk_due.push_back(arrival + static_cast<double>(std::min(
                                        n, (k + 1) * chunk)) /
                                        kSampleRate);
    }
    finish_due = chunk_due.back();
  }
};

/// Returns false when the event ends the stream badly (failure recorded).
bool absorb(Tally& tally, Timeline& tl, bool tcp,
            const speech::StreamEvent& event, double received) {
  if (event.kind != speech::StreamEventKind::kHypothesis) {
    tally.fail(std::string("stream event ") + speech::to_string(event.kind));
    return false;
  }
  tally.lag(tcp, received, tl.due_of(event));
  if (tally.in_window(received) && event.frames > tl.frames_seen) {
    tally.decoded_seconds +=
        static_cast<double>((event.frames - tl.frames_seen) * kFrameShift) /
        kSampleRate;
  }
  tl.frames_seen = std::max(tl.frames_seen, event.frames);
  tl.transcript.insert(tl.transcript.end(), event.stable.begin(),
                       event.stable.end());
  return true;
}

/// Retries `op` (a backpressured Recognizer call) until it succeeds or
/// `deadline` passes.
template <typename Op>
bool retry_until(double deadline, Op&& op) {
  while (!op()) {
    if (now_s() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// One ingress call (submit_audio / finish_stream): timed when tracing,
/// and counted as a refusal when backpressured.
template <typename Op>
bool ingress(Tally& tally, Op&& op) {
  if (!tally.tracing) return op();
  const double t = now_s();
  const bool ok = op();
  tally.calls.submit.add((now_s() - t) * 1e6);
  if (!ok) ++tally.calls.refusals;
  return ok;
}

/// Wire size of one frame the `append` call encodes.
template <typename Append>
std::size_t frame_bytes(Append&& append) {
  std::vector<std::uint8_t> buf;
  append(buf);
  return buf.size();
}

// ------------------------------------------------------------ in-process

struct LocalStream {
  serve::StreamHandle h;
  Timeline tl;
  std::size_t next_chunk = 0;
  bool finished = false;  // finish_stream accepted
};

/// Opens a stream for `plan`; returns false (failure recorded) if refused.
bool open_local(serve::ShardedEngine& engine, Tally& tally,
                const Inputs& inputs, const StreamPlan& plan,
                double chunk_seconds, LocalStream& out) {
  ++tally.attempted;
  out.tl.utt = &inputs.utterances[plan.utterance];
  out.tl.plan = &plan;
  out.tl.chunk = samples_per_chunk(chunk_seconds);
  serve::OpenResult opened;
  const bool ok = retry_until(now_s() + kRetrySeconds, [&] {
    opened = engine.try_open_stream(serve::StreamConfig{});
    return opened.status != serve::OpenStatus::kBackpressure;
  });
  if (!ok || !opened.ok()) {
    tally.fail(std::string("open refused: ") + serve::to_string(opened.status));
    return false;
  }
  out.h = opened.handle;
  return true;
}

/// Reads a finished in-process stream's results and closes it.
void complete_local(serve::ShardedEngine& engine, Tally& tally,
                    LocalStream& s, double final_at) {
  if (s.tl.plan->checked) {
    // The final event can reach the mailbox before the pump marks the
    // stream done; stream_logits needs the latter.
    if (retry_until(now_s() + kRetrySeconds,
                    [&] { return engine.stream_done(s.h); })) {
      tally.served.push_back({s.tl.plan->utterance, false,
                              std::move(s.tl.transcript),
                              engine.stream_logits(s.h)});
    } else {
      tally.fail("stream not done after its final event");
    }
  }
  ++tally.attempted;
  if (!retry_until(now_s() + kRetrySeconds,
                   [&] { return engine.close_stream(s.h); })) {
    tally.fail("close backpressured");
  }
  // Live streams count by arrival; batch streams must also finish before
  // the window ends, after which no new streams open and the load drops.
  if (tally.in_window(s.tl.first_audio) &&
      (tally.live || final_at <= tally.end)) {
    tally.utt_ms.push_back((final_at - s.tl.first_audio) * 1e3);
    tally.final_ms.emplace_back(s.tl.first_audio,
                                (final_at - s.tl.finish_due) * 1e3);
  }
}

/// Polls every active stream; completes (and removes) the finished ones.
void poll_local(serve::ShardedEngine& engine, Tally& tally,
                std::vector<LocalStream>& active,
                std::vector<speech::StreamEvent>& events) {
  const double received = now_s();
  tally.sample_rss(received);
  for (std::size_t i = 0; i < active.size();) {
    LocalStream& s = active[i];
    events.clear();
    if (tally.tracing) {
      const double t = now_s();
      engine.poll_events(s.h, events);
      tally.calls.poll.add((now_s() - t) * 1e6);
    } else {
      engine.poll_events(s.h, events);
    }
    bool done = false;
    bool ok = true;
    for (const speech::StreamEvent& event : events) {
      ok = absorb(tally, s.tl, false, event, received) && ok;
      done = done || event.is_final;
    }
    if (!ok) {
      static_cast<void>(engine.close_stream(s.h));
      done = true;
    } else if (done) {
      complete_local(engine, tally, s, received);
    }
    if (done) {
      active[i] = std::move(active.back());
      active.pop_back();
    } else {
      ++i;
    }
  }
}

/// Closed loop: keeps `in_flight` in-process streams open, each
/// submitting all its audio back to back, until the window ends; then
/// waits for the streams in flight. Returns false if `plans` ran out
/// first.
bool closed_loop_local(serve::ShardedEngine& engine, Tally& tally,
                       const Inputs& inputs,
                       const std::vector<StreamPlan>& plans,
                       std::size_t in_flight) {
  std::vector<LocalStream> active;
  std::vector<speech::StreamEvent> events;
  std::size_t next = 0;
  for (;;) {
    const double now = now_s();
    if (now < tally.end) {
      while (active.size() < in_flight && next < plans.size()) {
        LocalStream s;
        if (!open_local(engine, tally, inputs, plans[next++],
                        kBatchChunkSeconds, s)) {
          continue;
        }
        s.tl.first_audio = now_s();
        bool ok = true;
        for (std::size_t k = 0; k < s.tl.chunks() && ok; ++k) {
          ++tally.attempted;
          ok = retry_until(now_s() + kRetrySeconds, [&] {
            return ingress(tally, [&] {
              return engine.submit_audio(s.h, s.tl.chunk_samples(k));
            });
          });
          s.tl.chunk_due.push_back(now_s());
        }
        ++tally.attempted;
        ok = ok && retry_until(now_s() + kRetrySeconds, [&] {
                return ingress(tally, [&] { return engine.finish_stream(s.h); });
              });
        s.tl.finish_due = now_s();
        if (!ok) {
          tally.fail("submit backpressured past its retry limit");
          static_cast<void>(engine.close_stream(s.h));
          continue;
        }
        active.push_back(std::move(s));
      }
      if (next == plans.size() && active.empty()) return false;
    } else if (active.empty()) {
      return true;
    } else if (now > tally.end + kDrainLimitSeconds) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        tally.fail("stream never finished");
      }
      return true;
    }
    engine.wait_for_events(kPollWait);
    poll_local(engine, tally, active, events);
  }
}

// ------------------------------------------------------------------- TCP

/// Reads one TCP stream's events until its final; false on failure.
bool read_tcp(net::WireClient& client, Tally& tally, Timeline& tl,
              const std::atomic<double>& first_write, double* final_at) {
  bool first = true;
  for (;;) {
    std::optional<net::ServerMessage> message = client.read_message();
    const double received = now_s();
    if (!message) {
      tally.fail("server closed a TCP stream early");
      return false;
    }
    if (message->type == net::FrameType::kError) {
      tally.fail(std::string("TCP error: ") + net::to_string(message->error));
      return false;
    }
    if (message->type == net::FrameType::kOpened) continue;
    if (tally.tracing) {
      tally.calls.bytes_in += frame_bytes([&](std::vector<std::uint8_t>& b) {
        net::append_event(b, message->event);
      });
    }
    if (!absorb(tally, tl, true, message->event, received)) return false;
    if (first) {
      first = false;
      if (tally.in_window(received)) {
        tally.tcp_first_ms.push_back(
            (received - first_write.load(std::memory_order_acquire)) * 1e3);
      }
    }
    if (message->event.is_final) {
      *final_at = received;
      return true;
    }
  }
}

/// WireClient::send_audio, timed and its bytes counted when tracing.
void send_audio(net::WireClient& client, Tally& tally,
                std::span<const float> samples) {
  if (!tally.tracing) {
    client.send_audio(samples);
    return;
  }
  const double t = now_s();
  client.send_audio(samples);
  tally.calls.send.add((now_s() - t) * 1e6);
  tally.calls.bytes_out += frame_bytes(
      [&](std::vector<std::uint8_t>& b) { net::append_audio(b, samples); });
}

/// Wire bytes of the control frames one TCP stream exchanges besides
/// audio and events: OPEN, OPENED, FINISH and CLOSE.
std::size_t control_bytes() {
  return frame_bytes([](std::vector<std::uint8_t>& b) {
    net::append_open(b, net::OpenRequest{});
    net::append_opened(b, 0);
    net::append_finish(b);
    net::append_close(b);
  });
}

/// Connects and opens one TCP stream; false on failure (recorded).
bool open_tcp(net::WireClient& client, Tally& tally, std::uint16_t port) {
  ++tally.attempted;
  if (tally.tracing) tally.calls.bytes_out += control_bytes();
  try {
    client.connect("127.0.0.1", port);
    net::WireError error = net::WireError::kProtocol;
    if (!client.open(net::OpenRequest{}, &error)) {
      tally.fail(std::string("TCP open refused: ") + net::to_string(error));
      return false;
    }
  } catch (const std::exception& e) {
    tally.fail(std::string("TCP open: ") + e.what());
    return false;
  }
  return true;
}

void finish_tcp_stream(Tally& tally, Timeline& tl) {
  if (tl.plan->checked) {
    tally.served.push_back(
        {tl.plan->utterance, true, std::move(tl.transcript), Matrix{}});
  }
}

/// Serves one stream over a TCP connection of its own, alone: all its
/// audio back to back in 1 s chunks, then reads to its final (recording
/// finish sent -> final read).
void serve_tcp(std::uint16_t port, Tally& tally, const Inputs& inputs,
               const StreamPlan& plan) {
  net::WireClient client;
  if (!open_tcp(client, tally, port)) return;
  Timeline tl;
  tl.utt = &inputs.utterances[plan.utterance];
  tl.plan = &plan;
  tl.chunk = samples_per_chunk(kBatchChunkSeconds);
  std::atomic<double> first_write{now_s()};
  double final_at = 0.0;
  try {
    tl.first_audio = first_write.load();
    for (std::size_t k = 0; k < tl.chunks(); ++k) {
      ++tally.attempted;
      send_audio(client, tally, tl.chunk_samples(k));
      tl.chunk_due.push_back(now_s());
    }
    ++tally.attempted;
    client.send_finish();
    tl.finish_due = now_s();
    if (read_tcp(client, tally, tl, first_write, &final_at)) {
      tally.final_ms.emplace_back(tl.first_audio,
                                  (final_at - tl.finish_due) * 1e3);
    }
    client.send_close();
  } catch (const std::exception& e) {
    tally.fail(std::string("TCP stream: ") + e.what());
  }
}

// ------------------------------------------------------------------ live

/// A live TCP stream handed from its slot thread (which opened it and
/// reads it) to the main thread (which sends its audio on time).
struct TcpLive {
  net::WireClient client;
  Timeline tl;
  std::size_t next_chunk = 0;
  std::atomic<double> first_write{0.0};
  std::atomic<bool> abandon{false};       // reader saw the stream fail
  std::atomic<bool> sending_done{false};  // main thread let go of it
};

struct TcpHandoff {
  std::mutex mutex;
  std::vector<TcpLive*> ready;  // guarded by mutex
  std::size_t refused = 0;      // streams whose open failed; by mutex
};

void live_tcp_slot(std::uint16_t port, Tally& tally, const Inputs& inputs,
                   const std::vector<StreamPlan>& plans, TcpHandoff& handoff) {
  for (const StreamPlan& plan : plans) {
    const double arrival = tally.start + plan.arrival_s;
    while (now_s() < arrival) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(0.001, arrival - now_s())));
    }
    auto stream = std::make_unique<TcpLive>();
    if (!open_tcp(stream->client, tally, port)) {
      const std::lock_guard lock(handoff.mutex);
      ++handoff.refused;
      continue;
    }
    stream->tl.utt = &inputs.utterances[plan.utterance];
    stream->tl.plan = &plan;
    stream->tl.chunk = samples_per_chunk(kLiveChunkSeconds);
    stream->tl.plan_live(arrival);
    stream->tl.first_audio = stream->tl.chunk_due.front();
    stream->first_write.store(stream->tl.chunk_due.front());
    {
      const std::lock_guard lock(handoff.mutex);
      handoff.ready.push_back(stream.get());
    }
    double final_at = 0.0;
    bool ok = false;
    try {
      ok = read_tcp(stream->client, tally, stream->tl, stream->first_write,
                    &final_at);
    } catch (const std::exception& e) {
      tally.fail(std::string("TCP read: ") + e.what());
    }
    stream->abandon.store(true, std::memory_order_release);
    while (!stream->sending_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (ok) finish_tcp_stream(tally, stream->tl);
    try {
      stream->client.send_close();
    } catch (const std::exception&) {
      // The server already dropped the connection; nothing to release.
    }
  }
}

/// Sends a live TCP stream's due chunks; true once it needs no more
/// sends (the main thread must not touch it afterwards).
bool pump_tcp(TcpLive& s, Tally& tally, double now) {
  const bool reader_done = s.abandon.load(std::memory_order_acquire);
  try {
    while (!reader_done && s.next_chunk < s.tl.chunks() &&
           s.tl.chunk_due[s.next_chunk] <= now) {
      ++tally.attempted;
      if (s.next_chunk == 0) {
        s.first_write.store(now_s(), std::memory_order_release);
      }
      tally.send_late_ms.push_back((now_s() - s.tl.chunk_due[s.next_chunk]) *
                                   1e3);
      send_audio(s.client, tally, s.tl.chunk_samples(s.next_chunk));
      if (++s.next_chunk == s.tl.chunks()) {
        ++tally.attempted;
        s.client.send_finish();
      }
    }
  } catch (const std::exception& e) {
    tally.fail(std::string("TCP send: ") + e.what());
    s.next_chunk = s.tl.chunks();
  }
  if (reader_done || s.next_chunk == s.tl.chunks()) {
    s.sending_done.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

/// Submits a live in-process stream's due chunks (and its finish). A
/// chunk still refused when the next one falls due has missed its
/// deadline: the stream fails. Returns false when the stream failed.
bool pump_local(serve::ShardedEngine& engine, Tally& tally, LocalStream& s,
                double now) {
  const std::size_t n = s.tl.chunks();
  while (s.next_chunk < n && s.tl.chunk_due[s.next_chunk] <= now) {
    const double deadline = s.tl.chunk_due[s.next_chunk] + kLiveChunkSeconds;
    if (!ingress(tally, [&] {
          return engine.submit_audio(s.h, s.tl.chunk_samples(s.next_chunk));
        })) {
      if (now <= deadline) return true;  // retry next iteration
      ++tally.attempted;
      tally.fail("live chunk backpressured past its deadline");
      return false;
    }
    ++tally.attempted;
    if (s.next_chunk == 0) s.tl.first_audio = now_s();
    tally.send_late_ms.push_back((now_s() - s.tl.chunk_due[s.next_chunk]) *
                                 1e3);
    ++s.next_chunk;
  }
  if (s.next_chunk == n && !s.finished) {
    if (!ingress(tally, [&] { return engine.finish_stream(s.h); })) {
      if (now <= s.tl.finish_due + kLiveChunkSeconds) return true;
      ++tally.attempted;
      tally.fail("live finish backpressured past its deadline");
      return false;
    }
    ++tally.attempted;
    s.finished = true;
  }
  return true;
}

void live_loop(Stack& stack, Tally& tally, const Inputs& inputs,
               TcpHandoff& handoff, std::size_t tcp_total) {
  serve::ShardedEngine& engine = stack.engine();
  std::vector<LocalStream> active;
  std::vector<TcpLive*> tcp_active;
  std::vector<speech::StreamEvent> events;
  std::size_t next = 0;
  std::size_t tcp_taken = 0;
  for (;;) {
    const double now = now_s();
    while (next < inputs.streams.size() &&
           tally.start + inputs.streams[next].arrival_s <= now) {
      const StreamPlan& plan = inputs.streams[next++];
      LocalStream s;
      if (!open_local(engine, tally, inputs, plan, kLiveChunkSeconds, s)) {
        continue;
      }
      s.tl.plan_live(tally.start + plan.arrival_s);
      active.push_back(std::move(s));
    }
    {
      const std::lock_guard lock(handoff.mutex);
      tcp_taken += handoff.ready.size() + handoff.refused;
      handoff.refused = 0;
      tcp_active.insert(tcp_active.end(), handoff.ready.begin(),
                        handoff.ready.end());
      handoff.ready.clear();
    }
    for (std::size_t i = 0; i < tcp_active.size();) {
      if (pump_tcp(*tcp_active[i], tally, now)) {
        tcp_active[i] = tcp_active.back();
        tcp_active.pop_back();
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < active.size();) {
      if (pump_local(engine, tally, active[i], now)) {
        ++i;
      } else {
        static_cast<void>(engine.close_stream(active[i].h));
        active[i] = std::move(active.back());
        active.pop_back();
      }
    }
    const bool arrivals_done =
        next == inputs.streams.size() && tcp_taken >= tcp_total;
    if (arrivals_done && active.empty() && tcp_active.empty()) return;
    if (now > tally.end + kDrainLimitSeconds) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        tally.fail("stream never finished");
      }
      const std::lock_guard lock(handoff.mutex);
      tcp_active.insert(tcp_active.end(), handoff.ready.begin(),
                        handoff.ready.end());
      handoff.ready.clear();
      for (TcpLive* s : tcp_active) s->sending_done.store(true);
      return;
    }
    // Sleep until the next due chunk or arrival, waking early for events.
    double wake = now + 0.002;
    if (next < inputs.streams.size()) {
      wake = std::min(wake, tally.start + inputs.streams[next].arrival_s);
    }
    for (const LocalStream& s : active) {
      if (s.next_chunk < s.tl.chunks()) {
        wake = std::min(wake, s.tl.chunk_due[s.next_chunk]);
      }
    }
    for (const TcpLive* s : tcp_active) {
      wake = std::min(wake, s->tl.chunk_due[s->next_chunk]);
    }
    const double wait = wake - now_s();
    if (wait > 0) {
      engine.wait_for_events(std::chrono::microseconds(
          static_cast<std::int64_t>(wait * 1e6) + 1));
    }
    poll_local(engine, tally, active, events);
  }
}

}  // namespace

void DriveTrace::merge(const DriveTrace& other) {
  submit.merge(other.submit);
  poll.merge(other.poll);
  send.merge(other.send);
  refusals += other.refusals;
  bytes_out += other.bytes_out;
  bytes_in += other.bytes_in;
}

std::vector<Served> run_workload(Stack& stack, const Inputs& inputs,
                                 double seconds, Result& result,
                                 DriveTrace* trace) {
  const bool live = inputs.workload == Workload::kLiveTcp;
  Tally main;
  main.tracing = trace != nullptr;
  main.live = live;
  main.start = now_s();
  if (live) {
    const double arrivals = live_arrival_window(seconds);
    main.warm = main.start + std::min(kLiveWarmSeconds, arrivals / 4.0);
    main.end = main.start + arrivals;
  } else {
    main.warm = main.start + kWarmShare * seconds;
    main.end = main.start + seconds;
  }
  // live_tcp only: one reader thread per TCP slot.
  std::vector<Tally> tcp(inputs.tcp.size(), main);
  std::vector<std::thread> threads;
  TcpHandoff handoff;
  std::size_t tcp_total = 0;
  for (std::size_t slot = 0; slot < inputs.tcp.size(); ++slot) {
    tcp_total += inputs.tcp[slot].size();
    threads.emplace_back([&, slot] {
      try {
        live_tcp_slot(stack.port(), tcp[slot], inputs, inputs.tcp[slot],
                      handoff);
      } catch (const std::exception& e) {
        tcp[slot].fail(std::string("TCP slot: ") + e.what());
      }
    });
  }
  try {
    if (live) {
      live_loop(stack, main, inputs, handoff, tcp_total);
    } else if (!closed_loop_local(stack.engine(), main, inputs,
                                  inputs.streams, kInFlight)) {
      main.fail("workload inputs exhausted before the window ended");
    }
  } catch (...) {
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  for (Tally& t : tcp) main.merge(t);

  result.set("xrt", main.decoded_seconds / (main.end - main.warm), "s/s",
             main.lag_ms.size() + main.tcp_lag_ms.size());
  result.set_latency("utt_ms", main.utt_ms, 0.9, "p90");
  const auto windowed = [&](const std::string& name,
                            const std::vector<std::pair<double, double>>& ms,
                            double q) {
    result.set(name, windowed_quantile(ms, main.warm, main.end, kLagWindows, q),
               "ms", ms.size());
  };
  windowed("final_ms_p50", main.final_ms, 0.5);
  windowed("final_ms_p90", main.final_ms, 0.9);
  for (const auto& [q, suffix] :
       {std::pair{0.5, "_p50"}, {0.9, "_p90"}, {0.99, "_p99"}}) {
    windowed(std::string("event_lag_ms") + suffix, main.lag_ms, q);
    if (live) windowed(std::string("tcp_event_lag_ms") + suffix, main.tcp_lag_ms, q);
  }
  if (live) {
    result.set_latency("tcp_first_partial_ms", main.tcp_first_ms, 0.9, "p90");
  }
  result.set("peak_rss_mb", main.rss_peak_mb, "MB", main.rss_samples);
  result.set("lag_slo_share",
             main.slo_total > 0 ? static_cast<double>(main.slo_hits) /
                                      static_cast<double>(main.slo_total)
                                : 0.0,
             "share", main.slo_total);
  if (!main.send_late_ms.empty()) {
    result.notes["generator_late_ms_p99"] =
        std::to_string(quantile(main.send_late_ms, 0.99));
  }
  result.attempted += main.attempted;
  result.failed += main.failed;
  for (std::string& f : main.failures) result.failures.push_back(std::move(f));
  if (trace != nullptr) trace->merge(main.calls);
  return std::move(main.served);
}

TcpProbe probe_tcp(Stack& stack, const Inputs& inputs, std::size_t count,
                   Result& result, DriveTrace& trace) {
  // Both paths serve clips cut from inside the workload's utterances at
  // offsets no stream starts at, so none of their frames are in the
  // prefix cache and both paths do the same work.
  constexpr std::size_t kLocalOffset = 3001;
  constexpr std::size_t kTcpOffset = 5003;
  constexpr std::size_t kClipSamples = 1600;  // one live chunk, 100 ms
  Inputs clips;
  std::vector<StreamPlan> tcp_plans;
  for (std::size_t i = 0; i < std::min(count, inputs.streams.size()); ++i) {
    const std::vector<float>& wave =
        inputs.utterances[inputs.streams[i].utterance].wave;
    for (const std::size_t offset : {kLocalOffset, kTcpOffset}) {
      const auto begin = wave.begin() + static_cast<std::ptrdiff_t>(offset);
      clips.utterances.push_back(
          {std::vector<float>(begin, begin + kClipSamples)});
    }
    clips.streams.push_back({2 * i, false, 0.0});
    tcp_plans.push_back({2 * i + 1, false, 0.0});
  }
  Tally local;
  Tally tcp;
  for (Tally* t : {&local, &tcp}) {
    t->start = t->warm = now_s();
    t->end = std::numeric_limits<double>::infinity();
  }
  tcp.tracing = true;
  // Alternate the paths, so a drift of the host's speed hits both.
  for (std::size_t i = 0; i < tcp_plans.size(); ++i) {
    const std::vector<StreamPlan> one{clips.streams[i]};
    // Returns once `one` is served, which is the point here.
    closed_loop_local(stack.engine(), local, clips, one, 1);
    serve_tcp(stack.port(), tcp, clips, tcp_plans[i]);
  }
  TcpProbe probe;
  const auto median = [](const std::vector<std::pair<double, double>>& ms) {
    std::vector<double> values;
    for (const auto& [at, v] : ms) values.push_back(v);
    return quantile(std::move(values), 0.5);
  };
  probe.local_final_ms = median(local.final_ms);
  probe.tcp_final_ms = median(tcp.final_ms);
  probe.clips = tcp.final_ms.size();
  for (Tally* t : {&local, &tcp}) {
    result.attempted += t->attempted;
    result.failed += t->failed;
    for (std::string& f : t->failures) result.failures.push_back(std::move(f));
  }
  trace.merge(tcp.calls);
  return probe;
}

std::vector<Served> serve_each(Stack& stack, const Inputs& inputs,
                               const std::vector<std::size_t>& which,
                               Result& result) {
  std::vector<StreamPlan> plans;
  for (const std::size_t u : which) plans.push_back({u, true, 0.0});
  Tally tally;
  tally.start = tally.warm = now_s();
  tally.end = tally.start + kDrainLimitSeconds;
  // Runs until `plans` is used up, which is the point here.
  closed_loop_local(stack.engine(), tally, inputs, plans, kInFlight);
  result.attempted += tally.attempted;
  result.failed += tally.failed;
  for (std::string& f : tally.failures) result.failures.push_back(f);
  return std::move(tally.served);
}

}  // namespace rtbench
