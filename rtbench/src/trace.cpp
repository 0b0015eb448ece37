#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "compiler/gru_executor.hpp"
#include "drive.hpp"
#include "net/wire_protocol.hpp"
#include "runtime/inference_engine.hpp"
#include "serve/local_recognizer.hpp"
#include "speech/mfcc.hpp"
#include "speech/streaming_decoder.hpp"
#include "util/rng.hpp"

namespace rtbench {

using namespace rtmobile;

namespace {

/// Step B's first untimed pass runs for this share of --seconds; the
/// timed pass and a second untimed pass then run as many rounds (step A
/// gets kTracedWindowShare). Step C's replays each get kReplaySeconds.
constexpr double kShareB = 0.13;
constexpr double kReplaySeconds = 0.4;
/// Step B keeps the logits and events of its first this-many streams for
/// the decoder and wire-codec replays.
constexpr std::size_t kKeptStreams = 4;
constexpr std::size_t kTriadFloats = 8U << 20;  // 32 MB per array
/// Step B's live replay cuts each 100 ms chunk period into this many
/// phases; a stream sends its chunks in the phase its arrival fell in.
constexpr std::size_t kLivePhases = 10;
/// Traced batch runs serve this many clips each way in the TCP probe.
constexpr std::size_t kProbeStreams = 16;
/// Step B's mean step width must lie within this factor of the stack's
/// (step A's), or B does not describe the workload it is attributed to.
constexpr double kWidthTolerance = 2.0;

double us_since(double t) { return (now_s() - t) * 1e6; }

// ------------------------------------------------------------- step B

/// Feature rows of the first utterances of `inputs`, at least `rows`.
Matrix feature_rows(const Inputs& inputs, std::size_t rows) {
  const speech::MfccExtractor extractor(runtime::EngineConfig{}.mfcc);
  std::vector<Matrix> parts;
  std::size_t total = 0;
  for (std::size_t i = 0; total < rows && i < inputs.utterances.size(); ++i) {
    parts.push_back(extractor.extract(inputs.utterances[i].wave));
    total += parts.back().rows();
  }
  Matrix out(total, parts.front().cols());
  std::size_t r = 0;
  for (const Matrix& m : parts) {
    std::copy(m.data(), m.data() + m.size(), out.data() + r * out.cols());
    r += m.rows();
  }
  return out;
}

/// Direct CompiledSpeechModel::step_batch calls on real feature rows and
/// streams of its own, made right after each engine step at that step's
/// width, so the kernel time is measured under the same conditions as
/// the step it is attributed to.
class StepReplayer {
 public:
  StepReplayer(const CompiledSpeechModel& model, const Matrix& features,
               std::size_t widest)
      : model_(model),
        features_(features),
        states_(widest, model.make_state()),
        panel_(widest, features.cols()),
        logits_(widest, model.config().num_classes) {
    for (StreamState& st : states_) ptrs_.push_back(&st);
  }

  void step(std::size_t width) {
    for (std::size_t b = 0; b < width; ++b) {
      std::copy_n(features_.data() + row_ * features_.cols(), features_.cols(),
                  panel_.data() + b * panel_.cols());
      row_ = (row_ + 1) % features_.rows();
    }
    const double t = now_s();
    const StepResult r = model_.step_batch(
        panel_, std::span<StreamState* const>(ptrs_.data(), width), logits_);
    time.add(us_since(t));
    frames += width;
    if (r.fused) ++fused;
  }

  CallStat time;
  std::size_t frames = 0;
  std::size_t fused = 0;

 private:
  const CompiledSpeechModel& model_;
  const Matrix& features_;
  std::vector<StreamState> states_;
  std::vector<StreamState*> ptrs_;
  Matrix panel_;
  Matrix logits_;
  std::size_t row_ = 0;
};

/// What the timed passes of step B record.
struct ReplayTrace {
  CallStat open, submit, step, poll, close;
  runtime::RuntimeStats stats;              // the engines' counters
  std::vector<Matrix> logits;               // of the first streams
  std::vector<speech::StreamEvent> events;  // of the same streams
};

/// Times `f` into `stat` when `timed`.
template <typename F>
auto call(bool timed, CallStat& stat, F&& f) {
  if (!timed) return f();
  const double t = now_s();
  auto r = f();
  stat.add(us_since(t));
  return r;
}

struct ReplayStream {
  serve::StreamHandle h;
  const Utterance* utt = nullptr;
  std::size_t next_chunk = 0;
  std::size_t phase = 0;  // live: when in each period its chunks are sent
  bool keep = false;
};

struct Pass {
  std::size_t rounds = 0;
  std::size_t opened = 0;
  double wall_s = 0.0;
};

/// One pass of one shard's share of the workload through a caller-driven
/// LocalRecognizer, in virtual time: batch streams submit all their audio
/// at open, and each round is one step. A live round is one 100 ms chunk
/// period cut into kLivePhases phases: each stream submits its next chunk
/// in the phase its arrival time falls in, and the caller steps until the
/// engine is idle after each phase, so steps are as narrow as the stack's
/// under live_tcp. Finished streams are replaced at once, so the load
/// stays level.
/// Runs `max_rounds` rounds or until `seconds` pass; the replay is
/// deterministic, so equal round counts do equal work. With `trace`
/// set, every call is timed into it and `replayer` repeats each step;
/// the pass's wall time then excludes the replayer's calls.
Pass replay_pass(const CompiledSpeechModel& model, const Inputs& inputs,
                 std::size_t max_rounds, double seconds, ReplayTrace* trace,
                 StepReplayer* replayer) {
  const bool live = inputs.workload == Workload::kLiveTcp;
  const bool timed = trace != nullptr;
  const std::size_t chunk = static_cast<std::size_t>(
      (live ? kLiveChunkSeconds : kBatchChunkSeconds) * kSampleRate);
  const std::size_t in_flight =
      live ? static_cast<std::size_t>(std::lround(kLiveOfferedXrt / kShards))
           : kInFlight / kShards;
  serve::LocalRecognizer rec(model, shard_config().engine);
  ReplayTrace scratch;
  ReplayTrace& tr = timed ? *trace : scratch;
  const bool keep_streams = timed && tr.logits.empty();
  Pass out;
  std::vector<ReplayStream> active;
  std::vector<speech::StreamEvent> events;
  const double replayed_before = replayer ? replayer->time.us : 0.0;
  const double start = now_s();

  const auto submit = [&](ReplayStream& s) {
    const std::size_t n = s.utt->wave.size();
    const std::size_t begin = s.next_chunk * chunk;
    const std::span<const float> samples(s.utt->wave.data() + begin,
                                         std::min(chunk, n - begin));
    static_cast<void>(call(timed, tr.submit,
                           [&] { return rec.submit_audio(s.h, samples); }));
    if (++s.next_chunk * chunk >= n) {
      static_cast<void>(
          call(timed, tr.submit, [&] { return rec.finish_stream(s.h); }));
    }
  };
  const auto poll_all = [&] {
    for (std::size_t i = 0; i < active.size();) {
      ReplayStream& s = active[i];
      events.clear();
      call(timed, tr.poll, [&] { return rec.poll_events(s.h, events); });
      const bool done = std::any_of(events.begin(), events.end(),
                                    [](const auto& e) { return e.is_final; });
      if (s.keep) tr.events.insert(tr.events.end(), events.begin(), events.end());
      if (!done) {
        ++i;
        continue;
      }
      if (s.keep) tr.logits.push_back(rec.stream_logits(s.h));
      static_cast<void>(
          call(timed, tr.close, [&] { return rec.close_stream(s.h); }));
      active[i] = active.back();
      active.pop_back();
    }
  };
  const auto step = [&] {
    const runtime::RuntimeStats& st = rec.engine().stats();
    const std::size_t computed = st.frames_processed - st.cache_hits;
    const std::size_t dispatches = st.fused_steps + st.fallback_steps;
    const std::size_t advanced =
        call(timed, tr.step, [&] { return rec.step(); });
    if (replayer != nullptr &&
        st.fused_steps + st.fallback_steps > dispatches) {
      replayer->step(st.frames_processed - st.cache_hits - computed);
    }
    return advanced;
  };

  for (; out.rounds < max_rounds && now_s() - start < seconds; ++out.rounds) {
    while (active.size() < in_flight && out.opened < inputs.streams.size()) {
      const StreamPlan& plan = inputs.streams[out.opened];
      ReplayStream s;
      s.utt = &inputs.utterances[plan.utterance];
      const double period = plan.arrival_s / kLiveChunkSeconds;
      s.phase = static_cast<std::size_t>((period - std::floor(period)) *
                                         static_cast<double>(kLivePhases)) %
                kLivePhases;
      s.keep = keep_streams && out.opened < kKeptStreams;
      s.h = call(timed, tr.open, [&] { return rec.open_stream(); });
      ++out.opened;
      if (!live) {
        while (s.next_chunk * chunk < s.utt->wave.size()) submit(s);
      }
      active.push_back(s);
    }
    if (active.empty()) break;
    if (live) {
      for (std::size_t phase = 0; phase < kLivePhases; ++phase) {
        bool sent = false;
        for (ReplayStream& s : active) {
          if (s.phase == phase && s.next_chunk * chunk < s.utt->wave.size()) {
            submit(s);
            sent = true;
          }
        }
        if (!sent) continue;
        while (step() > 0) poll_all();
        poll_all();
      }
    } else {
      step();
      poll_all();
    }
  }
  for (const ReplayStream& s : active) {
    if (s.keep) tr.logits.push_back(rec.stream_logits(s.h));  // so far
  }
  const double replayed =
      replayer ? (replayer->time.us - replayed_before) * 1e-6 : 0.0;
  out.wall_s = now_s() - start - replayed;
  if (timed) tr.stats.merge_from(rec.engine().stats());
  return out;
}

/// Times each compiled plan's execute_batch at `width` streams and reports
/// its bytes from LayerPlan::memory_bytes() (computed, not measured).
void replay_plans(const Stack& stack, std::size_t width, Result& result) {
  const CompilerOptions options = compiler_options();
  const SpeechModel& model = stack.model();
  std::vector<std::pair<std::string, LayerPlan>> plans;
  for (std::size_t l = 0; l < model.config().num_layers; ++l) {
    const GruParams& p = model.layer(l);
    const std::string prefix = "gru" + std::to_string(l) + ".";
    for (const auto& [name, w] :
         {std::pair{"w_z", &p.w_z}, {"w_r", &p.w_r}, {"w_h", &p.w_h},
          {"u_z", &p.u_z}, {"u_r", &p.u_r}, {"u_h", &p.u_h}}) {
      plans.emplace_back(prefix + name,
                         LayerPlan::compile(*w, &stack.masks().at(prefix + name),
                                            options));
    }
  }
  // The classifier has no mask: the compiled model builds it dense.
  CompilerOptions dense = options;
  dense.format = SparseFormat::kDense;
  plans.emplace_back("fc", LayerPlan::compile(model.fc_weight(), nullptr, dense));

  Rng rng(7);
  for (const auto& [name, plan] : plans) {
    Matrix x(width, plan.cols());
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(-1, 1);
    Matrix y(width, plan.rows());
    LreScratch scratch;
    scratch.prepare(options.threads,
                    std::max(plan.lre_gather_floats(),
                             plan.batch_gather_floats() * width));
    plan.execute_batch(x, y, width, nullptr, &scratch);  // warm
    std::size_t calls = 0;
    const double start = now_s();
    do {
      plan.execute_batch(x, y, width, nullptr, &scratch);
      ++calls;
    } while (now_s() - start <
             kReplaySeconds / static_cast<double>(plans.size()));
    const double us = us_since(start) / static_cast<double>(calls);
    const double mb = static_cast<double>(plan.memory_bytes()) / 1e6;
    const std::string base = "compiler.plan." + name;
    result.set(base + ".us", us, "us", calls);
    result.set(base + ".computed_mb", mb, "MB", 1);
    result.set(base + ".gbps", mb * 1e6 / (us * 1e-6) / 1e9, "GB/s", calls);
  }
}

/// StreamingDecoder::push_row over recorded logits: microseconds per row.
double replay_decoder(const std::vector<Matrix>& logits) {
  double us = 0.0;
  std::size_t rows = 0;
  std::vector<speech::StreamEvent> sink;
  const double start = now_s();
  do {
    for (const Matrix& m : logits) {
      speech::StreamingDecoder decoder(m.cols());
      const double t = now_s();
      for (std::size_t r = 0; r < m.rows(); ++r) decoder.push_row(m.row(r));
      decoder.finish();
      us += us_since(t);
      rows += m.rows();
      sink.clear();
      decoder.poll_events(sink);
    }
  } while (rows > 0 && now_s() - start < kReplaySeconds);
  return rows > 0 ? us / static_cast<double>(rows) : 0.0;
}

struct CacheReplay {
  double lookup_us = 0.0;  // cursor advance + lookup, per frame
  double insert_us = 0.0;  // per miss
};

/// PrefixCache over the feature frames of the replayed streams, in order:
/// every frame advances the cursor and looks up; each miss inserts an
/// entry of the engine's size (one logits row, the whole hidden state).
CacheReplay replay_cache(const Inputs& inputs, std::size_t streams,
                         const ModelConfig& config) {
  cache::CacheConfig cfg;
  cfg.enabled = true;
  cache::PrefixCache cache(cfg);
  const speech::MfccExtractor extractor(runtime::EngineConfig{}.mfcc);
  const std::vector<float> zero_state(config.hidden_dim * config.num_layers);
  const std::vector<float> row(config.num_classes, 0.5F);
  std::vector<float> state(zero_state.size(), 0.25F);
  CallStat lookups, inserts;
  const double start = now_s();
  for (std::size_t i = 0; i < streams && now_s() - start < kReplaySeconds;
       ++i) {
    const Matrix features = extractor.extract(
        inputs.utterances[inputs.streams[i].utterance].wave);
    cache::PrefixCursor cursor = cache::PrefixCursor::from_state(zero_state);
    for (std::size_t r = 0; r < features.rows(); ++r) {
      double t = now_s();
      cursor.advance(features.row(r), cfg.quant_scale);
      const bool hit = cache.lookup(cursor) != nullptr;
      lookups.add(us_since(t));
      if (!hit) {
        t = now_s();
        cache.insert(cursor, row, state);
        inserts.add(us_since(t));
      }
    }
  }
  return {lookups.mean_us(), inserts.mean_us()};
}

/// Wire codec over recorded traffic: encode (append_audio per chunk,
/// append_event per event) and decode (FrameDecoder + decode_audio /
/// decode_event), microseconds per frame.
std::pair<double, double> replay_wire(const Inputs& inputs,
                                      const std::vector<speech::StreamEvent>&
                                          events) {
  const bool live = inputs.workload == Workload::kLiveTcp;
  const std::size_t chunk = static_cast<std::size_t>(
      (live ? kLiveChunkSeconds : kBatchChunkSeconds) * kSampleRate);
  const std::vector<float>& wave = inputs.utterances.front().wave;
  const std::span<const float> audio(wave.data(), std::min(chunk, wave.size()));
  CallStat encode, decode;
  std::vector<std::uint8_t> bytes;
  std::vector<float> samples;
  net::FrameDecoder decoder;
  net::Frame frame;
  speech::StreamEvent event;
  const double start = now_s();
  while (now_s() - start < kReplaySeconds) {
    bytes.clear();
    double t = now_s();
    net::append_audio(bytes, audio);
    for (const speech::StreamEvent& e : events) net::append_event(bytes, e);
    encode.us += us_since(t);
    encode.calls += 1 + events.size();
    t = now_s();
    decoder.feed(bytes);
    while (decoder.next(frame)) {
      samples.clear();
      const bool ok = frame.type == net::FrameType::kAudio
                          ? net::decode_audio(frame.payload, samples)
                          : net::decode_event(frame.payload, event);
      if (!ok) return {0.0, 0.0};
    }
    decode.us += us_since(t);
    decode.calls += 1 + events.size();
  }
  return {encode.mean_us(), decode.mean_us()};
}

/// STREAM-style triad a = b + s*c over arrays larger than the caches:
/// the host's memory bandwidth ceiling, best of five, in GB/s.
double triad_gbps() {
  std::vector<float> a(kTriadFloats), b(kTriadFloats, 1.0F),
      c(kTriadFloats, 2.0F);
  const float scalar = 3.0F;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t = now_s();
    for (std::size_t i = 0; i < kTriadFloats; ++i) a[i] = b[i] + scalar * c[i];
    const double s = now_s() - t;
    best = std::max(best, 3.0 * sizeof(float) * kTriadFloats / s / 1e9);
  }
  if (a[kTriadFloats / 2] != 7.0F) return 0.0;  // keeps the loop live
  return best;
}

}  // namespace

void run_traced(Stack& stack, const Inputs& inputs, double seconds,
                Result& result) {
  // ---- A: the stack, generator calls timed.
  Result e2e;
  DriveTrace calls;
  run_workload(stack, inputs, seconds * kTracedWindowShare, e2e, &calls);
  stack.engine().stop();  // the engine's counters are read stopped
  const runtime::RuntimeStats fleet = stack.engine().stats().merged;
  std::vector<double> shard_frames;
  for (std::size_t s = 0; s < stack.engine().shard_count(); ++s) {
    shard_frames.push_back(
        static_cast<double>(stack.engine().shard_stats(s).frames_processed));
  }
  // live_tcp's own TCP streams give the net layer's figures; the batch
  // workloads carry none, so a probe on the idle stack measures it.
  double tcp_overhead_ms = 0.0;
  std::size_t tcp_samples = 0;
  if (inputs.workload == Workload::kLiveTcp) {
    const Metric& tcp_lag = e2e.metrics.at("tcp_event_lag_ms_p50");
    tcp_overhead_ms = tcp_lag.value - e2e.metrics.at("event_lag_ms_p50").value;
    tcp_samples = tcp_lag.samples;
  } else {
    stack.engine().start();
    const TcpProbe probe =
        probe_tcp(stack, inputs, kProbeStreams, e2e, calls);
    tcp_overhead_ms = probe.tcp_final_ms - probe.local_final_ms;
    tcp_samples = probe.clips;
  }
  stack.stop();
  result.attempted += e2e.attempted;
  result.failed += e2e.failed;
  result.failures = e2e.failures;
  result.set("cache.hit_ratio", fleet.cache_hit_rate(), "share",
             fleet.cache_hits + fleet.cache_misses);
  result.set("cache.evictions", static_cast<double>(fleet.cache_evictions),
             "count", 1);
  result.set("cache.resident_mb", static_cast<double>(fleet.cache_bytes) / 1e6,
             "MB", 1);
  result.set("serve.submit_us", calls.submit.mean_us(), "us",
             calls.submit.calls);
  result.set("serve.poll_us", calls.poll.mean_us(), "us", calls.poll.calls);
  result.set("serve.backpressure_refusals",
             static_cast<double>(calls.refusals), "count", calls.submit.calls);
  const auto [lo, hi] =
      std::minmax_element(shard_frames.begin(), shard_frames.end());
  const double mean_frames =
      static_cast<double>(fleet.frames_processed) /
      static_cast<double>(shard_frames.size());
  result.set("serve.shard_frame_skew",
             mean_frames > 0 ? (*hi - *lo) / mean_frames : 0.0, "share",
             fleet.frames_processed);
  result.set("net.send_us", calls.send.mean_us(), "us", calls.send.calls);
  result.set("net.bytes_out", static_cast<double>(calls.bytes_out), "bytes", 1);
  result.set("net.bytes_in", static_cast<double>(calls.bytes_in), "bytes", 1);
  result.set("net.tcp_overhead_ms", tcp_overhead_ms, "ms", tcp_samples);
  result.set("serve.step.width_mean", fleet.mean_batch(), "streams",
             fleet.steps);

  // ---- B: one shard's share through a caller-driven LocalRecognizer;
  // the timed pass sits between two untimed ones, so a steady drift of
  // the host's speed cancels out of the overhead.
  const CompiledSpeechModel model(stack.model(), stack.masks(),
                                  compiler_options());
  const Matrix features = feature_rows(inputs, 4096);
  StepReplayer replayer(model, features, shard_config().engine.max_batch);
  ReplayTrace tr;
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t all = std::numeric_limits<std::size_t>::max();
  const Pass bare1 =
      replay_pass(model, inputs, all, seconds * kShareB, nullptr, nullptr);
  const Pass timed =
      replay_pass(model, inputs, bare1.rounds, inf, &tr, &replayer);
  const Pass bare2 =
      replay_pass(model, inputs, bare1.rounds, inf, nullptr, nullptr);
  const double bare_s = (bare1.wall_s + bare2.wall_s) / 2.0;
  const double wall_s = timed.wall_s;
  const std::size_t opened = timed.opened;
  const std::size_t rounds = timed.rounds;
  const runtime::RuntimeStats& st = tr.stats;
  if (st.frames_processed == 0 || replayer.frames == 0) {
    result.fail("the local replay served no frames");
    return;
  }
  const double frames = static_cast<double>(st.frames_processed);
  const double steps = static_cast<double>(tr.step.calls);

  // ---- C: direct replays.
  const std::size_t width = static_cast<std::size_t>(std::max(
      1.0, std::round(st.mean_batch())));
  replay_plans(stack, width, result);
  const double decode_us = replay_decoder(tr.logits);
  const CacheReplay cache = replay_cache(inputs, opened, model.config());
  const auto [encode_us, decode_wire_us] = replay_wire(inputs, tr.events);

  const double compiler_us = replayer.time.us;
  const double decoder_us = decode_us * frames;
  const double cache_us =
      cache.lookup_us * static_cast<double>(st.cache_hits + st.cache_misses) +
      cache.insert_us * static_cast<double>(st.cache_misses);
  const double runtime_us = tr.step.us - compiler_us - decoder_us - cache_us;
  const double serve_us = tr.open.us + tr.poll.us + tr.close.us;
  const double wall_us = wall_s * 1e6;
  const double unattributed =
      (wall_us - tr.submit.us - tr.step.us - serve_us) / wall_us;

  result.set("speech.mfcc.us_per_frame", tr.submit.us / frames, "us",
             st.frames_processed);
  result.set("speech.decode.us_per_frame", decode_us, "us",
             st.frames_processed);
  result.set("runtime.step.us", tr.step.mean_us(), "us", tr.step.calls);
  result.set("runtime.step.width_mean", st.mean_batch(), "streams", st.steps);
  result.set("runtime.step.self_us", runtime_us / steps, "us", tr.step.calls);
  result.set("compiler.step_batch.us_per_stream_frame",
             replayer.time.us / static_cast<double>(replayer.frames), "us",
             replayer.frames);
  result.set("compiler.fused_share",
             static_cast<double>(replayer.fused) /
                 static_cast<double>(replayer.time.calls),
             "share", replayer.time.calls);
  result.set("cache.lookup_us", cache.lookup_us, "us",
             st.cache_hits + st.cache_misses);
  result.set("cache.insert_us", cache.insert_us, "us", st.cache_misses);
  result.set("net.wire_encode_us", encode_us, "us", tr.events.size() + 1);
  result.set("net.wire_decode_us", decode_wire_us, "us", tr.events.size() + 1);
  result.set("hw.triad_gbps", triad_gbps(), "GB/s", 5);

  const std::size_t n = tr.step.calls;
  result.set("trace.share.speech_mfcc", tr.submit.us / wall_us, "share", n);
  result.set("trace.share.compiler", compiler_us / wall_us, "share", n);
  result.set("trace.share.speech_decode", decoder_us / wall_us, "share", n);
  result.set("trace.share.cache", cache_us / wall_us, "share", n);
  result.set("trace.share.runtime", runtime_us / wall_us, "share", n);
  result.set("trace.share.serve", serve_us / wall_us, "share", n);
  result.set("trace.unattributed_share", unattributed, "share", n);
  result.set("trace.overhead_share", (wall_s - bare_s) / bare_s, "share",
             rounds);
  result.notes["plan_bytes"] =
      "compiler.plan.*.computed_mb and .gbps use LayerPlan::memory_bytes() "
      "(bytes the compressed weights force a call to stream), computed, "
      "not measured";
  result.notes["plan_width"] = std::to_string(width);

  // Layers add up: the independently measured parts of a step (kernels,
  // decoder, cache) must not exceed the step time they are carved from,
  // i.e. the runtime's remainder may not go below -tolerance x wall.
  ++result.attempted;
  if (!(runtime_us / wall_us >= -kUnattributedTolerance)) {
    result.fail("compiler + decoder + cache replays exceed the traced step "
                "time by more than " +
                std::to_string(kUnattributedTolerance) + " of the wall time");
  }
  ++result.attempted;
  if (!(std::abs(unattributed) <= kUnattributedTolerance)) {
    result.fail("layer self times miss the traced wall time by more than " +
                std::to_string(kUnattributedTolerance));
  }
  // B must run steps as wide as the stack's, or its per-step figures
  // describe another regime than the workload's.
  ++result.attempted;
  const double width_ratio = st.mean_batch() / fleet.mean_batch();
  if (!(width_ratio <= kWidthTolerance && width_ratio >= 1.0 / kWidthTolerance)) {
    result.fail("replayed step width " + std::to_string(st.mean_batch()) +
                " vs the stack's " + std::to_string(fleet.mean_batch()));
  }
}

}  // namespace rtbench
