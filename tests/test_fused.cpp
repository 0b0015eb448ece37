// Parity grid for the batched step (the batched-matmat spine).
//
// Contract under test: step_batch gathers the streams' hidden states
// into contiguous panels and drives every weight matrix once per layer
// per step over the whole batch — and that is invisible in the
// numbers. fp32 and fp16 output is bit-identical to whole-utterance
// infer for every batch width (including widths past any earlier
// panel, which exercise panel growth), sparsity pattern, and batch
// composition; int8 weights stay bitwise because both share the same
// dot kernels; int8 *activations* (the one mode that changes
// arithmetic, and only above width 1) stay within a small quantization
// bound. The panel's stream order is pinned to the caller's states
// order, so permuting a batch never changes any individual stream's
// logits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/execution_plan.hpp"
#include "compiler/gru_executor.hpp"
#include "hw/thread_pool.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/stats.hpp"
#include "runtime/streaming_session.hpp"
#include "sparse/block_mask.hpp"
#include "speech/mfcc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/precision.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using runtime::EngineConfig;
using runtime::InferenceEngine;
using runtime::StreamingSession;

struct ModelFixture {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
};

ModelFixture make_fixture(std::size_t hidden, std::uint64_t seed,
                          double keep = 0.4) {
  ModelFixture f;
  Rng rng(seed);
  f.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  f.model->init(rng);
  ParamSet params;
  f.model->register_params(params);
  for (const std::string& name : f.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, keep);
    apply_row_pruning(w, 0.8, mask);
    mask.apply(w);
    f.masks.emplace(name, std::move(mask));
  }
  return f;
}

std::unique_ptr<CompiledSpeechModel> compile(
    const ModelFixture& f, ThreadPool* pool,
    WeightPrecision precision = WeightPrecision::kFp32,
    ActivationPrecision activation = ActivationPrecision::kFp32) {
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.precision = precision;
  options.activation = activation;
  if (pool != nullptr) options.threads = pool->thread_count();
  return std::make_unique<CompiledSpeechModel>(*f.model, f.masks, options,
                                               pool);
}

std::vector<Matrix> random_utterances(std::size_t count,
                                      const std::vector<std::size_t>& frames,
                                      std::size_t input_dim,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> utts;
  for (std::size_t s = 0; s < count; ++s) {
    Matrix u(frames[s % frames.size()], input_dim);
    fill_normal(u.span(), rng, 1.0F);
    utts.push_back(std::move(u));
  }
  return utts;
}

/// Streams `utts` through step_batch one frame per round, the way the
/// engine does: each round's batch holds exactly the streams that still
/// have frames, in stream order — so mixed-length batches shrink the
/// compute panel mid-flight. Returns each stream's stacked logits.
std::vector<Matrix> run_streamed(const CompiledSpeechModel& m,
                                 const std::vector<Matrix>& utts) {
  const std::size_t classes = m.config().num_classes;
  const std::size_t input_dim = m.config().input_dim;
  std::vector<StreamState> states(utts.size(), m.make_state());
  std::vector<Matrix> out;
  std::size_t max_frames = 0;
  for (const Matrix& u : utts) {
    out.emplace_back(u.rows(), classes);
    max_frames = std::max(max_frames, u.rows());
  }
  Matrix features(utts.size(), input_dim);
  Matrix logits(utts.size(), classes);
  std::vector<StreamState*> ptrs;
  std::vector<std::size_t> ids;
  for (std::size_t t = 0; t < max_frames; ++t) {
    ptrs.clear();
    ids.clear();
    for (std::size_t s = 0; s < utts.size(); ++s) {
      if (t >= utts[s].rows()) continue;
      std::copy(utts[s].row(t).begin(), utts[s].row(t).end(),
                features.row(ptrs.size()).begin());
      ptrs.push_back(&states[s]);
      ids.push_back(s);
    }
    if (ptrs.empty()) break;
    m.step_batch(features, ptrs, logits);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      std::copy(logits.row(i).begin(), logits.row(i).end(),
                out[ids[i]].row(t).begin());
    }
  }
  return out;
}

// --------------------------------------------------- fp32 parity grid
TEST(FusedStep, Fp32BitIdenticalAcrossBatchWidths) {
  const ModelFixture f = make_fixture(24, 60);
  ThreadPool pool(2);
  const auto fused = compile(f, &pool);
  // Widths: degenerate 1, == pool threads, odd, > pool threads, and 70
  // (wider than any earlier call on this model, so the panels grow).
  for (const std::size_t width : {1UL, 2UL, 3UL, 5UL, 70UL}) {
    const std::vector<Matrix> utts =
        random_utterances(width, {6}, f.model->config().input_dim, 61);
    const std::vector<Matrix> streamed = run_streamed(*fused, utts);
    for (std::size_t s = 0; s < width; ++s) {
      EXPECT_EQ(streamed[s], fused->infer(utts[s]))
          << "width " << width << " stream " << s;  // bitwise
    }
  }
}

TEST(FusedStep, PackedWeightsBitIdenticalThroughFusedPath) {
  // fp16 and int8 *weights* share the per-vector dot kernels between the
  // batched step and infer, so they too are bitwise — activation
  // quantization (below) is the only mode allowed to move a bit.
  const ModelFixture f = make_fixture(24, 62);
  ThreadPool pool(2);
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerRow}) {
    const auto fused = compile(f, &pool, precision);
    const std::vector<Matrix> utts =
        random_utterances(4, {5}, f.model->config().input_dim, 63);
    const std::vector<Matrix> streamed = run_streamed(*fused, utts);
    for (std::size_t s = 0; s < utts.size(); ++s) {
      EXPECT_EQ(streamed[s], fused->infer(utts[s]))
          << to_string(precision) << " stream " << s;
    }
  }
}

TEST(FusedStep, SparsityPatternsStayBitIdentical) {
  ThreadPool pool(2);
  for (const double keep : {0.15, 0.4, 0.8}) {
    const ModelFixture f = make_fixture(24, 64, keep);
    const auto fused = compile(f, &pool);
    const std::vector<Matrix> utts =
        random_utterances(3, {5}, f.model->config().input_dim, 65);
    const std::vector<Matrix> streamed = run_streamed(*fused, utts);
    for (std::size_t s = 0; s < utts.size(); ++s) {
      EXPECT_EQ(streamed[s], fused->infer(utts[s]))
          << "keep " << keep << " stream " << s;
    }
  }
}

// ------------------------------------------------ int8 activations
TEST(FusedStep, Int8ActivationsWithinQuantizationBound) {
  const ModelFixture f = make_fixture(24, 66);
  ThreadPool pool(2);
  const auto q8 = compile(f, &pool, WeightPrecision::kInt8PerRow,
                          ActivationPrecision::kInt8);
  const std::vector<Matrix> utts =
      random_utterances(4, {6}, f.model->config().input_dim, 67);
  const std::vector<Matrix> actual = run_streamed(*q8, utts);
  for (std::size_t s = 0; s < utts.size(); ++s) {
    // infer() runs the per-vector kernels on fp32 activations.
    const Matrix expected = q8->infer(utts[s]);
    const float diff = max_abs_diff(actual[s].span(), expected.span());
    // The activation grid rounds each panel entry to 1/254 of its
    // stream's max magnitude; GRU activations are tanh/sigmoid-bounded,
    // so the per-logit drift stays far below this.
    EXPECT_LT(diff, 0.05F) << "stream " << s;
    // And the path must actually have engaged: identical bits would
    // mean the quantizer was silently bypassed.
    EXPECT_GT(diff, 0.0F) << "stream " << s;
  }
}

TEST(FusedStep, Int8ActivationsAtWidthOneMatchInferBitwise) {
  // Width 1 is the per-vector kernel on the fp32 row: no activation
  // quantization, so a lone stream is bitwise equal to infer().
  const ModelFixture f = make_fixture(24, 78);
  ThreadPool pool(2);
  const auto q8 = compile(f, &pool, WeightPrecision::kInt8PerRow,
                          ActivationPrecision::kInt8);
  const std::vector<Matrix> utts =
      random_utterances(1, {6}, f.model->config().input_dim, 79);
  EXPECT_EQ(run_streamed(*q8, utts)[0], q8->infer(utts[0]));
}

// ------------------------------------------------- panel order pinning
TEST(FusedStep, PanelRowOrderIsPinnedToStatesOrder) {
  // The fused panel's row order is the caller's states order. Two
  // consequences, both bitwise in fp32: repeating the same batch gives
  // the same logits, and permuting the batch leaves every individual
  // stream's logits untouched (its per-vector accumulation order never
  // depends on which panel row it occupies).
  const ModelFixture f = make_fixture(24, 68);
  ThreadPool pool(2);
  const auto fused = compile(f, &pool);
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kFrames = 5;
  const std::vector<Matrix> utts =
      random_utterances(kStreams, {kFrames}, f.model->config().input_dim, 69);

  const std::vector<Matrix> first = run_streamed(*fused, utts);
  const std::vector<Matrix> again = run_streamed(*fused, utts);
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(first[s], again[s]) << "rerun, stream " << s;
  }

  // Same streams, permuted panel order every round.
  const std::size_t order[kStreams] = {2, 0, 3, 1};
  std::vector<StreamState> states(kStreams, fused->make_state());
  Matrix features(kStreams, f.model->config().input_dim);
  Matrix logits(kStreams, fused->config().num_classes);
  std::vector<Matrix> permuted(
      kStreams, Matrix(kFrames, fused->config().num_classes));
  for (std::size_t t = 0; t < kFrames; ++t) {
    std::vector<StreamState*> ptrs;
    for (std::size_t i = 0; i < kStreams; ++i) {
      const std::size_t s = order[i];
      std::copy(utts[s].row(t).begin(), utts[s].row(t).end(),
                features.row(i).begin());
      ptrs.push_back(&states[s]);
    }
    fused->step_batch(features, ptrs, logits);
    for (std::size_t i = 0; i < kStreams; ++i) {
      std::copy(logits.row(i).begin(), logits.row(i).end(),
                permuted[order[i]].row(t).begin());
    }
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(first[s], permuted[s]) << "permuted, stream " << s;
  }
}

// ------------------------------------------- mid-batch width shrinkage
TEST(FusedStep, MidBatchStreamFinishKeepsParity) {
  // Mixed-length batch: streams drop out as their utterances end, so the
  // fused panel narrows round by round (5 -> 1). Every surviving stream
  // must keep bit-identity with its whole-utterance infer.
  const ModelFixture f = make_fixture(24, 70);
  ThreadPool pool(2);
  const auto fused = compile(f, &pool);
  const std::vector<Matrix> utts = random_utterances(
      5, {6, 3, 1, 5, 2}, f.model->config().input_dim, 71);
  const std::vector<Matrix> streamed = run_streamed(*fused, utts);
  for (std::size_t s = 0; s < utts.size(); ++s) {
    EXPECT_EQ(streamed[s], fused->infer(utts[s])) << "stream " << s;
  }
}

// ------------------------------------------------------- engine level
std::vector<float> random_waveform(std::size_t samples,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(samples);
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

TEST(FusedEngine, MixedLengthStreamsMatchInferAndAccountDispatch) {
  // Four streams of different lengths on one engine: rounds start at
  // width 4 and end at width 1, all on the batched spine. Logits stay
  // bit-identical to whole-utterance infer, and the stats ledger counts
  // every round as a batched step, with the width histogram counting
  // one sample per round.
  const ModelFixture f = make_fixture(24, 73);
  ThreadPool pool(2);
  const auto compiled = compile(f, &pool);
  InferenceEngine engine(*compiled);
  const std::vector<std::size_t> samples = {7000, 9000, 12000, 16000};
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    waves.push_back(random_waveform(samples[s], 74 + s));
  }
  for (const std::vector<float>& wave : waves) {
    StreamingSession& session = engine.create_session();
    session.push_audio(wave);
    session.finish();
  }
  engine.drain();

  const speech::MfccExtractor extractor(engine.config().mfcc);
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_EQ(engine.session(s).logits(),
              compiled->infer(extractor.extract(waves[s])))
        << "stream " << s;  // bitwise
  }
  const runtime::RuntimeStats& stats = engine.stats();
  // Cache off: every counted round dispatched exactly one step_batch.
  EXPECT_EQ(stats.fused_steps, stats.steps);
  EXPECT_EQ(stats.fallback_steps, 0U);
  EXPECT_EQ(stats.fused_width.count(), stats.fused_steps);
}

TEST(FusedEngine, CacheHitBurstShrinksPanelAndKeepsParity) {
  // A repeated utterance is served from the prefix cache, so its frames
  // never enter the fused panel — the panel shrinks to the cold streams
  // — and cache-only rounds dispatch no batch at all. Results stay
  // bit-identical to compute throughout.
  const ModelFixture f = make_fixture(24, 75);
  ThreadPool pool(2);
  const auto compiled = compile(f, &pool);
  EngineConfig config;
  config.cache.enabled = true;
  InferenceEngine engine(*compiled, config);

  const std::vector<float> repeat_wave = random_waveform(9000, 76);
  const std::vector<float> cold_wave = random_waveform(9000, 77);
  StreamingSession& warmup = engine.create_session();
  warmup.push_audio(repeat_wave);
  warmup.finish();
  engine.drain();
  engine.remove_done();

  StreamingSession& hit = engine.create_session();
  StreamingSession& cold = engine.create_session();
  hit.push_audio(repeat_wave);
  cold.push_audio(cold_wave);
  hit.finish();
  cold.finish();
  engine.drain();

  const speech::MfccExtractor extractor(engine.config().mfcc);
  EXPECT_EQ(hit.logits(),
            compiled->infer(extractor.extract(repeat_wave)));
  EXPECT_EQ(cold.logits(),
            compiled->infer(extractor.extract(cold_wave)));
  const runtime::RuntimeStats& stats = engine.stats();
  EXPECT_GT(stats.cache_hits, 0U);
  // Rounds fully served from cache dispatch no batch, so the dispatch
  // ledger undercounts rounds — never overcounts.
  EXPECT_LE(stats.fused_steps, stats.steps);
  EXPECT_EQ(stats.fused_width.count(), stats.fused_steps);
}

}  // namespace
}  // namespace rtmobile
