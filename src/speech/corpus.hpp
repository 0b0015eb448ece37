// SyntheticTimit: the deterministic TIMIT-substitute corpus.
//
// TIMIT itself is LDC-licensed and unavailable offline, so experiments run
// on a synthetic phone corpus with the same task structure: 61 surface
// phones folded to 39 scoring
// classes, class-aware bigram phonotactics (closures before stops, CV
// alternation, utterances bracketed by silence), per-phone durations, and
// two feature modes:
//   direct   — per-phone 39-dim prototype + AR(1) noise + boundary
//              coarticulation blending (fast; used for training sweeps);
//   waveform — formant-synthesized audio rendered through the real MFCC
//              front end (slower; used by the end-to-end example/tests).
#pragma once

#include <cstdint>
#include <vector>

#include "speech/mfcc.hpp"
#include "speech/phones.hpp"
#include "speech/synth.hpp"
#include "tensor/matrix.hpp"
#include "train/types.hpp"
#include "util/rng.hpp"

namespace rtmobile::speech {

enum class FeatureMode : std::uint8_t {
  kDirect,    // prototype features, no audio
  kWaveform,  // synthesize audio, extract MFCCs
};

struct CorpusConfig {
  std::size_t num_train_utterances = 96;
  std::size_t num_test_utterances = 32;
  std::size_t min_phones = 8;
  std::size_t max_phones = 18;
  std::size_t min_frames_per_phone = 3;
  std::size_t max_frames_per_phone = 9;
  double feature_noise = 0.45;   // direct mode: per-frame noise stddev
  double coarticulation = 0.5;   // direct mode: boundary blend strength
  double ar_coefficient = 0.5;   // direct mode: AR(1) noise correlation
  std::uint64_t seed = 42;
  FeatureMode mode = FeatureMode::kDirect;
  std::size_t feature_dim = 39;  // direct mode feature dimension
};

struct Corpus {
  std::vector<LabeledSequence> train;
  std::vector<LabeledSequence> test;
  std::size_t feature_dim = 0;
  std::size_t num_classes = kNumFoldedPhones;
};

class SyntheticTimit {
 public:
  explicit SyntheticTimit(const CorpusConfig& config = CorpusConfig{});

  [[nodiscard]] const CorpusConfig& config() const { return config_; }

  /// Generates the full corpus (train + test) deterministically from the
  /// config seed.
  [[nodiscard]] Corpus generate() const;

  /// Samples one surface-phone sequence (starts and ends with "h#",
  /// class-aware bigram interior). Exposed for tests.
  [[nodiscard]] std::vector<std::size_t> sample_surface_sequence(
      Rng& rng) const;

  /// Direct-mode prototype features: [61 x feature_dim], deterministic.
  [[nodiscard]] const Matrix& phone_prototypes() const {
    return prototypes_;
  }

  /// Builds one utterance from a surface sequence (used by generate();
  /// exposed for tests of labeling invariants).
  [[nodiscard]] LabeledSequence make_utterance(
      const std::vector<std::size_t>& surface_seq, Rng& rng) const;

 private:
  [[nodiscard]] Matrix build_prototypes() const;
  [[nodiscard]] std::vector<double> transition_weights(
      std::size_t from_phone) const;

  CorpusConfig config_;
  Matrix prototypes_;  // [61 x feature_dim]
  Synthesizer synth_;
  MfccExtractor mfcc_;
};

/// Collapses consecutive duplicate folded ids ("h# h# ey ey t" -> "h# ey t").
[[nodiscard]] std::vector<std::uint16_t> collapse_sequence(
    const std::vector<std::uint16_t>& frames);

}  // namespace rtmobile::speech
