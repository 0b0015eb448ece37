// MFCC front end: pre-emphasis, Hamming windowing, FFT power spectrum,
// mel filter bank, log compression, DCT-II, and delta features.
//
// Defaults follow the Kaldi TIMIT recipe: 16 kHz audio, 25 ms window,
// 10 ms hop, 512-point FFT, 26 mel filters, 13 cepstra; with Δ and ΔΔ the
// feature dimension is 39 — the same per-frame dimension the paper's GRU
// consumes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/fft.hpp"
#include "tensor/matrix.hpp"

namespace rtmobile::speech {

struct MfccConfig {
  double sample_rate_hz = 16000.0;
  std::size_t frame_length = 400;  // 25 ms at 16 kHz
  std::size_t frame_shift = 160;   // 10 ms at 16 kHz
  std::size_t fft_size = 512;
  std::size_t num_mel_filters = 26;
  std::size_t num_cepstra = 13;
  double preemphasis = 0.97;
  double low_freq_hz = 20.0;
  double high_freq_hz = 8000.0;
  bool add_deltas = true;         // append Δ and ΔΔ (13 -> 39 dims)
  bool cepstral_mean_norm = true; // per-utterance CMN
};

/// Frequency (Hz) -> mel scale.
[[nodiscard]] double hz_to_mel(double hz);
/// Mel scale -> frequency (Hz).
[[nodiscard]] double mel_to_hz(double mel);

/// Precomputed triangular mel filter bank over FFT bins. Each filter
/// keeps only the bins strictly inside its triangle: every bin lies under
/// at most two triangles, so a dense bank would spend ~92% of its
/// multiply-adds on exact zeros.
class MelFilterBank {
 public:
  /// One triangle: weights[j] applies to bin first_bin + j; every other
  /// bin has weight zero.
  struct Filter {
    std::size_t first_bin = 0;
    std::vector<float> weights;
  };

  explicit MelFilterBank(const MfccConfig& config);

  [[nodiscard]] std::size_t num_filters() const { return filters_.size(); }

  /// Applies the bank to a power spectrum (fft_size/2+1 bins), writing
  /// num_filters() energies into `energies`. Allocation-free — the
  /// per-frame path of the streaming front end. Bit-identical to a dense
  /// bin-by-bin sum: the skipped terms are +0 added to a sum that is
  /// never negative.
  void apply(std::span<const float> power_spectrum,
             std::span<float> energies) const;

  /// Nonzero support of filter `f`.
  [[nodiscard]] const Filter& filter(std::size_t f) const;

 private:
  std::size_t num_bins_;
  std::vector<Filter> filters_;
};

/// Computes the MFCC (+Δ, +ΔΔ) matrix of a waveform: one row per frame.
class MfccExtractor {
 public:
  explicit MfccExtractor(const MfccConfig& config = MfccConfig{});

  [[nodiscard]] const MfccConfig& config() const { return config_; }

  /// Feature dimension per frame (13 or 39 depending on add_deltas).
  [[nodiscard]] std::size_t feature_dim() const;

  /// Number of frames the extractor will produce for `num_samples`.
  [[nodiscard]] std::size_t frame_count(std::size_t num_samples) const;

  /// Full pipeline. The waveform must contain at least one frame.
  [[nodiscard]] Matrix extract(std::span<const float> waveform) const;

  /// Every buffer one frame's extraction touches: the windowed frame,
  /// the split real/imaginary FFT workspace, the power-spectrum bins, and
  /// the mel energies. Per-frame callers (extract(), the streaming front
  /// end) construct one of these once and reuse it, which makes the 10 ms
  /// frame path allocation-free.
  struct FrameScratch {
    explicit FrameScratch(const MfccConfig& config)
        : frame(config.frame_length),
          fft_re(config.fft_size),
          fft_im(config.fft_size),
          power(config.fft_size / 2 + 1),
          mel(config.num_mel_filters) {}
    std::vector<float> frame;
    std::vector<double> fft_re;
    std::vector<double> fft_im;
    std::vector<float> power;
    std::vector<float> mel;
  };

  /// Cepstra of a single frame: `samples` is the frame_length-sample
  /// window and `prev_sample` the sample preceding it (0 at stream
  /// start), which pre-emphasis of the first sample needs. Writes
  /// num_cepstra values into `cepstra` using caller-provided scratch:
  /// no heap allocation at all. extract() and the streaming front end
  /// both call this, so chunked extraction is bit-identical to batch
  /// extraction.
  void extract_frame(std::span<const float> samples, float prev_sample,
                     std::span<float> cepstra, FrameScratch& scratch) const;

 private:
  MfccConfig config_;
  const FftPlan* fft_ = nullptr;   // shared per size: FftPlan::of_size
  MelFilterBank mel_bank_;
  std::vector<float> window_;      // Hamming coefficients
  std::vector<float> dct_;         // [num_cepstra x num_mel_filters]
};

/// Regression window of the Δ/ΔΔ features and its normalizer
/// 2 * sum(n^2). Shared between add_delta_features and the streaming
/// front end so the two paths cannot drift apart.
inline constexpr int kDeltaRegressionWindow = 2;
inline constexpr float kDeltaRegressionDenominator = 10.0F;

/// Appends Δ and ΔΔ columns (regression window of 2) to a feature matrix.
[[nodiscard]] Matrix add_delta_features(const Matrix& base);

/// Per-utterance cepstral mean normalization (in place, column-wise).
void cepstral_mean_normalize(Matrix& features);

}  // namespace rtmobile::speech
