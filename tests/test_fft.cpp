// Unit tests for the FFT substrate: agreement with the naive DFT,
// inverse round trips, circular convolution, power spectra, and bitwise
// agreement of the planned transform and the MFCC frame path with the
// unplanned code they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <type_traits>
#include <utility>

#include "sparse/fft.hpp"
#include "speech/mfcc.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> data(n);
  for (auto& c : data) {
    c = Complex(rng.normal(), rng.normal());
  }
  return data;
}

double max_error(const std::vector<Complex>& a,
                 const std::vector<Complex>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_EQ(next_power_of_two(1), 1U);
  EXPECT_EQ(next_power_of_two(5), 8U);
  EXPECT_EQ(next_power_of_two(64), 64U);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(6);
  EXPECT_THROW(fft_inplace(data, false), std::invalid_argument);
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto data = random_signal(n, 100 + n);
  const auto expected = dft_naive(data, false);
  fft_inplace(data, false);
  EXPECT_LT(max_error(data, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizeTest, InverseRoundTrip) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 200 + n);
  auto data = original;
  fft_inplace(data, false);
  fft_inplace(data, true);
  EXPECT_LT(max_error(data, original), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, SinglePureToneLandsInOneBin) {
  constexpr std::size_t kN = 256;
  std::vector<float> signal(kN);
  constexpr std::size_t kBin = 17;
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = static_cast<float>(
        std::cos(2.0 * std::numbers::pi * kBin * i / kN));
  }
  const auto spectrum = fft_real(signal, kN);
  // Energy concentrated at +/- kBin.
  EXPECT_NEAR(std::abs(spectrum[kBin]), kN / 2.0, 1e-6 * kN);
  for (std::size_t k = 0; k < kN / 2; ++k) {
    if (k == kBin) continue;
    EXPECT_LT(std::abs(spectrum[k]), 1e-6 * kN);
  }
}

TEST(Fft, CircularConvolutionMatchesNaive) {
  constexpr std::size_t kN = 64;
  Rng rng(7);
  std::vector<float> a(kN);
  std::vector<float> b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  std::vector<float> fast(kN);
  std::vector<float> slow(kN);
  circular_convolve(a, b, fast);
  circular_convolve_naive(a, b, slow);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-3F);
  }
}

TEST(Fft, ConvolutionWithDeltaIsIdentity) {
  constexpr std::size_t kN = 32;
  Rng rng(8);
  std::vector<float> a(kN);
  for (auto& v : a) v = rng.normal();
  std::vector<float> delta(kN, 0.0F);
  delta[0] = 1.0F;
  std::vector<float> out(kN);
  circular_convolve(a, delta, out);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(out[i], a[i], 1e-5F);
  }
}

TEST(Fft, ConvolutionWithShiftedDeltaRotates) {
  constexpr std::size_t kN = 16;
  std::vector<float> a(kN);
  for (std::size_t i = 0; i < kN; ++i) a[i] = static_cast<float>(i);
  std::vector<float> delta(kN, 0.0F);
  delta[3] = 1.0F;  // circular shift by 3
  std::vector<float> out(kN);
  // out[i] = sum_j a[j] delta[(i-j) mod n] = a[(i-3) mod n]
  circular_convolve(a, delta, out);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(out[i], a[(i + kN - 3) % kN], 1e-5F);
  }
}

TEST(Fft, PowerSpectrumParseval) {
  constexpr std::size_t kN = 128;
  Rng rng(9);
  std::vector<float> signal(kN);
  double time_energy = 0.0;
  for (auto& v : signal) {
    v = rng.normal();
    time_energy += static_cast<double>(v) * static_cast<double>(v);
  }
  std::vector<float> power(kN / 2 + 1);
  std::vector<double> re(kN);
  std::vector<double> im(kN);
  FftPlan::of_size(kN).power_spectrum(signal, power, re, im);
  // Parseval: sum |X_k|^2 = N * sum x_n^2; reconstruct the full-spectrum
  // sum from the half spectrum (bins 1..N/2-1 appear twice).
  double freq_energy = static_cast<double>(power.front()) +
                       static_cast<double>(power.back());
  for (std::size_t k = 1; k + 1 < power.size(); ++k) {
    freq_energy += 2.0 * static_cast<double>(power[k]);
  }
  EXPECT_NEAR(freq_energy / kN, time_energy, time_energy * 1e-5);
}

// ------------------------------------------------------- bitwise oracle
// The unplanned code, kept verbatim as the oracle: a std::complex FFT
// that recomputes every twiddle with the recurrence w *= w_len inside
// the butterfly loop, and a mel bank that weights all fft_size/2+1 bins
// of every filter. The planned paths must reproduce it bit for bit.

void oracle_fft(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 1) return;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(len);
    const Complex w_len(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= w_len;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& value : data) value *= inv_n;
  }
}

/// The unplanned MFCC frame path: window, complex FFT, dense mel bank,
/// log floor, DCT-II.
class OracleMfcc {
 public:
  explicit OracleMfcc(const speech::MfccConfig& config) : config_(config) {
    const std::size_t bins = config.fft_size / 2 + 1;
    const std::size_t n = config.num_mel_filters;
    const double mel_lo = speech::hz_to_mel(config.low_freq_hz);
    const double mel_hi = speech::hz_to_mel(config.high_freq_hz);
    std::vector<double> edges_hz(n + 2);
    for (std::size_t i = 0; i < edges_hz.size(); ++i) {
      edges_hz[i] = speech::mel_to_hz(
          mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                       static_cast<double>(n + 1));
    }
    const double hz_per_bin =
        config.sample_rate_hz / static_cast<double>(config.fft_size);
    filters_.assign(n, std::vector<float>(bins, 0.0F));
    for (std::size_t f = 0; f < n; ++f) {
      const double left = edges_hz[f];
      const double center = edges_hz[f + 1];
      const double right = edges_hz[f + 2];
      for (std::size_t bin = 0; bin < bins; ++bin) {
        const double hz = static_cast<double>(bin) * hz_per_bin;
        if (hz <= left || hz >= right) continue;
        const double w = hz <= center ? (hz - left) / (center - left)
                                      : (right - hz) / (right - center);
        filters_[f][bin] = static_cast<float>(w);
      }
    }
    window_.resize(config.frame_length);
    for (std::size_t i = 0; i < window_.size(); ++i) {
      window_[i] = static_cast<float>(
          0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                                 static_cast<double>(i) /
                                 static_cast<double>(window_.size() - 1)));
    }
    dct_.resize(config.num_cepstra * n);
    for (std::size_t c = 0; c < config.num_cepstra; ++c) {
      const double scale = c == 0 ? std::sqrt(1.0 / static_cast<double>(n))
                                  : std::sqrt(2.0 / static_cast<double>(n));
      for (std::size_t m = 0; m < n; ++m) {
        dct_[c * n + m] = static_cast<float>(
            scale * std::cos(std::numbers::pi * static_cast<double>(c) *
                             (static_cast<double>(m) + 0.5) /
                             static_cast<double>(n)));
      }
    }
  }

  [[nodiscard]] std::vector<float> frame(std::span<const float> samples,
                                         float prev_sample) const {
    std::vector<Complex> fft(config_.fft_size, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < config_.frame_length; ++i) {
      const float previous = i > 0 ? samples[i - 1] : prev_sample;
      const float x = (samples[i] -
                       static_cast<float>(config_.preemphasis) * previous) *
                      window_[i];
      fft[i] = Complex(static_cast<double>(x), 0.0);
    }
    oracle_fft(fft, /*inverse=*/false);
    std::vector<float> power(config_.fft_size / 2 + 1);
    for (std::size_t i = 0; i < power.size(); ++i) {
      power[i] = static_cast<float>(std::norm(fft[i]));
    }
    std::vector<float> mel(filters_.size());
    for (std::size_t f = 0; f < filters_.size(); ++f) {
      double acc = 0.0;
      for (std::size_t bin = 0; bin < power.size(); ++bin) {
        acc += static_cast<double>(filters_[f][bin]) *
               static_cast<double>(power[bin]);
      }
      mel[f] = std::log(std::max(static_cast<float>(acc), 1e-10F));
    }
    std::vector<float> cepstra(config_.num_cepstra);
    for (std::size_t c = 0; c < cepstra.size(); ++c) {
      double acc = 0.0;
      for (std::size_t m = 0; m < mel.size(); ++m) {
        acc += static_cast<double>(dct_[c * mel.size() + m]) *
               static_cast<double>(mel[m]);
      }
      cepstra[c] = static_cast<float>(acc);
    }
    return cepstra;
  }

 private:
  speech::MfccConfig config_;
  std::vector<std::vector<float>> filters_;
  std::vector<float> window_;
  std::vector<float> dct_;
};

template <typename T>
std::vector<std::uint64_t> bit_patterns(std::span<const T> values) {
  std::vector<std::uint64_t> out;
  for (const T v : values) {
    if constexpr (std::is_same_v<T, Complex>) {
      out.push_back(std::bit_cast<std::uint64_t>(v.real()));
      out.push_back(std::bit_cast<std::uint64_t>(v.imag()));
    } else {
      out.push_back(std::bit_cast<std::uint32_t>(v));
    }
  }
  return out;
}

TEST_P(FftSizeTest, BitIdenticalToRecurrenceOracle) {
  const std::size_t n = GetParam();
  for (const bool inverse : {false, true}) {
    const auto original = random_signal(n, 300 + n);
    auto planned = original;
    auto oracle = original;
    fft_inplace(planned, inverse);
    oracle_fft(oracle, inverse);
    EXPECT_EQ(bit_patterns<Complex>(planned), bit_patterns<Complex>(oracle))
        << "n=" << n << " inverse=" << inverse;
  }
}

/// Named frames (frame_length + 1 samples: the previous sample, then
/// the window) covering the edge cases of the frame path.
std::vector<std::pair<std::string, std::vector<float>>> oracle_frames(
    const speech::MfccConfig& config) {
  const std::size_t len = config.frame_length + 1;
  std::vector<std::pair<std::string, std::vector<float>>> frames;
  // Exact zeros: every mel energy hits the log floor.
  frames.emplace_back("silence", std::vector<float>(len, 0.0F));
  Rng rng(77);
  std::vector<float> full_scale(len);
  for (float& s : full_scale) s = rng.uniform(0.0F, 1.0F) < 0.5F ? -1.0F : 1.0F;
  frames.emplace_back("full_scale", full_scale);
  std::vector<float> tiny(len);
  for (float& s : tiny) s = 1e-20F * rng.normal();
  frames.emplace_back("tiny", tiny);
  frames.emplace_back("dc", std::vector<float>(len, 0.5F));
  std::vector<float> tone(len);
  constexpr double kBin = 17.0;  // exactly on an FFT bin centre
  for (std::size_t i = 0; i < len; ++i) {
    tone[i] = static_cast<float>(
        0.8 * std::cos(2.0 * std::numbers::pi * kBin *
                       static_cast<double>(i) /
                       static_cast<double>(config.fft_size)));
  }
  frames.emplace_back("bin_tone", tone);
  for (int f = 0; f < 64; ++f) {
    std::vector<float> noise(len);
    const float scale = std::pow(10.0F, static_cast<float>(f % 5) - 3.0F);
    for (float& s : noise) s = scale * rng.normal();
    frames.emplace_back("noise" + std::to_string(f), noise);
  }
  return frames;
}

class MfccOracleTest : public ::testing::TestWithParam<speech::MfccConfig> {};

TEST_P(MfccOracleTest, ExtractFrameBitIdenticalToUnplannedPath) {
  const speech::MfccConfig& config = GetParam();
  const speech::MfccExtractor extractor(config);
  const OracleMfcc oracle(config);
  speech::MfccExtractor::FrameScratch scratch(config);
  std::vector<float> cepstra(config.num_cepstra);
  for (const auto& [name, wave] : oracle_frames(config)) {
    const std::span<const float> samples{wave.data() + 1,
                                         config.frame_length};
    extractor.extract_frame(samples, wave[0], cepstra, scratch);
    EXPECT_EQ(bit_patterns<float>(cepstra),
              bit_patterns<float>(oracle.frame(samples, wave[0])))
        << name << " fft_size=" << config.fft_size;
  }
}

speech::MfccConfig wide_mfcc_config() {
  speech::MfccConfig config;
  config.frame_length = 600;
  config.fft_size = 1024;
  config.num_mel_filters = 40;
  config.num_cepstra = 20;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MfccOracleTest,
    ::testing::Values(speech::MfccConfig{}, wide_mfcc_config()),
    [](const ::testing::TestParamInfo<speech::MfccConfig>& info) {
      return "fft" + std::to_string(info.param.fft_size) + "_frame" +
             std::to_string(info.param.frame_length);
    });

TEST(Fft, RealFftRejectsOversizedSignal) {
  std::vector<float> signal(100);
  EXPECT_THROW(fft_real(signal, 64), std::invalid_argument);
}

}  // namespace
}  // namespace rtmobile
