#include "sparse/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>

#include "util/check.hpp"

namespace rtmobile {

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

/// Stages narrower than this run twiddle-major (one twiddle, every
/// block), so their one- and two-butterfly blocks do not each pay a loop.
constexpr std::size_t kTwiddleMajorHalf = 4;

/// One radix-2 butterfly, u +- v * w, in the std::complex arithmetic
/// spelled out: (ac - bd, ad + bc), then the sum and difference.
template <std::size_t Stride>
inline void butterfly(double* __restrict re, double* __restrict im,
                      std::size_t u, std::size_t v, double w_re,
                      double w_im) {
  const double x_re = re[v * Stride];
  const double x_im = im[v * Stride];
  const double p_re = x_re * w_re - x_im * w_im;
  const double p_im = x_re * w_im + x_im * w_re;
  const double a_re = re[u * Stride];
  const double a_im = im[u * Stride];
  re[u * Stride] = a_re + p_re;
  im[u * Stride] = a_im + p_im;
  re[v * Stride] = a_re - p_re;
  im[v * Stride] = a_im - p_im;
}

/// Every butterfly stage of a size-n transform over bit-reversed data;
/// element i's parts sit at re[i * Stride] and im[i * Stride]. The
/// butterflies of one stage touch disjoint pairs, so the order they run
/// in within a stage does not change any result. Kept out of line: once
/// inlined into transform(), GCC sees the std::complex storage behind
/// `re` and stops vectorizing the k loop.
template <std::size_t Stride>
[[gnu::noinline]] void run_butterflies(std::size_t n, double* __restrict re,
                                       double* __restrict im,
                                       const double* __restrict tw_re,
                                       const double* __restrict tw_im) {
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w_re = tw_re + half - 1;
    const double* w_im = tw_im + half - 1;
    if (half < kTwiddleMajorHalf) {
      for (std::size_t k = 0; k < half; ++k) {
        for (std::size_t i = k; i < n; i += 2 * half) {
          butterfly<Stride>(re, im, i, i + half, w_re[k], w_im[k]);
        }
      }
      continue;
    }
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        butterfly<Stride>(re, im, i + k, i + k + half, w_re[k], w_im[k]);
      }
    }
  }
}

}  // namespace

FftPlan::FftPlan(std::size_t n)
    : n_(n),
      bit_reversed_(n),
      forward_re_(n - 1),
      forward_im_(n - 1),
      inverse_re_(n - 1),
      inverse_im_(n - 1) {
  RT_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bit_reversed_[i] = j;
  }
  for (const bool inverse : {false, true}) {
    std::vector<double>& tw_re = inverse ? inverse_re_ : forward_re_;
    std::vector<double>& tw_im = inverse ? inverse_im_ : forward_im_;
    for (std::size_t half = 1; half < n; half <<= 1) {
      const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                           static_cast<double>(2 * half);
      const Complex w_len(std::cos(angle), std::sin(angle));
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < half; ++k) {
        tw_re[half - 1 + k] = w.real();
        tw_im[half - 1 + k] = w.imag();
        w *= w_len;
      }
    }
  }
}

const FftPlan& FftPlan::of_size(std::size_t n) {
  RT_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");
  static std::array<std::once_flag, 64> built;
  static std::array<std::unique_ptr<const FftPlan>, 64> plans;
  const auto log2 = static_cast<std::size_t>(std::countr_zero(n));
  std::call_once(built[log2], [&] { plans[log2].reset(new FftPlan(n)); });
  return *plans[log2];
}

void FftPlan::transform(std::span<Complex> data, bool inverse) const {
  RT_REQUIRE(data.size() == n_, "FFT data size does not match the plan");
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bit_reversed_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // std::complex<double> is layout-compatible with double[2].
  double* parts = reinterpret_cast<double*>(data.data());
  run_butterflies<2>(n_, parts, parts + 1,
                     inverse ? inverse_re_.data() : forward_re_.data(),
                     inverse ? inverse_im_.data() : forward_im_.data());
}

void FftPlan::power_spectrum(std::span<const float> frame,
                             std::span<float> power, std::span<double> re,
                             std::span<double> im) const {
  RT_REQUIRE(frame.size() <= n_, "signal longer than FFT size");
  RT_REQUIRE(power.size() == n_ / 2 + 1,
             "power_spectrum: output must hold fft_size/2+1 bins");
  RT_REQUIRE(re.size() == n_ && im.size() == n_,
             "power_spectrum: scratch must hold fft_size entries");
  for (std::size_t i = 0; i < n_; ++i) {
    re[bit_reversed_[i]] =
        i < frame.size() ? static_cast<double>(frame[i]) : 0.0;
  }
  std::fill(im.begin(), im.end(), 0.0);
  run_butterflies<1>(n_, re.data(), im.data(), forward_re_.data(),
                     forward_im_.data());
  for (std::size_t i = 0; i < power.size(); ++i) {
    power[i] = static_cast<float>(re[i] * re[i] + im[i] * im[i]);
  }
}

void fft_inplace(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  RT_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");
  FftPlan::of_size(n).transform(data, inverse);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& value : data) value *= inv_n;
  }
}

std::vector<Complex> fft_real(std::span<const float> signal,
                              std::size_t fft_size) {
  RT_REQUIRE(is_power_of_two(fft_size), "FFT size must be a power of two");
  RT_REQUIRE(signal.size() <= fft_size, "signal longer than FFT size");
  std::vector<Complex> data(fft_size, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < signal.size(); ++i) {
    data[i] = Complex(static_cast<double>(signal[i]), 0.0);
  }
  fft_inplace(data, /*inverse=*/false);
  return data;
}

std::vector<Complex> dft_naive(std::span<const Complex> data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<Complex> out(n);
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * std::numbers::pi *
                           static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += data[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

void circular_convolve(std::span<const float> a, std::span<const float> b,
                       std::span<float> out) {
  const std::size_t n = a.size();
  RT_REQUIRE(b.size() == n && out.size() == n,
             "circular_convolve: length mismatch");
  RT_REQUIRE(is_power_of_two(n), "circular_convolve: length must be 2^k");
  std::vector<Complex> fa(n);
  std::vector<Complex> fb(n);
  for (std::size_t i = 0; i < n; ++i) {
    fa[i] = Complex(static_cast<double>(a[i]), 0.0);
    fb[i] = Complex(static_cast<double>(b[i]), 0.0);
  }
  fft_inplace(fa, false);
  fft_inplace(fb, false);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  fft_inplace(fa, true);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(fa[i].real());
  }
}

void circular_convolve_naive(std::span<const float> a,
                             std::span<const float> b, std::span<float> out) {
  const std::size_t n = a.size();
  RT_REQUIRE(b.size() == n && out.size() == n,
             "circular_convolve_naive: length mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(a[j]) *
             static_cast<double>(b[(i + n - j) % n]);
    }
    out[i] = static_cast<float>(acc);
  }
}

}  // namespace rtmobile
