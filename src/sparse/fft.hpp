// Radix-2 complex FFT.
//
// Two consumers: (1) the C-LSTM / E-RNN block-circulant baselines, which
// multiply circulant blocks in the frequency domain, and (2) the speech
// front end's spectral analysis. Both run the butterflies of one FftPlan
// per size. A naive O(n^2) DFT is provided as the test oracle.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace rtmobile {

using Complex = std::complex<double>;

/// True when n is a power of two (n >= 1).
[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

/// A radix-2 FFT of one power-of-two size with everything that does not
/// depend on the data precomputed: the bit-reversal permutation and, per
/// butterfly stage, the forward and inverse twiddles. The twiddle tables
/// are filled by the recurrence w *= w_len that the textbook loop runs
/// inline, and the butterflies do the same (ac - bd, ad + bc) arithmetic
/// in the same order, so for finite input the transform is bit-identical
/// to that loop; it just no longer waits on a serial twiddle chain per
/// butterfly. Immutable after construction, so one plan serves every
/// thread.
class FftPlan {
 public:
  /// The shared plan of size `n` (a power of two), built on first use.
  /// Safe to call from any thread; the plan lives for the whole process.
  [[nodiscard]] static const FftPlan& of_size(std::size_t n);

  /// Power spectrum |FFT(x)|^2 of a real frame zero-padded to n: writes
  /// n/2+1 bins into `power`, using `re` and `im` (n entries each) as the
  /// split real/imaginary workspace. Allocation-free: the 10 ms streaming
  /// front end calls this once per frame.
  void power_spectrum(std::span<const float> frame, std::span<float> power,
                      std::span<double> re, std::span<double> im) const;

 private:
  friend void fft_inplace(std::span<Complex> data, bool inverse);

  explicit FftPlan(std::size_t n);

  /// In-place transform of n interleaved complex values. The inverse is
  /// unnormalized (no 1/n).
  void transform(std::span<Complex> data, bool inverse) const;

  std::size_t n_;
  std::vector<std::size_t> bit_reversed_;  // input index -> position
  // Stage tables, concatenated: the stage with half-width h holds its h
  // twiddles at [h - 1, 2h - 1), n - 1 entries in all.
  std::vector<double> forward_re_, forward_im_;
  std::vector<double> inverse_re_, inverse_im_;
};

/// In-place iterative radix-2 FFT. Size must be a power of two.
/// `inverse` selects the inverse transform (with 1/n normalization).
void fft_inplace(std::span<Complex> data, bool inverse);

/// Forward FFT of a real signal, zero-padded to `fft_size` (power of two).
[[nodiscard]] std::vector<Complex> fft_real(std::span<const float> signal,
                                            std::size_t fft_size);

/// Naive O(n^2) DFT used as the correctness oracle in tests.
[[nodiscard]] std::vector<Complex> dft_naive(std::span<const Complex> data,
                                             bool inverse);

/// Circular convolution of two equal-length real vectors via FFT.
/// out[i] = sum_j a[j] * b[(i - j) mod n]. Length must be a power of two.
void circular_convolve(std::span<const float> a, std::span<const float> b,
                       std::span<float> out);

/// Reference O(n^2) circular convolution for tests (any length).
void circular_convolve_naive(std::span<const float> a,
                             std::span<const float> b, std::span<float> out);

}  // namespace rtmobile
