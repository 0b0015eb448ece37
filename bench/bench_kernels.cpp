// Kernel microbenchmarks (google-benchmark): the primitive operations the
// table-level harnesses are built from. Useful for regression-tracking the
// kernels independently of the experiment harnesses.
#include <benchmark/benchmark.h>

#include <memory>

#include "compiler/execution_plan.hpp"
#include "hw/thread_pool.hpp"
#include "sparse/bank_balanced.hpp"
#include "sparse/block_circulant.hpp"
#include "sparse/bspc.hpp"
#include "sparse/csr.hpp"
#include "sparse/fft.hpp"
#include "speech/mfcc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  fill_normal(m.span(), rng, 1.0F);
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  fill_normal(v.span(), rng, 1.0F);
  return v;
}

void BM_DenseGemv(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix w = random_matrix(n, n, 1);
  const Vector x = random_vector(n, 2);
  Vector y(n);
  for (auto _ : state) {
    gemv(w, x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DenseGemv)->Arg(256)->Arg(1024);

void BM_CsrSpmv(benchmark::State& state) {
  const std::size_t n = 1024;
  const double compression = static_cast<double>(state.range(0));
  Matrix w = random_matrix(n, n, 3);
  w = project_magnitude(w, 1.0 / compression);
  const CsrMatrix csr = CsrMatrix::from_dense(w);
  const Vector x = random_vector(n, 4);
  Vector y(n);
  for (auto _ : state) {
    csr.spmv(x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csr.nnz()));
}
BENCHMARK(BM_CsrSpmv)->Arg(10)->Arg(100);

void BM_BspcSpmv(benchmark::State& state) {
  const std::size_t n = 1024;
  const double compression = static_cast<double>(state.range(0));
  const bool lre = state.range(1) != 0;
  const Matrix w = random_matrix(n, n, 5);
  const BlockMask mask = block_column_mask(w, 64, 16, 1.0 / compression);
  const BspcMatrix bspc = BspcMatrix::from_dense(w, mask);
  const Vector x = random_vector(n, 6);
  Vector y(n);
  for (auto _ : state) {
    if (lre) {
      bspc.spmv(x.span(), y.span());
    } else {
      bspc.spmv_no_lre(x.span(), y.span());
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bspc.nnz()));
}
BENCHMARK(BM_BspcSpmv)
    ->Args({10, 1})
    ->Args({10, 0})
    ->Args({100, 1})
    ->Args({100, 0});

void BM_BspcThreaded(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 2048;
  const Matrix w = random_matrix(n, n, 7);
  const BlockMask mask = block_column_mask(w, 128, 16, 1.0 / 16.0);
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.threads = threads;
  const LayerPlan plan = LayerPlan::compile(w, &mask, options);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const Vector x = random_vector(n, 8);
  Vector y(n);
  for (auto _ : state) {
    plan.execute(x.span(), y.span(), pool.get());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BspcThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_BankBalancedSpmv(benchmark::State& state) {
  const std::size_t n = 1024;
  const Matrix w = random_matrix(n, n, 9);
  const auto bbs = BankBalancedMatrix::from_dense(w, 64, 8);  // 8x
  const Vector x = random_vector(n, 10);
  Vector y(n);
  for (auto _ : state) {
    bbs.spmv(x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BankBalancedSpmv);

void BM_BlockCirculantMatvec(benchmark::State& state) {
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 1024;
  const Matrix w = random_matrix(n, n, 11);
  const auto bc = BlockCirculantMatrix::from_dense(w, block);
  const Vector x = random_vector(n, 12);
  Vector y(n);
  for (auto _ : state) {
    bc.matvec(x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BlockCirculantMatvec)->Arg(8)->Arg(64);

// One forward plus one inverse transform per iteration: the round trip
// keeps the data bounded. Forward transforms alone scale its norm by
// sqrt(n) per call, overflowing to inf/NaN within a few hundred
// iterations, after which the timing is of the NaN path, not the FFT.
void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<Complex> data(n);
  for (auto& c : data) c = Complex(rng.normal(), rng.normal());
  for (auto _ : state) {
    fft_inplace(data, false);
    fft_inplace(data, true);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(4096);

// One 10 ms MFCC frame at the serving config (25 ms window, 512-point
// FFT, 26 mel filters, 13 cepstra): the front-end work every served
// frame pays, cache hit or not.
void BM_MfccFrame(benchmark::State& state) {
  const speech::MfccExtractor mfcc;
  const speech::MfccConfig& config = mfcc.config();
  Rng rng(14);
  std::vector<float> wave(config.frame_length + 1);
  for (float& s : wave) s = 0.1F * rng.normal();
  const std::span<const float> samples{wave.data() + 1, config.frame_length};
  speech::MfccExtractor::FrameScratch scratch(config);
  std::vector<float> cepstra(config.num_cepstra);
  for (auto _ : state) {
    mfcc.extract_frame(samples, wave[0], cepstra, scratch);
    benchmark::DoNotOptimize(cepstra.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MfccFrame)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rtmobile
