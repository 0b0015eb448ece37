// Precision ablation and packed-kernel throughput.
//
// Section 1 (accuracy, paper Sec. V: "Our GPU implementation uses 16-bit
// floating point"): storage precision x pruning, measuring PER and weight
// storage on the scaled model. Reproduces the implicit claim that fp16
// weight storage is accuracy-free for this model family, and extends it
// with the int8 column the paper leaves as future work.
//
// Section 2 (throughput): the packed compute path. The same BSP-pruned
// model is compiled at fp32 / fp16 / int8 storage
// (CompilerOptions::precision) and the steady-state recurrence is timed
// single-stream and batched. Weights are what the batched serving path
// streams per stream per timestep, so the 2-4x payload shrink shows up
// as frames/sec once the working set outgrows cache — the "beyond
// real-time" composition of pruning and quantization the paper's title
// claims.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "core/bsp.hpp"
#include "core/quantize.hpp"
#include "hw/thread_pool.hpp"
#include "hw/timer.hpp"
#include "rnn/param_set.hpp"
#include "sparse/bspc.hpp"
#include "sparse/bspc_quant.hpp"
#include "tensor/ops.hpp"
#include "speech/corpus.hpp"
#include "speech/per.hpp"
#include "train/projection.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace rtmobile {
namespace {

constexpr WeightPrecision kPrecisions[] = {
    WeightPrecision::kFp32, WeightPrecision::kFp16,
    WeightPrecision::kInt8PerTensor, WeightPrecision::kInt8PerRow};

void run_accuracy_section(bool quick, JsonReport& report) {
  std::printf("== Precision x pruning: PER and storage (scaled model) ==\n\n");

  speech::CorpusConfig corpus_config;
  corpus_config.num_train_utterances = quick ? 12 : 32;
  corpus_config.num_test_utterances = quick ? 6 : 12;
  corpus_config.feature_noise = 0.55;
  corpus_config.seed = 3;
  const speech::Corpus corpus =
      speech::SyntheticTimit(corpus_config).generate();

  ModelConfig model_config;
  model_config.input_dim = 39;
  model_config.hidden_dim = 64;
  model_config.num_layers = 2;
  model_config.num_classes = 39;
  SpeechModel dense(model_config);
  Rng rng(17);
  dense.init(rng);
  {
    Trainer trainer(dense);
    Adam adam(4e-3);
    TrainConfig config;
    config.epochs = quick ? 4 : 10;
    config.lr_decay = 0.92;
    trainer.train(config, corpus.train, adam, rng);
  }

  // A BSP-pruned variant to show precision composes with pruning.
  SpeechModel pruned = dense;
  {
    BspConfig config;
    config.num_r = 8;
    config.num_c = 4;
    config.col_keep_fraction = 0.25;
    config.rho = 5e-2;
    config.admm_rounds_step1 = 2;
    config.retrain_epochs = quick ? 2 : 4;
    config.retrain_learning_rate = 2e-3;
    config.prune_fc = false;
    Rng prune_rng(19);
    BspPruner(config).prune(pruned, corpus.train, prune_rng);
  }

  Table table({"model", "precision", "PER", "max |err|", "weight KB"});
  const auto evaluate = [&](const char* label, const SpeechModel& base,
                            WeightPrecision precision) {
    SpeechModel model = base;
    const QuantizationReport q = quantize_model(model, precision);
    const double per = speech::corpus_per(model, corpus.test);
    table.add_row({label, to_string(precision), format_double(per, 2),
                   format_double(q.max_abs_error, 6),
                   format_double(
                       static_cast<double>(q.stored_bytes) / 1024.0, 1)});
    JsonRecord record;
    record.set("experiment", "quantization");
    record.set("model", label);
    record.set("precision", to_string(precision));
    record.set("per", per);
    record.set("max_abs_error", q.max_abs_error);
    record.set("stored_bytes", static_cast<std::int64_t>(q.stored_bytes));
    report.add(record);
  };

  for (const WeightPrecision precision : kPrecisions) {
    evaluate("dense", dense, precision);
  }
  table.add_separator();
  for (const WeightPrecision precision : kPrecisions) {
    evaluate("BSP 4x", pruned, precision);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expectation (paper's deployment choice): fp16 is PER-neutral at\n"
      "half the storage; int8 costs little with per-row scales.\n\n");
}

/// BSP-prunes every weight of a fresh model of the given width and
/// returns it with its masks (the full-size performance-model recipe
/// bench_streaming uses).
struct ThroughputModel {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
};

ThroughputModel build_throughput_model(std::size_t hidden,
                                       double keep_fraction) {
  ThroughputModel out;
  Rng rng(1234);
  out.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  out.model->init(rng);
  ParamSet params;
  out.model->register_params(params);
  for (const std::string& name : out.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, keep_fraction);
    mask.apply(w);
    out.masks.emplace(name, std::move(mask));
  }
  return out;
}

void run_throughput_section(std::size_t hidden, std::size_t threads,
                            std::size_t frames, std::size_t batch,
                            double keep, JsonReport& report) {
  std::printf(
      "== Packed-kernel throughput: hidden=%zu threads=%zu frames=%zu "
      "batch=%zu keep=%.2f ==\n\n",
      hidden, threads, frames, batch, keep);

  const ThroughputModel tm = build_throughput_model(hidden, keep);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  Table table({"precision", "weight MB", "1-stream fps", "batched fps",
               "batched speedup"});
  double base_batched_fps = 0.0;
  for (const WeightPrecision precision : kPrecisions) {
    CompilerOptions options;
    options.format = SparseFormat::kBspc;
    options.threads = threads;
    options.precision = precision;
    const CompiledSpeechModel compiled(*tm.model, tm.masks, options,
                                       pool.get());

    const auto time_fps = [&](std::size_t run_batch) {
      // Warm-up pass touches every weight once, then best-of-2 timing.
      compiled.run_recurrence(2, run_batch);
      double best_us = 0.0;
      for (int rep = 0; rep < 2; ++rep) {
        WallTimer timer;
        compiled.run_recurrence(frames, run_batch);
        const double us = timer.elapsed_us();
        if (rep == 0 || us < best_us) best_us = us;
      }
      return static_cast<double>(frames * run_batch) / (best_us * 1e-6);
    };

    const double single_fps = time_fps(1);
    const double batched_fps = time_fps(batch);
    if (precision == WeightPrecision::kFp32) base_batched_fps = batched_fps;
    const double weight_mb =
        static_cast<double>(compiled.total_memory_bytes()) / (1024.0 * 1024.0);
    table.add_row(
        {to_string(precision), format_double(weight_mb, 2),
         format_double(single_fps, 0), format_double(batched_fps, 0),
         format_double(
             base_batched_fps > 0.0 ? batched_fps / base_batched_fps : 0.0,
             2)});

    JsonRecord record;
    record.set("experiment", "quantization_throughput");
    record.set("precision", to_string(precision));
    record.set("hidden", static_cast<std::int64_t>(hidden));
    record.set("threads", static_cast<std::int64_t>(threads));
    record.set("batch", static_cast<std::int64_t>(batch));
    record.set("weight_bytes",
               static_cast<std::int64_t>(compiled.total_memory_bytes()));
    record.set("single_stream_fps", single_fps);
    record.set("batched_fps", batched_fps);
    report.add(record);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Batched rows stream each weight matrix once per timestep for the\n"
      "whole batch; the int8 payload's 4x bandwidth shrink is the win to\n"
      "look for.\n\n");
}

/// Kernel-level matvec vs matmat on one recurrent-scale matrix: how
/// much streaming each weight block once for the whole batch
/// (PackedQuantizedBspc::spmm_stripe_list over every stripe, what
/// step_batch runs above width 1) gains over once per stream (spmv),
/// isolated from the rest of the step.
void run_matmat_section(std::size_t hidden, std::size_t frames,
                        std::size_t batch, double keep,
                        JsonReport& report) {
  std::printf("== Kernel headroom: spmv x batch vs spmm (U-matrix %zux%zu) "
              "==\n\n",
              hidden, hidden);
  Rng rng(77);
  Matrix w(hidden, hidden);
  fill_normal(w.span(), rng, 1.0F);
  BlockMask mask = block_column_mask(w, 8, 4, keep);
  mask.apply(w);
  const BspcMatrix bspc = BspcMatrix::from_dense(w, mask);

  Matrix x(batch, hidden);
  fill_normal(x.span(), rng, 1.0F);
  Matrix y(batch, hidden);
  const std::size_t iters = std::max<std::size_t>(frames, 8);
  std::vector<std::uint32_t> stripes(bspc.num_stripes());
  std::iota(stripes.begin(), stripes.end(), 0U);

  Table table({"precision", "spmv x batch us", "spmm us", "matmat gain"});
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerTensor,
        WeightPrecision::kInt8PerRow}) {
    const PackedQuantizedBspc packed =
        PackedQuantizedBspc::pack(bspc, precision);
    const double spmv_us = time_best_of_us(
        [&] {
          for (std::size_t b = 0; b < batch; ++b) {
            packed.spmv(x.row(b), y.row(b));
          }
        },
        iters, 2);
    std::vector<float> scratch(packed.spmm_scratch_floats(batch));
    const double spmm_us = time_best_of_us(
        [&] { packed.spmm_stripe_list(x, y, batch, stripes, scratch); },
        iters, 2);
    table.add_row({to_string(precision), format_double(spmv_us, 1),
                   format_double(spmm_us, 1),
                   format_double(spmm_us > 0.0 ? spmv_us / spmm_us : 0.0,
                                 2)});
    JsonRecord record;
    record.set("experiment", "quantization_matmat");
    record.set("precision", to_string(precision));
    record.set("batch", static_cast<std::int64_t>(batch));
    record.set("spmv_batch_us", spmv_us);
    record.set("spmm_us", spmm_us);
    report.add(record);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Gain > 1 means the batched matmat beats per-stream matvecs at the\n"
      "kernel level; ~1 or below means the weights were already\n"
      "cache-resident.\n");
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_flag("hidden", "1024",
               "GRU width of the throughput model (the paper's full size)");
  cli.add_flag("threads", std::to_string(ThreadPool::default_thread_count()),
               "thread pool size for the throughput sweep");
  cli.add_flag("frames", "150", "recurrence timesteps per measurement");
  cli.add_flag("batch", "8", "concurrent streams in the batched rows");
  cli.add_flag("keep", "0.25", "BSP column keep fraction");
  cli.add_switch("quick",
                 "small model + short runs (CI smoke run; overrides "
                 "--hidden, --frames, and --batch)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("bench_quantization").c_str());
    return 1;
  }

  const bool quick = cli.get_switch("quick");
  const std::size_t hidden =
      quick ? 128 : static_cast<std::size_t>(cli.get_int("hidden"));
  const std::size_t frames =
      quick ? 30 : static_cast<std::size_t>(cli.get_int("frames"));
  const std::size_t batch =
      quick ? 4 : static_cast<std::size_t>(cli.get_int("batch"));
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  const double keep = cli.get_double("keep");

  JsonReport report;
  run_accuracy_section(quick, report);
  run_throughput_section(hidden, threads, frames, batch, keep, report);
  run_matmat_section(hidden, frames, batch, keep, report);
  report.write_file("quantization.json");
  return 0;
}
