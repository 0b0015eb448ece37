// Fused batched-step benchmark: W streams advanced one step_batch call
// per stream (width 1, the per-vector kernels, streaming every weight
// matrix once per stream) vs one width-W step_batch call (the batched
// matmat, streaming each weight matrix once for the whole batch), swept
// over batch width x precision x sparsity on the paper's full-size GRU
// (153 -> 1024 -> 1024 -> 39).
//
// Both sides of every cell run the same compiled model. Each cell is
// timed as kReps (5) baseline/fused pairs, alternating which side runs
// first; the table shows the median steady-state aggregate frames/s of
// each side and the median fused/baseline speedup with its p10/p90 over
// the pairs (a width-1 cell runs identical code on both sides, so its
// spread is the bench's own noise floor). The int8-weight cells are
// where the batched step amortizes each weight matrix's traffic across
// the whole batch: int8 (fp32 activations) broadcasts each weight across
// 8 streams of float activations and stays bit-identical to the
// per-vector kernel; int8+act8 additionally runs code-by-code integer
// dot products.
// The sweep is emitted as fused.json (a CI artifact).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "hw/thread_pool.hpp"
#include "hw/timer.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "sparse/block_mask.hpp"
#include "tensor/ops.hpp"
#include "tensor/precision.hpp"
#include "train/projection.hpp"
#include "util/cli.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace rtmobile {
namespace {

struct PrecisionCase {
  const char* name;
  WeightPrecision weights;
  ActivationPrecision activations;
};

struct BenchSetup {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
};

BenchSetup build_model(const ModelConfig& config, double keep) {
  BenchSetup setup;
  Rng rng(1234);
  setup.model = std::make_unique<SpeechModel>(config);
  setup.model->init(rng);
  ParamSet params;
  setup.model->register_params(params);
  for (const std::string& name : setup.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, keep);
    apply_row_pruning(w, 0.8, mask);
    mask.apply(w);
    setup.masks.emplace(name, std::move(mask));
  }
  return setup;
}

std::unique_ptr<CompiledSpeechModel> compile(const BenchSetup& setup,
                                             const PrecisionCase& precision,
                                             ThreadPool* pool) {
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.precision = precision.weights;
  options.activation = precision.activations;
  if (pool != nullptr) options.threads = pool->thread_count();
  return std::make_unique<CompiledSpeechModel>(*setup.model, setup.masks,
                                               options, pool);
}

/// Steady-state aggregate frames/s at a fixed batch width: `width`
/// streams advanced `rounds` timesteps on a shared random frame batch
/// (weight traffic per round is what the cell measures; the frame
/// content is irrelevant). `per_stream` advances each stream with its
/// own width-1 step_batch call instead of one width-`width` call.
double measure(const CompiledSpeechModel& m, std::size_t width,
               std::size_t rounds, bool per_stream) {
  Rng rng(99);
  Matrix features(width, m.config().input_dim);
  fill_normal(features.span(), rng, 1.0F);
  Matrix logits(width, m.config().num_classes);
  std::vector<StreamState> states(width, m.make_state());
  std::vector<StreamState*> ptrs;
  for (StreamState& s : states) ptrs.push_back(&s);

  const auto round = [&] {
    if (!per_stream) {
      m.step_batch(features, ptrs, logits);
      return;
    }
    for (std::size_t b = 0; b < width; ++b) {
      m.step_batch(features, std::span<StreamState* const>(&ptrs[b], 1),
                   logits);
    }
  };
  for (std::size_t warm = 0; warm < 3; ++warm) round();
  WallTimer timer;
  for (std::size_t r = 0; r < rounds; ++r) round();
  const double wall_us = timer.elapsed_us();
  return wall_us > 0.0
             ? static_cast<double>(width * rounds) / (wall_us * 1e-6)
             : 0.0;
}

/// Linear-interpolated quantile `q` of `values`.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

/// Timed baseline/fused pairs per cell.
constexpr std::size_t kReps = 5;

struct CellResult {
  double base = 0.0;     // median baseline frames/s
  double fast = 0.0;     // median fused frames/s
  double speedup = 0.0;  // median of the per-pair fused/baseline ratios
  double speedup_p10 = 0.0;
  double speedup_p90 = 0.0;
};

/// kReps timed baseline/fused pairs of one cell, alternating which side
/// runs first so a drifting host biases neither.
CellResult measure_cell(const CompiledSpeechModel& m, std::size_t width,
                        std::size_t rounds) {
  std::vector<double> base, fast, speedup;
  for (std::size_t r = 0; r < kReps; ++r) {
    const bool base_first = r % 2 == 0;
    const double first = measure(m, width, rounds, base_first);
    const double second = measure(m, width, rounds, !base_first);
    base.push_back(base_first ? first : second);
    fast.push_back(base_first ? second : first);
    speedup.push_back(base.back() > 0.0 ? fast.back() / base.back() : 0.0);
  }
  return {quantile(base, 0.5), quantile(fast, 0.5), quantile(speedup, 0.5),
          quantile(speedup, 0.1), quantile(speedup, 0.9)};
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_flag("threads", "4", "thread pool size (mobile big-core count)");
  cli.add_flag("keep", "0.25", "BSP column keep fraction");
  cli.add_flag("frames", "96",
               "timed stream-frames per cell (split into rounds by width)");
  cli.add_switch("quick", "small model + short sweep (CI smoke run)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("bench_fused").c_str());
    return 1;
  }

  const bool quick = cli.get_switch("quick");
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  const double keep = cli.get_double("keep");
  const std::size_t frames =
      quick ? 32 : static_cast<std::size_t>(cli.get_int("frames"));
  const ModelConfig config =
      quick ? ModelConfig::scaled(192) : ModelConfig::paper_full_size();

  std::printf(
      "Fused batched step vs per-stream matvecs: %zu->%zux%zu->%zu "
      "keep=%.2f threads=%zu%s\n\n",
      config.input_dim, config.hidden_dim, config.num_layers,
      config.num_classes, keep, threads, quick ? " (quick)" : "");

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  const std::vector<PrecisionCase> precisions = {
      {"fp32", WeightPrecision::kFp32, ActivationPrecision::kFp32},
      {"int8", WeightPrecision::kInt8PerRow, ActivationPrecision::kFp32},
      {"int8+act8", WeightPrecision::kInt8PerRow,
       ActivationPrecision::kInt8},
  };
  const std::vector<std::size_t> widths =
      quick ? std::vector<std::size_t>{1, 4, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};

  JsonReport report;
  Table table({"precision", "width", "baseline fr/s", "fused fr/s",
               "speedup", "p10-p90"});
  const auto spread = [](const CellResult& cell) {
    return format_double(cell.speedup_p10, 2) + "-" +
           format_double(cell.speedup_p90, 2);
  };
  const auto set_cell = [&](JsonRecord& record, const CellResult& cell) {
    record.set("reps", static_cast<std::int64_t>(kReps));
    record.set("baseline_frames_per_sec", cell.base);
    record.set("fused_frames_per_sec", cell.fast);
    record.set("speedup", cell.speedup);
    record.set("speedup_p10", cell.speedup_p10);
    record.set("speedup_p90", cell.speedup_p90);
  };
  const BenchSetup setup = build_model(config, keep);
  for (const PrecisionCase& precision : precisions) {
    const auto model = compile(setup, precision, pool.get());
    for (const std::size_t width : widths) {
      const std::size_t rounds = std::max<std::size_t>(12, frames / width);
      const CellResult cell = measure_cell(*model, width, rounds);
      table.add_row({precision.name, std::to_string(width),
                     format_double(cell.base, 0), format_double(cell.fast, 0),
                     format_double(cell.speedup, 2), spread(cell)});

      JsonRecord record;
      record.set("section", "width_sweep");
      record.set("precision", precision.name);
      record.set("activation", to_string(precision.activations));
      record.set("width", static_cast<std::int64_t>(width));
      record.set("keep", keep);
      record.set("threads", static_cast<std::int64_t>(threads));
      record.set("hidden", static_cast<std::int64_t>(config.hidden_dim));
      record.set("rounds", static_cast<std::int64_t>(rounds));
      set_cell(record, cell);
      report.add(std::move(record));
    }
  }

  // Sparsity sweep at width 8 for both int8-weight cells: int8 (fp32
  // activations, the stream-lane float kernel the serving benchmark
  // runs) and int8+act8 (the code-by-code integer kernel). How the fused
  // win scales as the kept-column fraction shrinks.
  if (!quick) {
    const std::size_t width = 8;
    const std::size_t rounds = std::max<std::size_t>(12, frames / width);
    for (const double sweep_keep : {0.1, 0.25, 0.5}) {
      const BenchSetup sparse = build_model(config, sweep_keep);
      for (const PrecisionCase& precision :
           {precisions[1], precisions[2]}) {
        const auto model = compile(sparse, precision, pool.get());
        const CellResult cell = measure_cell(*model, width, rounds);
        table.add_row({std::string(precision.name) + " keep=" +
                           format_double(sweep_keep, 2),
                       std::to_string(width), format_double(cell.base, 0),
                       format_double(cell.fast, 0),
                       format_double(cell.speedup, 2), spread(cell)});

        JsonRecord record;
        record.set("section", "sparsity_sweep");
        record.set("precision", precision.name);
        record.set("activation", to_string(precision.activations));
        record.set("width", static_cast<std::int64_t>(width));
        record.set("keep", sweep_keep);
        record.set("threads", static_cast<std::int64_t>(threads));
        set_cell(record, cell);
        report.add(std::move(record));
      }
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "baseline = one width-1 step_batch call per stream (per-vector "
      "kernels, each weight matrix streamed once per stream); fused = "
      "one step_batch call over the whole batch (each weight matrix "
      "driven once per layer per round). Medians over %zu alternating "
      "pairs; p10-p90 is the per-pair speedup spread. fp32 rows are "
      "bit-identical by construction (tests/test_fused.cpp); int8+act8 "
      "additionally quantizes the activation panels to int8 codes above "
      "width 1.\n",
      kReps);

  report.write_file("fused.json");
  std::printf("wrote fused.json (%zu records)\n", report.size());
  return 0;
}
