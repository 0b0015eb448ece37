// CompiledSpeechModel: the deployable inference artifact.
//
// This is what "RTMobile deployment" produces: every weight matrix of the
// GRU stack compiled to a LayerPlan (format + reorder + LRE + thread
// partition), executing the same recurrence as SpeechModel::forward but
// through the optimized kernels. Numerical output is bit-comparable to the
// reference forward pass up to float accumulation order.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "compiler/execution_plan.hpp"
#include "hw/thread_pool.hpp"
#include "rnn/model.hpp"
#include "sparse/block_mask.hpp"

namespace rtmobile {

/// Recurrent state of one audio stream: the hidden vector of every GRU
/// layer. Obtained from CompiledSpeechModel::make_state and threaded
/// through step_batch so many concurrent streams can share one compiled
/// model.
struct StreamState {
  std::vector<Vector> h;  // [num_layers][hidden_dim]

  /// Zeroes all hidden vectors (start of a new utterance).
  void reset() {
    for (Vector& layer : h) layer.fill(0.0F);
  }
};

/// What one step_batch dispatch ran: the compute width (streams
/// advanced). The engine mirrors it into RuntimeStats / telemetry
/// (rt_fused_steps_total, rt_fused_batch_width).
struct StepResult {
  std::size_t width = 0;
  /// Always true: every step runs the batched spine. Kept only because
  /// rtbench reads it; a benchmark change may drop it.
  bool fused = true;
};

class CompiledSpeechModel {
 public:
  /// Compiles `model` under `options`. `masks` maps weight names
  /// ("gru0.w_z", ...) to their BSP structure; weights without an entry are
  /// compiled dense. `pool` (optional, not owned) enables multithreaded
  /// execution; it must outlive the compiled model.
  CompiledSpeechModel(const SpeechModel& model,
                      const std::map<std::string, BlockMask>& masks,
                      const CompilerOptions& options,
                      ThreadPool* pool = nullptr);

  /// Per-frame logits for an utterance (T x input_dim) -> (T x classes).
  [[nodiscard]] Matrix infer(const Matrix& features) const;

  /// Fresh zero-initialized recurrent state for one stream.
  [[nodiscard]] StreamState make_state() const;

  /// Advances `states.size()` independent streams by one timestep each:
  /// row b of `features` is stream b's input frame, `states[b]` carries
  /// its recurrence (updated in place), and row b of `logits` receives its
  /// per-frame class scores. `features`/`logits` may have extra trailing
  /// rows (callers reuse grow-only buffers across fluctuating batch
  /// sizes).
  ///
  /// Every width runs one batched spine: each layer gathers the batch's
  /// hidden states into one contiguous panel and drives each weight
  /// matrix ONCE over all streams (batched matmat). Width 1 is the
  /// per-vector kernel (LayerPlan::execute_batch delegates to execute)
  /// and never quantizes activations, so int8-activation models only
  /// take the code-by-code kernels at widths above 1. The panel's row
  /// order is the order of `states` (the caller's scheduler-gather
  /// order) and is part of the numerics contract: fp32/fp16/int8-weight
  /// output is bit-identical to infer() per stream, independent of
  /// batch composition, because every per-stream accumulation keeps its
  /// per-vector order — so chunked streaming output equals
  /// whole-utterance inference.
  ///
  /// The panels live on the model and grow to the widest batch seen, so
  /// a steady serving loop is allocation-free per timestep; as a
  /// consequence step_batch must not be called concurrently on the same
  /// CompiledSpeechModel (each serving shard owns its own instance).
  StepResult step_batch(const Matrix& features,
                        std::span<StreamState* const> states,
                        Matrix& logits) const;

  /// Runs only the recurrent stack for `frames` timesteps on zero input —
  /// the steady-state inference kernel that Table II times. `batch` > 1
  /// measures the batched multi-stream path (one state per stream).
  void run_recurrence(std::size_t frames, std::size_t batch = 1) const;

  /// Total surviving weights across all compiled plans.
  [[nodiscard]] std::size_t total_nnz() const;

  /// Total compiled storage (values + indices) in bytes.
  [[nodiscard]] std::size_t total_memory_bytes() const;

  /// Worst load-imbalance factor across plans.
  [[nodiscard]] double worst_imbalance() const;

  /// Per-plan timing breakdown measured on synthetic inputs.
  struct PlanProfile {
    std::string name;       // e.g. "gru1.u_h"
    std::size_t nnz = 0;
    double time_us = 0.0;   // mean matvec time
    double share = 0.0;     // fraction of the summed matvec time
  };
  /// Times every compiled plan (`iters` matvecs each, best of 2 batches)
  /// and returns the breakdown, heaviest first. Identifies which matrices
  /// dominate inference — the input the auto-tuner prioritizes.
  [[nodiscard]] std::vector<PlanProfile> profile(
      std::size_t iters = 50) const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }
  [[nodiscard]] const CompilerOptions& options() const { return options_; }

 private:
  struct CompiledLayer {
    LayerPlan w_z, w_r, w_h;
    LayerPlan u_z, u_r, u_h;
    Vector b_z, b_r, b_h;
  };

  /// Hidden-sized scratch buffers for one stream's step_layer calls
  /// (infer and the single-stream recurrence); `lre` carries the BSPC
  /// kernels' gather buffers.
  struct StepScratch {
    explicit StepScratch(std::size_t hidden)
        : a(hidden), b(hidden), c(hidden), d(hidden) {}
    Vector a, b, c, d;
    LreScratch lre;
  };

  /// Panels and quantized-activation buffers for step_batch, grown to
  /// the widest batch seen and never shrunk. Row b of every panel
  /// belongs to stream b of the dispatched batch (states order). `h`
  /// holds the gathered previous hidden states; `out0`/`out1` alternate
  /// as each layer's output panel (the next layer's input); `a`..`d`
  /// mirror StepScratch's gate buffers, one row per stream. `xq`/`hq`/
  /// `gq` carry the int8 activation codes for the input, hidden, and
  /// (r.h) panels when the int8 activation path is on.
  struct BatchScratch {
    /// Grows every panel to at least `batch` rows of `hidden` floats.
    void reserve(std::size_t batch, std::size_t hidden) {
      if (h.rows() >= batch) return;
      for (Matrix* panel : {&h, &out0, &out1, &a, &b, &c, &d}) {
        *panel = Matrix(batch, hidden);
      }
    }
    Matrix h, out0, out1, a, b, c, d;
    QuantizedActivations xq, hq, gq;
    LreScratch lre;
  };

  /// One GRU timestep of one stream. `pool` threads the individual
  /// matvecs (nullptr = single-threaded).
  void step_layer(const CompiledLayer& layer, std::span<const float> x,
                  std::span<const float> h_prev, std::span<float> h_out,
                  StepScratch& scratch, ThreadPool* pool) const;

  ModelConfig config_;
  CompilerOptions options_;
  std::vector<CompiledLayer> layers_;
  LayerPlan fc_;
  Vector fc_b_;
  ThreadPool* pool_;
  /// step_batch's panels: scratch, not logical state, so the const step
  /// may fill them.
  mutable BatchScratch batch_;
  /// Compile-time decision: int8 activations requested AND every GRU /
  /// FC plan stores int8 weights, so batched steps can run code-by-code.
  bool q8_acts_ = false;
};

}  // namespace rtmobile
