// SpeechModel: the paper's evaluation network — stacked GRU layers plus a
// per-frame linear classifier over phone classes.
//
// The full-size configuration (input 153, two GRU layers of 1024, 39
// classes) has 9,913,344 RNN parameters, matching the paper's "about 9.6M
// overall" GRU. Accuracy experiments use a scaled configuration
// (ModelConfig::scaled) because training the full model from scratch on a
// CPU is out of budget; performance experiments always use the full size.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "rnn/gru_cell.hpp"
#include "rnn/param_set.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace rtmobile {

struct ModelConfig {
  std::size_t input_dim = 39;
  std::size_t hidden_dim = 128;
  std::size_t num_layers = 2;
  std::size_t num_classes = 39;

  /// The paper's full-size GRU: 153 -> 1024 -> 1024 -> 39 (~9.9M params).
  [[nodiscard]] static ModelConfig paper_full_size();

  /// Scaled-down configuration used for the accuracy experiments.
  [[nodiscard]] static ModelConfig scaled(std::size_t hidden = 96);
};

/// Activation trace of one utterance forward pass, consumed by backward().
struct ModelForwardCache {
  // caches[layer][t]
  std::vector<std::vector<GruStepCache>> caches;
  // layer_inputs[layer] = T x dim matrix feeding that layer (layer 0: the
  // utterance features); final entry is the last GRU layer's output.
  std::vector<Matrix> layer_inputs;
};

class SpeechModel {
 public:
  explicit SpeechModel(const ModelConfig& config);

  [[nodiscard]] const ModelConfig& config() const { return config_; }

  /// Seeded weight initialization.
  void init(Rng& rng);

  /// Total learnable parameter count (weights + biases).
  [[nodiscard]] std::size_t param_count() const;

  /// Parameters surviving in the prunable weight matrices (|w| > 0), plus
  /// all bias parameters; the quantity reported as "Para. No." in Table I.
  [[nodiscard]] std::size_t nonzero_param_count() const;

  /// Runs an utterance (T x input_dim) and returns per-frame logits
  /// (T x num_classes). When `cache` is non-null, records activations.
  [[nodiscard]] Matrix forward(const Matrix& features,
                               ModelForwardCache* cache = nullptr) const;

  /// Backpropagates per-frame logit gradients (T x num_classes) through
  /// the whole stack, accumulating into `grads` (same-config model).
  void backward(const ModelForwardCache& cache, const Matrix& dlogits,
                SpeechModel& grads) const;

  /// Sets all parameters to zero (for use as a gradient accumulator).
  void zero();

  /// Registers every tensor ("gru0.w_z", ..., "fc.w", "fc.b").
  void register_params(ParamSet& set);
  /// Const overload for read-only walks (pruning statistics etc.).
  void register_params(ParamSet& set) const;

  /// Names of the prunable weight matrices, in registration order.
  [[nodiscard]] std::vector<std::string> weight_names() const;

  [[nodiscard]] GruParams& layer(std::size_t index);
  [[nodiscard]] const GruParams& layer(std::size_t index) const;
  [[nodiscard]] Matrix& fc_weight() { return fc_w_; }
  [[nodiscard]] const Matrix& fc_weight() const { return fc_w_; }
  [[nodiscard]] Vector& fc_bias() { return fc_b_; }
  [[nodiscard]] const Vector& fc_bias() const { return fc_b_; }

  /// Binary checkpoint I/O (matrices in registration order).
  void save(std::ostream& os) const;
  void load(std::istream& is);
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

  /// Model-generic cache alias used by the templated trainer.
  using ForwardCache = ModelForwardCache;

 private:
  ModelConfig config_;
  std::vector<GruParams> layers_;
  Matrix fc_w_;  // [num_classes x hidden]
  Vector fc_b_;  // [num_classes]
};

}  // namespace rtmobile
