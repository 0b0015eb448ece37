// The serving stack every workload drives: the paper-width GRU, BSP-pruned
// and compiled to int8 per-row weights, behind a started two-shard
// ShardedEngine with the prefix cache on, fronted by a RecognizerServer in
// pump mode on a loopback port.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "compiler/execution_plan.hpp"
#include "net/recognizer_server.hpp"
#include "rnn/model.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"

namespace rtbench {

inline constexpr std::size_t kHidden = 1024;
inline constexpr std::size_t kShards = 2;
inline constexpr double kKeep = 0.1;  // Table I 10x row: 8x4 blocks
inline constexpr std::size_t kMaskRows = 8;
inline constexpr std::size_t kMaskCols = 4;
inline constexpr std::uint64_t kModelSeed = 1234;

/// The compiler options every replica (and every reference) uses.
[[nodiscard]] rtmobile::CompilerOptions compiler_options();
/// The shard layout: 2 shards x 1 thread, default cache, least-loaded.
[[nodiscard]] rtmobile::serve::ShardConfig shard_config();

/// The TCP front's view of the shared engine. RecognizerServer's
/// drain-all poll would otherwise take the events of the in-process
/// streams too; this view forwards every call but polls only the streams
/// opened through it.
class TcpView final : public rtmobile::serve::Recognizer {
 public:
  explicit TcpView(rtmobile::serve::ShardedEngine& engine) : engine_(engine) {}

  rtmobile::serve::OpenResult try_open_stream(
      const rtmobile::serve::StreamConfig& config) override;
  bool submit_audio(rtmobile::serve::StreamHandle h,
                    std::span<const float> samples) override {
    return engine_.submit_audio(h, samples);
  }
  bool finish_stream(rtmobile::serve::StreamHandle h) override {
    return engine_.finish_stream(h);
  }
  bool close_stream(rtmobile::serve::StreamHandle h) override;
  std::size_t poll_events(rtmobile::serve::StreamHandle h,
                          std::vector<rtmobile::speech::StreamEvent>& out)
      override {
    return engine_.poll_events(h, out);
  }
  std::size_t poll_events(
      std::vector<rtmobile::serve::RecognizerEvent>& out) override;
  bool wait_for_events(std::chrono::microseconds timeout) override {
    return engine_.wait_for_events(timeout);
  }
  bool stream_done(rtmobile::serve::StreamHandle h) const override {
    return engine_.stream_done(h);
  }
  rtmobile::serve::StreamDeadlineStats stream_deadline_stats(
      rtmobile::serve::StreamHandle h) const override {
    return engine_.stream_deadline_stats(h);
  }
  rtmobile::Matrix stream_logits(
      rtmobile::serve::StreamHandle h) const override {
    return engine_.stream_logits(h);
  }
  std::size_t drain() override { return engine_.drain(); }
  rtmobile::serve::GlobalStats stats() const override {
    return engine_.stats();
  }
  void reset_stats() override { engine_.reset_stats(); }

 private:
  rtmobile::serve::ShardedEngine& engine_;
  std::mutex mutex_;
  std::set<std::uint64_t> handles_;  // guarded by mutex_
  std::vector<rtmobile::speech::StreamEvent> scratch_;  // guarded by mutex_
};

/// A started stack. Construction is the set-up `setup_s` times; the
/// destructor stops the server and the pumps.
class Stack {
 public:
  Stack();
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] rtmobile::serve::ShardedEngine& engine() { return *engine_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const rtmobile::SpeechModel& model() const { return *model_; }
  [[nodiscard]] const std::map<std::string, rtmobile::BlockMask>& masks()
      const {
    return masks_;
  }
  /// Stops the server and the pumps (idempotent); stream results stay
  /// readable on the engine afterwards.
  void stop();

 private:
  std::unique_ptr<rtmobile::SpeechModel> model_;
  std::map<std::string, rtmobile::BlockMask> masks_;
  std::unique_ptr<rtmobile::serve::ShardedEngine> engine_;
  std::unique_ptr<TcpView> view_;
  std::unique_ptr<rtmobile::net::RecognizerServer> server_;
  bool stopped_ = false;
};

/// Builds a Stack and waits until a TCP OPEN is accepted, returning the
/// seconds that took.
[[nodiscard]] std::unique_ptr<Stack> build_stack(double* setup_seconds);

}  // namespace rtbench
