#include "stack.hpp"

#include <chrono>
#include <stdexcept>

#include "net/wire_client.hpp"
#include "rnn/param_set.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtbench {

using namespace rtmobile;

CompilerOptions compiler_options() {
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.precision = WeightPrecision::kInt8PerRow;
  options.activation = ActivationPrecision::kFp32;
  options.threads = 1;
  return options;
}

serve::ShardConfig shard_config() {
  serve::ShardConfig config;
  config.shards = kShards;
  config.threads_per_shard = 1;
  config.policy = serve::RoutePolicy::kLeastLoaded;
  config.engine.cache.enabled = true;
  return config;
}

serve::OpenResult TcpView::try_open_stream(const serve::StreamConfig& config) {
  const serve::OpenResult result = engine_.try_open_stream(config);
  if (result.ok()) {
    const std::lock_guard lock(mutex_);
    handles_.insert(result.handle.id);
  }
  return result;
}

bool TcpView::close_stream(serve::StreamHandle h) {
  const bool ok = engine_.close_stream(h);
  if (ok) {
    const std::lock_guard lock(mutex_);
    handles_.erase(h.id);
  }
  return ok;
}

std::size_t TcpView::poll_events(std::vector<serve::RecognizerEvent>& out) {
  const std::lock_guard lock(mutex_);
  std::size_t appended = 0;
  for (const std::uint64_t id : handles_) {
    scratch_.clear();
    const serve::StreamHandle h{id};
    engine_.poll_events(h, scratch_);
    for (speech::StreamEvent& event : scratch_) {
      out.push_back({h, std::move(event)});
      ++appended;
    }
  }
  return appended;
}

Stack::Stack() {
  Rng rng(kModelSeed);
  model_ = std::make_unique<SpeechModel>(ModelConfig::scaled(kHidden));
  model_->init(rng);
  ParamSet params;
  model_->register_params(params);
  for (const std::string& name : model_->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, kMaskRows, kMaskCols, kKeep);
    mask.apply(w);
    masks_.emplace(name, std::move(mask));
  }
  engine_ = std::make_unique<serve::ShardedEngine>(
      *model_, masks_, compiler_options(), shard_config());
  engine_->start();
  view_ = std::make_unique<TcpView>(*engine_);
  net::ServerConfig server;
  server.drive_recognizer = false;
  server_ = std::make_unique<net::RecognizerServer>(*view_, server);
  server_->start();
}

Stack::~Stack() { stop(); }

void Stack::stop() {
  if (stopped_) return;
  stopped_ = true;
  server_->stop();
  engine_->stop();
}

std::unique_ptr<Stack> build_stack(double* setup_seconds) {
  const auto start = std::chrono::steady_clock::now();
  auto stack = std::make_unique<Stack>();
  net::WireClient client;
  client.connect("127.0.0.1", stack->port());
  net::WireError error = net::WireError::kProtocol;
  if (!client.open(net::OpenRequest{}, &error)) {
    throw std::runtime_error(std::string("set-up OPEN refused: ") +
                             net::to_string(error));
  }
  *setup_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  client.send_close();
  // Wait for the server's orderly close so the probe stream is gone
  // before the workload starts.
  while (client.read_message()) {
  }
  return stack;
}

}  // namespace rtbench
