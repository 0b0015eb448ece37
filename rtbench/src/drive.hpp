// The load generator: drives a started Stack from outside, in-process
// through serve::Recognizer and over loopback TCP through net::WireClient.
#pragma once

#include <cstdint>
#include <vector>

#include "inputs.hpp"
#include "measure.hpp"
#include "stack.hpp"
#include "tensor/matrix.hpp"

namespace rtbench {

/// What one served stream produced, kept for the post-window check.
struct Served {
  std::size_t utterance = 0;
  bool tcp = false;
  std::vector<std::uint16_t> transcript;  // concatenated stable deltas
  rtmobile::Matrix logits;                // in-process checked streams only
};

/// Time spent in one kind of call, and how many calls.
struct CallStat {
  double us = 0.0;
  std::size_t calls = 0;
  void add(double call_us) {
    us += call_us;
    ++calls;
  }
  [[nodiscard]] double mean_us() const {
    return calls > 0 ? us / static_cast<double>(calls) : 0.0;
  }
  void merge(const CallStat& other) {
    us += other.us;
    calls += other.calls;
  }
};

/// What the generator times around its own calls when tracing.
struct DriveTrace {
  CallStat submit;  // ShardedEngine::submit_audio / finish_stream
  CallStat poll;    // ShardedEngine::poll_events (one stream)
  CallStat send;    // WireClient::send_audio
  std::size_t refusals = 0;  // calls refused by ingress backpressure
  std::size_t bytes_out = 0;  // wire bytes the clients wrote
  std::size_t bytes_in = 0;   // wire bytes of the events they read
  void merge(const DriveTrace& other);
};

/// Runs `inputs` against `stack` for `seconds` and fills the end-to-end
/// metrics (except setup_s; peak_rss_mb is absolute) and the operation
/// tally.
/// With `trace` set, also times the generator's calls into it. Returns
/// the served streams whose output is to be checked.
std::vector<Served> run_workload(Stack& stack, const Inputs& inputs,
                                 double seconds, Result& result,
                                 DriveTrace* trace = nullptr);

/// What probe_tcp measured: median time from finish to final of the same
/// amount of audio served alone in-process and alone over TCP.
struct TcpProbe {
  double local_final_ms = 0.0;
  double tcp_final_ms = 0.0;
  std::size_t clips = 0;  // TCP clips the median rests on
};

/// Serves `count` 100 ms clips of the workload's utterances one at a time
/// on the otherwise idle stack, alternately in-process and over TCP (a
/// connection each), timing the TCP sends and counting wire bytes into
/// `trace`. The traced batch runs use it for the net layer, which their
/// workloads do not exercise.
TcpProbe probe_tcp(Stack& stack, const Inputs& inputs, std::size_t count,
                   Result& result, DriveTrace& trace);

/// Streams every utterance in `which` once through the stack (32 in
/// flight, untimed) and returns what each produced — the batch_zipf
/// check that covers every pool entry.
std::vector<Served> serve_each(Stack& stack, const Inputs& inputs,
                               const std::vector<std::size_t>& which,
                               Result& result);

}  // namespace rtbench
