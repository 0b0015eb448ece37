// The traced run: the per-layer view of one workload.
//
// Everything is timed from the benchmark's side of public calls; nothing
// inside the library is instrumented. Three steps:
//  A. The workload's inputs through the started stack again, for 40% of
//     the run, with the generator's calls timed (serve ingress and poll,
//     WireClient sends, wire bytes) and the fleet's cache, shard and
//     step-width counters read afterwards. The batch workloads carry no
//     TCP streams, so for them a probe then serves a few streams alone,
//     in-process and over TCP, for the net layer's figures.
//  B. One shard's share of the same inputs through a caller-driven
//     serve::LocalRecognizer on a replica compiled the same way: an
//     untimed pass, a timed pass and another untimed pass of equal work
//     (the gap is the tracing overhead). Timed passes time every call
//     (submit_audio runs MFCC, step runs the runtime, poll_events
//     flushes events) and repeat each step's
//     CompiledSpeechModel::step_batch directly, at the step's width,
//     right after it: the kernel share of that step. B's mean step width
//     must match the stack's (A's) within kWidthTolerance.
//  C. Direct replays of the other layers: each LayerPlan::execute_batch
//     at B's mean width, the StreamingDecoder over B's logits,
//     PrefixCache lookup/insert over B's frames, and the wire codec;
//     plus a STREAM-style triad as the host's bandwidth ceiling.
// The runtime's self time is B's step time minus the kernel, decoder and
// cache times measured apart from it; it must not go below
// -kUnattributedTolerance of B's wall time (the replays may not claim
// more than the steps took). What B's timed calls miss of its wall time
// is reported as trace.unattributed_share.
#pragma once

#include "inputs.hpp"
#include "measure.hpp"
#include "stack.hpp"

namespace rtbench {

/// Share of --seconds step A runs the stack for; the traced run's inputs
/// are generated for this window.
inline constexpr double kTracedWindowShare = 0.4;
/// The layer check fails when trace.share.runtime drops below minus this,
/// or |trace.unattributed_share| exceeds it.
inline constexpr double kUnattributedTolerance = 0.05;

void run_traced(Stack& stack, const Inputs& inputs, double seconds,
                Result& result);

}  // namespace rtbench
