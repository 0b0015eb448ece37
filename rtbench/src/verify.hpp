// Output check: served transcripts and logits against the batch path on
// the same compiled model.
#pragma once

#include <vector>

#include "drive.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "stack.hpp"

namespace rtbench {

/// Compares every served stream with batch MFCC -> CompiledSpeechModel::
/// infer -> greedy_decode of its utterance, on the stack's (stopped) shard
/// models. Each mismatch is an attempted-and-failed operation. Returns
/// the number of streams checked.
std::size_t check_outputs(Stack& stack, const Inputs& inputs,
                          const std::vector<Served>& served, Result& result);

}  // namespace rtbench
