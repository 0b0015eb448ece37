#include "verify.hpp"

#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "runtime/inference_engine.hpp"
#include "speech/decoder.hpp"
#include "speech/mfcc.hpp"

namespace rtbench {

using namespace rtmobile;

namespace {

struct Reference {
  Matrix logits;
  std::vector<std::uint16_t> transcript;
};

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

std::size_t check_outputs(Stack& stack, const Inputs& inputs,
                          const std::vector<Served>& served, Result& result) {
  stack.stop();
  std::map<std::size_t, Reference> refs;
  for (const Served& s : served) refs[s.utterance];
  std::vector<std::map<std::size_t, Reference>::iterator> todo;
  for (auto it = refs.begin(); it != refs.end(); ++it) todo.push_back(it);

  // One checking thread per shard model: infer() must not run
  // concurrently on one compiled model.
  const speech::MfccConfig mfcc = runtime::EngineConfig{}.mfcc;
  std::vector<std::thread> workers;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    workers.emplace_back([&, shard] {
      const CompiledSpeechModel& model = stack.engine().shard_model(shard);
      const speech::MfccExtractor extractor(mfcc);
      for (std::size_t i = shard; i < todo.size(); i += kShards) {
        Reference& ref = todo[i]->second;
        const Matrix features =
            extractor.extract(inputs.utterances[todo[i]->first].wave);
        ref.logits = model.infer(features);
        ref.transcript = speech::greedy_decode(ref.logits);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  for (const Served& s : served) {
    const Reference& ref = refs.at(s.utterance);
    ++result.attempted;
    const std::string who = std::string(s.tcp ? "TCP" : "in-process") +
                            " stream of utterance " +
                            std::to_string(s.utterance);
    if (s.transcript != ref.transcript) {
      result.fail("transcript mismatch: " + who);
    } else if (!s.tcp && !bit_equal(s.logits, ref.logits)) {
      result.fail("logits mismatch: " + who);
    }
  }
  return served.size();
}

}  // namespace rtbench
