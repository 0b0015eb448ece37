#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "speech/phones.hpp"
#include "speech/synth.hpp"
#include "util/rng.hpp"

namespace rtbench {

using namespace rtmobile;

namespace {

/// Batch workloads pre-generate streams for this many audio seconds per
/// wall second of run time: 3.5x the xrt each reaches on the reference
/// host, so a run never exhausts its list (if one does, the run fails
/// rather than repeat utterances).
constexpr double kUniqueAudioPerSecond = 120.0;
constexpr double kZipfAudioPerSecond = 500.0;
constexpr double kMeanUtteranceSeconds =
    (kMinUtteranceSeconds + kMaxUtteranceSeconds) / 2.0;
/// A live TCP slot takes its next arrival only this long after its
/// previous stream's audio ended, so a slot never holds two streams.
constexpr double kTcpSlotGapSeconds = 1.0;
constexpr std::size_t kFrameShift = 160;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return splitmix64(state);
}

/// A distinct random-phone utterance of about `seconds`, frame-aligned.
Utterance render_distinct(const speech::Synthesizer& synth,
                          std::uint64_t seed, std::size_t key,
                          double seconds) {
  Rng rng(derive(seed, 0x100000 + key));
  const auto target = static_cast<std::size_t>(seconds * kSampleRate) /
                      kFrameShift * kFrameShift;
  std::vector<std::size_t> phones;
  std::vector<std::size_t> durations;
  std::size_t total = 0;
  while (total < target) {
    const std::size_t d =
        std::min<std::size_t>(800 + rng.next_below(1601), target - total);
    phones.push_back(rng.next_below(speech::kNumSurfacePhones));
    durations.push_back(d);
    total += d;
  }
  return {synth.render_sequence(phones, durations, rng)};
}

/// `count` utterance lengths in [kMinUtteranceSeconds,
/// kMaxUtteranceSeconds], stratified in blocks of kLengthBlock: each
/// block covers the range evenly in shuffled order, so any run-sized
/// prefix has the same length mix whatever the seed.
std::vector<double> stratified_lengths(std::size_t count, Rng& rng) {
  constexpr std::size_t kLengthBlock = 16;
  const double span = kMaxUtteranceSeconds - kMinUtteranceSeconds;
  std::vector<double> lengths;
  while (lengths.size() < count) {
    std::vector<double> block;
    for (std::size_t j = 0; j < kLengthBlock; ++j) {
      block.push_back(kMinUtteranceSeconds +
                      span * (static_cast<double>(j) + rng.next_double()) /
                          static_cast<double>(kLengthBlock));
    }
    for (std::size_t j = block.size(); j > 1; --j) {
      std::swap(block[j - 1], block[rng.next_below(j)]);
    }
    lengths.insert(lengths.end(), block.begin(), block.end());
  }
  lengths.resize(count);
  return lengths;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w :
       {Workload::kBatchUnique, Workload::kBatchZipf, Workload::kLiveTcp}) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kBatchUnique:
      return "batch_unique";
    case Workload::kBatchZipf:
      return "batch_zipf";
    case Workload::kLiveTcp:
      return "live_tcp";
  }
  return "?";
}

double live_arrival_window(double seconds) {
  return std::max(1.0, seconds - kMaxUtteranceSeconds);
}

Inputs make_inputs(Workload workload, std::uint64_t seed, double seconds) {
  Inputs inputs;
  inputs.workload = workload;
  const speech::Synthesizer synth;
  Rng check_rng(derive(seed, 1));
  const auto checked = [&] { return check_rng.next_below(kCheckEvery) == 0; };

  Rng length_rng(derive(seed, 4));
  if (workload == Workload::kLiveTcp) {
    // Jittered arrivals: the window is cut into one slot per arrival and
    // each arrival falls at a uniform random time in its slot. Unlike a
    // Poisson process, the number of live streams then stays near the
    // offered load, so the lag figures do not hinge on how a seed's
    // arrivals happen to cluster.
    inputs.tcp.resize(kTcpStreams);
    Rng arrivals(derive(seed, 2));
    const double window = live_arrival_window(seconds);
    const auto count = static_cast<std::size_t>(
        std::lround(window * kLiveOfferedXrt / kMeanUtteranceSeconds));
    const double slot = window / static_cast<double>(count);
    std::vector<double> times;
    for (std::size_t i = 0; i < count; ++i) {
      times.push_back(slot * (static_cast<double>(i) + arrivals.next_double()));
    }
    const std::vector<double> lengths = stratified_lengths(count, length_rng);
    std::array<double, kTcpStreams> slot_free{};
    for (std::size_t key = 0; key < count; ++key) {
      const double t = times[key];
      inputs.utterances.push_back(
          render_distinct(synth, seed, key, lengths[key]));
      const StreamPlan plan{key, checked(), t};
      const auto slot = std::find_if(slot_free.begin(), slot_free.end(),
                                     [t](double free) { return free <= t; });
      if (slot != slot_free.end()) {
        *slot = t + inputs.utterances.back().seconds() + kTcpSlotGapSeconds;
        inputs.tcp[static_cast<std::size_t>(slot - slot_free.begin())]
            .push_back(plan);
      } else {
        inputs.streams.push_back(plan);
      }
    }
    return inputs;
  }

  if (workload == Workload::kBatchUnique) {
    const auto count = static_cast<std::size_t>(
        std::max(1.0, seconds) * kUniqueAudioPerSecond / kMeanUtteranceSeconds);
    const std::vector<double> lengths = stratified_lengths(count, length_rng);
    for (std::size_t key = 0; key < count; ++key) {
      inputs.utterances.push_back(
          render_distinct(synth, seed, key, lengths[key]));
      inputs.streams.push_back({key, checked(), 0.0});
    }
    return inputs;
  }

  speech::RepeatTrafficConfig traffic;
  traffic.distinct_utterances = kZipfPool;
  traffic.skew = kZipfSkew;
  traffic.phones_per_utterance = kZipfPhones;
  traffic.samples_per_phone = kZipfSamplesPerPhone;
  traffic.seed = derive(seed, 3);
  speech::UtteranceRepeatGenerator generator(traffic);
  for (std::size_t rank = 0; rank < kZipfPool; ++rank) {
    inputs.utterances.push_back({generator.utterance(rank)});
  }
  const double draw_seconds = inputs.utterances.front().seconds();
  const auto draws = static_cast<std::size_t>(
      std::max(1.0, seconds) * kZipfAudioPerSecond / draw_seconds);
  for (std::size_t i = 0; i < draws; ++i) {
    inputs.streams.push_back({generator.next_rank(), checked(), 0.0});
  }
  return inputs;
}

}  // namespace rtbench
