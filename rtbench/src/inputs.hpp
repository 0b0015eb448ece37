// Seeded workload inputs. Everything the program under test receives is
// generated here, before any timing starts, from the workload name and
// --seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rtbench {

inline constexpr double kSampleRate = 16000.0;
inline constexpr double kMinUtteranceSeconds = 2.0;
inline constexpr double kMaxUtteranceSeconds = 5.0;
inline constexpr std::size_t kInFlight = 32;  // batch workloads
/// live_tcp: streams on TCP at any time (batch workloads use none).
inline constexpr std::size_t kTcpStreams = 4;
inline constexpr double kBatchChunkSeconds = 1.0;
inline constexpr double kLiveChunkSeconds = 0.1;
inline constexpr std::size_t kZipfPool = 48;
inline constexpr double kZipfSkew = 1.1;
inline constexpr std::size_t kZipfPhones = 22;
inline constexpr std::size_t kZipfSamplesPerPhone = 2400;  // 150 ms
/// Offered load of live_tcp in audio seconds per wall second: about 70%
/// of batch_unique's xrt on the reference host when it was set, 40% when
/// that host ran fast (see METHOD.md). Fixed; never derived from a run.
inline constexpr double kLiveOfferedXrt = 23.0;
inline constexpr double kSloMs = 200.0;
/// One stream in this many (seeded) is checked against the batch path.
inline constexpr std::size_t kCheckEvery = 16;

enum class Workload { kBatchUnique, kBatchZipf, kLiveTcp };

[[nodiscard]] bool parse_workload(const std::string& name, Workload* out);
[[nodiscard]] const char* to_string(Workload workload);

struct Utterance {
  std::vector<float> wave;
  [[nodiscard]] double seconds() const {
    return static_cast<double>(wave.size()) / kSampleRate;
  }
};

/// One stream the generator opens: which utterance, whether its output
/// is checked against the batch path, and (live) when it arrives.
struct StreamPlan {
  std::size_t utterance = 0;  // index into Inputs::utterances
  bool checked = false;
  double arrival_s = 0.0;  // live: offset from the window start
};

struct Inputs {
  Workload workload = Workload::kBatchUnique;
  std::vector<Utterance> utterances;
  /// In-process streams in the order the generator opens them. Batch
  /// workloads open the next one whenever a stream finishes (the list
  /// holds more than a run can use); live_tcp opens each at its arrival.
  std::vector<StreamPlan> streams;
  /// live_tcp: the same for each of the kTcpStreams TCP slots, spaced so
  /// a slot's previous stream has ended. Empty for batch workloads.
  std::vector<std::vector<StreamPlan>> tcp;
};

/// live_tcp streams arrive during the first this-many seconds of a run of
/// `seconds`, leaving time for the last ones to finish.
[[nodiscard]] double live_arrival_window(double seconds);

/// Generates the inputs for `seconds` of `workload` traffic from `seed`.
[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed,
                                 double seconds);

}  // namespace rtbench
