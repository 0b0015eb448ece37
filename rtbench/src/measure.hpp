// Sample collection and the run's result record.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rtbench {

/// Seconds on the steady clock since the process's first call.
[[nodiscard]] double now_s();

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Splits [t0, t1) into `windows` equal sub-windows, takes the q-quantile
/// of the (time, value) samples in each, and returns the median of those
/// (sub-windows without samples are skipped; 0 when all are empty).
[[nodiscard]] double windowed_quantile(
    const std::vector<std::pair<double, double>>& samples, double t0,
    double t1, std::size_t windows, double q);

/// One reported metric: value, unit, and how many samples it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a run reports: its metrics by name, the operation tally behind
/// fail_share, and free-form notes printed with the record.
struct Result {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::map<std::string, std::string> notes;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Median and tail quantile of a latency series, named `<base>_p50`
  /// and `<base>_<tail_name>`.
  void set_latency(const std::string& base, const std::vector<double>& ms,
                   double tail, const std::string& tail_name);
  void fail(const std::string& why);
};

/// Current resident set (VmRSS), in MB.
[[nodiscard]] double current_rss_mb();

}  // namespace rtbench
