#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace rtbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double windowed_quantile(const std::vector<std::pair<double, double>>& samples,
                         double t0, double t1, std::size_t windows, double q) {
  std::vector<std::vector<double>> bins(windows);
  const double width = (t1 - t0) / static_cast<double>(windows);
  for (const auto& [t, value] : samples) {
    if (t < t0 || t >= t1) continue;
    const auto bin = static_cast<std::size_t>((t - t0) / width);
    bins[std::min(bin, windows - 1)].push_back(value);
  }
  std::vector<double> per_window;
  for (std::vector<double>& bin : bins) {
    if (!bin.empty()) per_window.push_back(quantile(std::move(bin), q));
  }
  return quantile(std::move(per_window), 0.5);
}

void Result::set_latency(const std::string& base,
                         const std::vector<double>& ms, double tail,
                         const std::string& tail_name) {
  set(base + "_p50", quantile(ms, 0.5), "ms", ms.size());
  set(base + "_" + tail_name, quantile(ms, tail), "ms", ms.size());
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {

double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

double current_rss_mb() { return status_mb("VmRSS:"); }

}  // namespace rtbench
