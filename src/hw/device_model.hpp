// Analytic timing models for the mobile targets the paper measures on.
//
// We do not have a Snapdragon 855, so Table II's device columns are
// reproduced with a calibrated sublinear-scaling model:
//
//   time_us(workload) = overhead_us
//                       + gop / dense_gops * 1e6 * CR^(1 - q)
//
// i.e. pruning work by a factor CR only buys a CR^q speedup (q < 1): as
// compression rises the kernel becomes I/O- and memory-bound and the
// access pattern more irregular, so sustained throughput degrades as
// CR^(1-q). Equivalently effective_gops(CR) = dense_gops * CR^(q-1),
// reproducing Table II's observation that effective GOP/s falls from
// 161.55 (dense) to 25.27 (301x) on the GPU.
//
// Each preset is calibrated from exactly two anchors of Table II (the
// dense endpoint and the 301x endpoint) plus the sparsity exponent q;
// every intermediate row is then a *prediction* of the model, which
// bench_table2_perf_energy prints beside the paper's measurements and
// tests/test_hw.cpp holds within tolerance of them.
#pragma once

#include <string>

namespace rtmobile {

/// One inference workload: total giga-operations per frame and the
/// compression rate of the weights it runs with.
struct Workload {
  double gop = 0.0;               // giga-operations per inference frame
  double compression_rate = 1.0;  // >= 1
};

class DeviceModel {
 public:
  /// `dense_gops`: sustained GOP/s on the uncompressed model;
  /// `sparsity_exponent`: q in the CR^q speedup law (in (0, 1]);
  /// `max_cr`: calibration range bound — behaviour beyond is clamped;
  /// `overhead_us`: fixed per-inference dispatch overhead;
  /// `power_watts`: average board power attributed to the device.
  DeviceModel(std::string name, double dense_gops, double sparsity_exponent,
              double max_cr, double overhead_us, double power_watts);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double power_watts() const { return power_watts_; }

  /// Sustained throughput at a given compression rate (clamped to the
  /// calibrated range).
  [[nodiscard]] double effective_gops(double compression_rate) const;

  /// Predicted per-frame inference time in microseconds.
  [[nodiscard]] double time_us(const Workload& workload) const;

  /// Energy per inference frame in joules.
  [[nodiscard]] double energy_per_frame_j(const Workload& workload) const;

  /// Inference frames per joule (the paper's energy-efficiency metric).
  [[nodiscard]] double frames_per_joule(const Workload& workload) const;

  /// Presets calibrated to Table II's endpoints.
  [[nodiscard]] static DeviceModel adreno640_gpu();
  [[nodiscard]] static DeviceModel kryo485_cpu();

 private:
  std::string name_;
  double dense_gops_;
  double sparsity_exponent_;
  double max_cr_;
  double overhead_us_;
  double power_watts_;
};

/// ESE's FPGA deployment (XCKU060): the fixed comparator the paper
/// normalizes energy efficiency against.
struct EseFpgaReference {
  double time_per_frame_us = 82.7;
  double power_watts = 41.0;

  [[nodiscard]] double frames_per_joule() const {
    return 1.0 / (power_watts * time_per_frame_us * 1e-6);
  }
};

}  // namespace rtmobile
