// The numbers published in the paper's Tables I and II, as data.
//
// The table benches print each reproduced value next to the paper's
// value, and tests assert that the calibrated device models stay within
// tolerance of the published measurements.
#pragma once

#include <optional>
#include <span>
#include <string>

namespace rtmobile::paper {

/// One BSP row of Table I.
struct Table1BspRow {
  double compression_rate;  // "Overall Compress. Rate"
  double col_rate;          // "Column Compress. Rate" (step-1 target)
  double row_rate;          // "Row Compress. Rate" (step-2 target)
  double params_millions;   // "Para. No."
  double per_baseline;      // dense PER %
  double per_pruned;        // pruned PER %
};

/// One baseline row of Table I (other methods).
struct Table1BaselineRow {
  const char* method;
  std::optional<double> per_baseline;  // % (Wang reports only degradation)
  std::optional<double> per_pruned;    // %
  double per_degradation;              // percentage points
  double params_millions;
  double compression_rate;
};

/// One row of Table II.
struct Table2Row {
  double compression_rate;
  double gop;
  double gpu_time_us;
  double gpu_gops;
  double gpu_energy_eff;  // normalized with ESE
  double cpu_time_us;
  double cpu_gops;
  double cpu_energy_eff;  // normalized with ESE
};

/// BSP rows of Table I (compression 1x .. 301x).
[[nodiscard]] std::span<const Table1BspRow> table1_bsp();

/// Baseline rows of Table I (ESE, C-LSTM, BBS, Wang, E-RNN).
[[nodiscard]] std::span<const Table1BaselineRow> table1_baselines();

/// All rows of Table II.
[[nodiscard]] std::span<const Table2Row> table2();

/// The paper's dense GRU baseline PER on TIMIT (%).
inline constexpr double kBaselinePer = 18.80;

/// ESE FPGA reference: inference time and board power.
inline constexpr double kEseTimeUs = 82.7;
inline constexpr double kEsePowerW = 41.0;

/// Full-size GRU dense workload: 0.58 GOP per inference frame.
inline constexpr double kDenseGop = 0.58;

}  // namespace rtmobile::paper
