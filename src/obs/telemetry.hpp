// The one observability object a serving process carries.
//
// Telemetry bundles a MetricsRegistry and a TraceCollector and
// pre-registers the instruments every layer of the stack reports into:
// engine counters that mirror RuntimeStats field-for-field (incremented
// in the same statements, so a /metrics scrape equals StatsAggregator
// totals exactly), scheduler overload counters, per-shard load gauges,
// and the net front's connection counters. Layers receive a Telemetry*
// (null = observability off, zero cost beyond the branch) through their
// existing config structs: EngineConfig::telemetry reaches every
// InferenceEngine and StreamingSession, ShardConfig rides the same
// field, and ServerConfig::telemetry covers the epoll front.
//
// Exposition: render_prometheus()/render_json() merge the registry
// snapshot with synthesized per-stage span samples (and, in JSON, the
// slow-stream exemplar traces), which is exactly what the net server's
// /metrics and /metrics.json endpoints serve.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rtmobile::obs {

/// Engine-side instruments, shared by every engine wired to the same
/// Telemetry (shards sum into one family, which is what makes the
/// scrape equal the cross-shard StatsAggregator totals).
struct EngineMetrics {
  Counter* frames = nullptr;            // == RuntimeStats::frames_processed
  Counter* steps = nullptr;             // == RuntimeStats::steps
  Counter* deadline_misses = nullptr;   // == RuntimeStats::deadline_misses
  Counter* shed_frames = nullptr;       // == RuntimeStats::shed_frames
  Counter* rejected_streams = nullptr;  // == RuntimeStats::rejected_streams
  Counter* fused_steps = nullptr;       // == RuntimeStats::fused_steps
  Gauge* busy_us = nullptr;             // ~= RuntimeStats::busy_us
  Gauge* audio_seconds = nullptr;       // ~= RuntimeStats::audio_seconds
  Histogram* step_latency_us = nullptr;
  Histogram* lag_us = nullptr;
  /// Width of each fused compute panel — the batch-occupancy signal
  /// that says how much weight traffic the fused step amortizes.
  Histogram* fused_batch_width = nullptr;
};

/// Net-front instruments (the counters that were previously invisible
/// connection state).
struct NetMetrics {
  Counter* accepted = nullptr;
  Counter* closed = nullptr;
  Counter* protocol_errors = nullptr;
  Counter* slow_consumer_drops = nullptr;
  Counter* ingress_pauses = nullptr;  // pause *episodes*, not bytes
  Counter* bytes_in = nullptr;
  Counter* bytes_out = nullptr;
  Counter* scrapes = nullptr;
  Gauge* connections = nullptr;
};

/// Prefix-result-cache instruments, mirrored in the same statements as
/// the RuntimeStats cache_* fields (so a scrape equals the
/// StatsAggregator's merged totals exactly). Shards share the counter
/// cells; resident_bytes sums shard residency at set time per engine —
/// fleet residency is the StatsAggregator's merged cache_bytes.
struct CacheMetrics {
  Counter* hits = nullptr;           // == RuntimeStats::cache_hits
  Counter* misses = nullptr;         // == RuntimeStats::cache_misses
  Counter* skipped_steps = nullptr;  // == RuntimeStats::cache_skipped_steps
  Counter* evictions = nullptr;      // == RuntimeStats::cache_evictions
  Counter* inserted_bytes = nullptr;  // cumulative bytes memoized
  Gauge* resident_bytes = nullptr;    // current per-engine residency
};

/// Fault-layer instruments: the injected → detected → recovered chain
/// the supervisor and the net front's self-defense timers report into.
struct FaultMetrics {
  Counter* injected = nullptr;          // FaultInjector fires
  Counter* detected = nullptr;          // shards declared unhealthy
  Counter* failovers = nullptr;         // shard failovers executed
  Counter* replayed_streams = nullptr;  // streams migrated intact
  Counter* aborted_streams = nullptr;   // streams given terminal aborts
  Counter* reaped_connections = nullptr;  // idle/stalled conns reaped
};

class Telemetry {
 public:
  /// `span_ring_capacity` sizes each thread's span ring.
  explicit Telemetry(std::size_t span_ring_capacity = 1024);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  TraceCollector& trace() { return trace_; }
  EngineMetrics& engine() { return engine_; }
  NetMetrics& net() { return net_; }
  FaultMetrics& fault() { return fault_; }
  CacheMetrics& cache() { return cache_; }

  /// Registers (idempotently) a per-shard gauge, labeled shard="<s>".
  Gauge& shard_gauge(const std::string& name, const std::string& help,
                     std::size_t shard);

  /// Registry snapshot extended with per-stage span samples
  /// (rt_stage_count/rt_stage_us_total/rt_stage_max_us, labeled by
  /// stage) and the span-ring drop counter.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::string render_prometheus() const;
  /// The metrics snapshot plus slow-stream exemplar span traces.
  [[nodiscard]] std::string render_json() const;

 private:
  MetricsRegistry registry_;
  TraceCollector trace_;
  EngineMetrics engine_;
  NetMetrics net_;
  FaultMetrics fault_;
  CacheMetrics cache_;
};

}  // namespace rtmobile::obs
