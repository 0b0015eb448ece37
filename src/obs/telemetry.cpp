#include "obs/telemetry.hpp"

#include <cinttypes>
#include <cstdio>

namespace rtmobile::obs {

Telemetry::Telemetry(std::size_t span_ring_capacity)
    : trace_(span_ring_capacity) {
  engine_.frames = &registry_.counter(
      "rt_engine_frames_total", "Feature frames served by engine steps");
  engine_.steps = &registry_.counter("rt_engine_steps_total",
                                     "Engine scheduling rounds executed");
  engine_.deadline_misses = &registry_.counter(
      "rt_engine_deadline_misses_total",
      "Frames served after waiting past their stream's deadline budget");
  engine_.shed_frames = &registry_.counter(
      "rt_engine_shed_frames_total",
      "Frames dropped by the overload policy (shed or reject)");
  engine_.rejected_streams = &registry_.counter(
      "rt_engine_rejected_streams_total",
      "Streams terminated by OverloadPolicy::kReject");
  engine_.busy_us = &registry_.gauge(
      "rt_engine_busy_us", "Wall microseconds spent inside engine steps");
  engine_.audio_seconds = &registry_.gauge(
      "rt_engine_audio_seconds",
      "Audio seconds represented by the frames served");
  engine_.step_latency_us = &registry_.histogram(
      "rt_engine_step_latency_us", "Engine scheduling-round latency",
      default_latency_buckets_us());
  engine_.lag_us = &registry_.histogram(
      "rt_engine_lag_us",
      "Per-round worst head-frame wait across ready streams",
      default_latency_buckets_us());
  engine_.fused_steps = &registry_.counter(
      "rt_fused_steps_total",
      "Scheduling rounds whose batch ran the fused batched-matmat step");
  engine_.fused_batch_width = &registry_.histogram(
      "rt_fused_batch_width",
      "Streams advanced per fused step (compute panel width)",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});

  net_.accepted = &registry_.counter("rt_net_accepted_total",
                                     "TCP connections accepted");
  net_.closed = &registry_.counter("rt_net_closed_total",
                                   "TCP connections reaped");
  net_.protocol_errors = &registry_.counter(
      "rt_net_protocol_errors_total",
      "Connections failed with a typed protocol error");
  net_.slow_consumer_drops = &registry_.counter(
      "rt_net_slow_consumer_drops_total",
      "Connections dropped at the bounded-egress write-buffer cap");
  net_.ingress_pauses = &registry_.counter(
      "rt_net_ingress_pause_episodes_total",
      "Times a connection paused reads under ingress backpressure");
  net_.bytes_in = &registry_.counter("rt_net_bytes_in_total",
                                     "Wire bytes read from clients");
  net_.bytes_out = &registry_.counter("rt_net_bytes_out_total",
                                      "Wire bytes written to clients");
  net_.scrapes = &registry_.counter("rt_net_scrapes_total",
                                    "HTTP metric scrapes served");
  net_.connections = &registry_.gauge("rt_net_connections",
                                      "Live TCP connections");

  cache_.hits = &registry_.counter(
      "rt_cache_hits_total",
      "Frames served from the prefix result cache (compute skipped)");
  cache_.misses = &registry_.counter(
      "rt_cache_misses_total",
      "Frames that fell through the prefix cache to model compute");
  cache_.skipped_steps = &registry_.counter(
      "rt_cache_skipped_steps_total",
      "Model steps avoided by prefix-cache hits");
  cache_.evictions = &registry_.counter(
      "rt_cache_evictions_total",
      "Prefix-cache entries evicted (byte budget or bucket collision)");
  cache_.inserted_bytes = &registry_.counter(
      "rt_cache_bytes_total",
      "Cumulative bytes memoized into the prefix cache");
  cache_.resident_bytes = &registry_.gauge(
      "rt_cache_resident_bytes",
      "Current prefix-cache residency across engines on this telemetry");

  fault_.injected = &registry_.counter(
      "rt_fault_injected_total", "Faults fired by the FaultInjector");
  fault_.detected = &registry_.counter(
      "rt_fault_detected_total",
      "Shards declared unhealthy by the supervisor");
  fault_.failovers = &registry_.counter(
      "rt_fault_failovers_total", "Shard failovers executed");
  fault_.replayed_streams = &registry_.counter(
      "rt_fault_replayed_streams_total",
      "Live streams migrated intact off a failed shard");
  fault_.aborted_streams = &registry_.counter(
      "rt_fault_aborted_streams_total",
      "Streams given a terminal abort event (could not be replayed)");
  fault_.reaped_connections = &registry_.counter(
      "rt_fault_reaped_connections_total",
      "Connections reaped by the idle/write-stall deadline timers");
}

Gauge& Telemetry::shard_gauge(const std::string& name,
                              const std::string& help, std::size_t shard) {
  return registry_.gauge(name, help,
                         {{"shard", std::to_string(shard)}});
}

MetricsSnapshot Telemetry::snapshot() const {
  MetricsSnapshot snap = registry_.snapshot();
  const std::array<StageStats, kStageCount> stages = trace_.stage_stats();
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const Labels labels{
        {"stage", std::string(stage_name(static_cast<Stage>(s)))}};
    MetricSample count;
    count.name = "rt_stage_spans_total";
    count.help = "Spans recorded per pipeline stage";
    count.labels = labels;
    count.kind = InstrumentKind::kCounter;
    count.counter_value = stages[s].count;
    snap.samples.push_back(std::move(count));
  }
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const Labels labels{
        {"stage", std::string(stage_name(static_cast<Stage>(s)))}};
    MetricSample total;
    total.name = "rt_stage_us_total";
    total.help = "Microseconds spent per pipeline stage";
    total.labels = labels;
    total.kind = InstrumentKind::kGauge;
    total.gauge_value = stages[s].total_us;
    snap.samples.push_back(std::move(total));
  }
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const Labels labels{
        {"stage", std::string(stage_name(static_cast<Stage>(s)))}};
    MetricSample max;
    max.name = "rt_stage_max_us";
    max.help = "Worst single span per pipeline stage";
    max.labels = labels;
    max.kind = InstrumentKind::kGauge;
    max.gauge_value = stages[s].max_us;
    snap.samples.push_back(std::move(max));
  }
  MetricSample dropped;
  dropped.name = "rt_stage_spans_dropped_total";
  dropped.help = "Raw spans overwritten in the per-thread rings";
  dropped.kind = InstrumentKind::kCounter;
  dropped.counter_value = trace_.dropped_spans();
  snap.samples.push_back(std::move(dropped));
  return snap;
}

std::string Telemetry::render_prometheus() const {
  return snapshot().to_prometheus();
}

std::string Telemetry::render_json() const {
  std::string out = "{\n\"metrics\": ";
  out += snapshot().to_json();
  out += ",\n\"slow_stream_exemplars\": [\n";
  const std::vector<TraceCollector::Exemplar> exemplars =
      trace_.exemplars();
  char buf[160];
  for (std::size_t e = 0; e < exemplars.size(); ++e) {
    const TraceCollector::Exemplar& exemplar = exemplars[e];
    std::snprintf(buf, sizeof(buf),
                  "  {\"stream\": %" PRIu64
                  ", \"lag_us\": %.1f, \"captured_at_us\": %.1f, "
                  "\"spans\": [\n",
                  exemplar.stream_id, exemplar.lag_us,
                  exemplar.captured_at_us);
    out += buf;
    for (std::size_t s = 0; s < exemplar.spans.size(); ++s) {
      const SpanRecord& span = exemplar.spans[s];
      const std::string stage(stage_name(span.stage));
      // Batch-level spans (no single stream) render as stream null.
      std::string stream = "null";
      if (span.stream_id != kNoStream) {
        stream = std::to_string(span.stream_id);
      }
      std::snprintf(buf, sizeof(buf),
                    "    {\"stage\": \"%s\", \"stream\": %s, "
                    "\"start_us\": %.1f, \"dur_us\": %.1f}%s\n",
                    stage.c_str(), stream.c_str(), span.start_us,
                    span.duration_us,
                    s + 1 < exemplar.spans.size() ? "," : "");
      out += buf;
    }
    out += e + 1 < exemplars.size() ? "  ]},\n" : "  ]}\n";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace rtmobile::obs
