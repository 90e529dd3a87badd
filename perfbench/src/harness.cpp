#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

// --- Tracer ------------------------------------------------------------------

namespace {
thread_local std::vector<int64_t> t_open_stack;
thread_local int64_t t_tid = -1;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::Begin(const std::string& name, int64_t batch,
                      int64_t parent) {
  Event event;
  event.name = name;
  event.batch = batch;
  event.parent = parent >= 0 ? parent
                 : t_open_stack.empty() ? -1
                                        : t_open_stack.back();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    event.id = next_id_++;
    if (t_tid < 0) t_tid = next_tid_++;
    event.tid = static_cast<uint32_t>(t_tid);
    event.start = Now();
    open_.push_back(event);
  }
  t_open_stack.push_back(event.id);
  return event.id;
}

void Tracer::End(int64_t id) {
  const double end = Now();
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if (it->id == id) {
      it->end = end;
      done_.push_back(std::move(*it));
      open_.erase(it);
      return;
    }
  }
}

void Tracer::Counter(const std::string& name, double value) {
  if (!enabled()) return;
  const double at = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.push_back({name, at, value});
}

std::vector<Tracer::Event> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double origin = 0.0;
  bool have_origin = false;
  for (const Event& e : done_) {
    if (!have_origin || e.start < origin) origin = e.start;
    have_origin = true;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Event& e : done_) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"batch\":%lld}}",
                 first ? "" : ",\n", e.name.c_str(),
                 e.name.substr(0, e.name.find('.')).c_str(),
                 (e.start - origin) * 1e6, (e.end - e.start) * 1e6, e.tid,
                 static_cast<long long>(e.id),
                 static_cast<long long>(e.parent),
                 static_cast<long long>(e.batch));
    first = false;
  }
  for (const CounterEvent& c : counters_) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                 "\"args\":{\"value\":%.17g}}",
                 first ? "" : ",\n", c.name.c_str(), (c.at - origin) * 1e6,
                 c.value);
    first = false;
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(out) == 0;
}

SpanBreakdown BreakDown(const std::vector<Tracer::Event>& events,
                        const std::string& root) {
  std::map<int64_t, const Tracer::Event*> by_id;
  for (const Tracer::Event& e : events) by_id[e.id] = &e;
  // Root ancestor of every span (spans whose root is not `root` are
  // ignored: warm-up, checks).
  std::map<int64_t, int64_t> root_of;
  std::function<int64_t(const Tracer::Event&)> find_root =
      [&](const Tracer::Event& e) -> int64_t {
    if (auto it = root_of.find(e.id); it != root_of.end()) return it->second;
    int64_t result = -1;
    if (e.parent < 0) {
      result = e.name == root ? e.id : -1;
    } else if (auto p = by_id.find(e.parent); p != by_id.end()) {
      result = find_root(*p->second);
    }
    root_of[e.id] = result;
    return result;
  };

  SpanBreakdown out;
  std::map<int64_t, double> child_seconds;
  std::map<int64_t, std::vector<std::pair<double, double>>> covered;
  for (const Tracer::Event& e : events) {
    const int64_t r = find_root(e);
    if (r < 0) continue;
    if (e.id == r) {
      out.root_seconds += e.end - e.start;
      continue;
    }
    covered[r].push_back({e.start, e.end});
    if (auto p = by_id.find(e.parent);
        p != by_id.end() && p->second->tid == e.tid) {
      child_seconds[e.parent] += e.end - e.start;
    }
  }
  for (const Tracer::Event& e : events) {
    const int64_t r = find_root(e);
    if (r < 0 || e.id == r) continue;
    const std::string layer = e.name.substr(0, e.name.find('.'));
    out.self_seconds[layer] += (e.end - e.start) - child_seconds[e.id];
  }
  // Union of descendant intervals inside each root.
  double uncovered = 0.0;
  for (const Tracer::Event& e : events) {
    if (find_root(e) != e.id) continue;
    std::vector<std::pair<double, double>>& spans = covered[e.id];
    std::sort(spans.begin(), spans.end());
    double cursor = e.start;
    double gap = 0.0;
    for (const auto& [s, t] : spans) {
      const double start = std::max(s, e.start);
      const double end = std::min(t, e.end);
      if (start > cursor) gap += start - cursor;
      cursor = std::max(cursor, end);
    }
    if (e.end > cursor) gap += e.end - cursor;
    uncovered += gap;
  }
  out.unaccounted_frac =
      out.root_seconds > 0.0 ? uncovered / out.root_seconds : 0.0;
  return out;
}

// --- registry ----------------------------------------------------------------

Counters SampleRegistry() {
  Counters out;
  for (const rept::obs::MetricSnapshot& m :
       rept::obs::MetricsRegistry::Global().Snapshot()) {
    switch (m.kind) {
      case rept::obs::MetricSnapshot::Kind::kCounter:
        out[m.name] = static_cast<double>(m.counter_value);
        break;
      case rept::obs::MetricSnapshot::Kind::kGauge:
        out[m.name] = static_cast<double>(m.gauge_value);
        break;
      case rept::obs::MetricSnapshot::Kind::kHistogram:
        out[m.name + "_sum"] = m.sum;
        out[m.name + "_count"] = static_cast<double>(m.count);
        break;
    }
  }
  return out;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    if (name == "rept_simd_dispatch_level") {
      out[name] = value;
    } else {
      out[name] = value - Get(before, name);
    }
  }
  return out;
}

void Accumulate(Counters& into, const Counters& delta) {
  for (const auto& [name, value] : delta) {
    if (name == "rept_simd_dispatch_level") {
      into[name] = value;
    } else {
      into[name] += value;
    }
  }
}

double Get(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

Counters SampleAtBoundary() {
  Counters sample = SampleRegistry();
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    for (const char* name :
         {"rept_ingest_edges_total", "rept_ingest_replay_task_micros_total",
          "rept_pool_steals_total", "rept_flatmap_rehashes_total",
          "rept_arena_block_bytes_total", "rept_server_ingest_frames_total"}) {
      tracer.Counter(name, Get(sample, name));
    }
  }
  return sample;
}

// --- metric sets ---------------------------------------------------------------

Metrics EndToEndMetrics(const EndToEnd& e) {
  return {
      {"ingest_eps", {e.ingest_eps, "edges/s"}},
      {"ingest_eps_1t", {e.ingest_eps_1t, "edges/s"}},
      {"cpu_ns_per_edge", {e.cpu_ns_per_edge, "ns"}},
      {"frame_p50_ms", {e.frame_p50_ms, "ms"}},
      {"frame_p99_ms", {e.frame_p99_ms, "ms"}},
      {"checkpoint_s", {e.checkpoint_s, "s"}},
      {"restore_s", {e.restore_s, "s"}},
      {"setup_s", {e.setup_s, "s"}},
      {"state_mb", {e.state_mb, "MB"}},
      {"ckpt_mb", {e.ckpt_mb, "MB"}},
      {"peak_rss_mb", {e.peak_rss_mb, "MB"}},
  };
}

Metrics LayerMetrics(const Layers& l) {
  return {
      {"core.create_ms", {l.core_create_ms, "ms"}},
      {"core.replay_task_ns_per_edge", {l.core_replay_task_ns_per_edge, "ns"}},
      {"core.route_task_ns_per_edge", {l.core_route_task_ns_per_edge, "ns"}},
      {"core.routed_entries_per_edge",
       {l.core_routed_entries_per_edge, "count"}},
      {"core.bytes_per_stored_edge", {l.core_bytes_per_stored_edge, "B"}},
      {"core.snapshot_local_ms", {l.core_snapshot_local_ms, "ms"}},
      {"core.self_s", {l.core_self_s, "s"}},
      {"pool.busy_frac", {l.pool_busy_frac, "ratio"}},
      {"pool.scaling_eff", {l.pool_scaling_eff, "ratio"}},
      {"pool.steals_per_medge", {l.pool_steals_per_medge, "count"}},
      {"simd.level", {l.simd_level, "level"}},
      {"simd.intersect_calls_per_edge",
       {l.simd_intersect_calls_per_edge, "count"}},
      {"container.rehashes", {l.container_rehashes, "count"}},
      {"container.probe_len_mean", {l.container_probe_len_mean, "slots"}},
      {"container.arena_mb", {l.container_arena_mb, "MB"}},
      {"net.core_ingest_8k_p50_ms", {l.net_core_ingest_8k_p50_ms, "ms"}},
      {"net.frame_overhead_ms", {l.net_frame_overhead_ms, "ms"}},
      {"net.wire_bytes_per_edge", {l.net_wire_bytes_per_edge, "B"}},
      {"net.snapshot_p50_ms", {l.net_snapshot_p50_ms, "ms"}},
      {"net.snapshot_p99_ms", {l.net_snapshot_p99_ms, "ms"}},
      {"net.error_frames", {l.net_error_frames, "count"}},
      {"net.admission_rejections", {l.net_admission_rejections, "count"}},
      {"net.self_s", {l.net_self_s, "s"}},
      {"persist.encode_ns_per_stored_edge",
       {l.persist_encode_ns_per_stored_edge, "ns"}},
      {"persist.decode_ns_per_stored_edge",
       {l.persist_decode_ns_per_stored_edge, "ns"}},
      {"persist.restore_create_ms", {l.persist_restore_create_ms, "ms"}},
      {"persist.bytes_per_stored_edge",
       {l.persist_bytes_per_stored_edge, "B"}},
      {"persist.self_s", {l.persist_self_s, "s"}},
      {"obs.trace_overhead_pct", {l.obs_trace_overhead_pct, "%"}},
      {"bench.gen_s", {l.bench_gen_s, "s"}},
      {"bench.unaccounted_frac", {l.bench_unaccounted_frac, "ratio"}},
  };
}

void FillFromRegistry(Layers& l, const Counters& ingest, double edges,
                      double wall_s, size_t workers, double rounds) {
  if (edges <= 0.0) return;
  const double replay_us = Get(ingest, "rept_ingest_replay_task_micros_total");
  const double route_us = Get(ingest, "rept_ingest_route_task_micros_total");
  l.core_replay_task_ns_per_edge = replay_us * 1e3 / edges;
  l.core_route_task_ns_per_edge = route_us * 1e3 / edges;
  if (wall_s > 0.0 && workers > 0) {
    l.pool_busy_frac = (replay_us + route_us) * 1e-6 /
                       (wall_s * static_cast<double>(workers));
  }
  l.pool_steals_per_medge = Get(ingest, "rept_pool_steals_total") * 1e6 / edges;
  l.simd_level = Get(ingest, "rept_simd_dispatch_level");
  l.simd_intersect_calls_per_edge =
      (Get(ingest, "rept_simd_intersect_count_calls_total") +
       Get(ingest, "rept_simd_intersect_write_calls_total")) /
      edges;
  l.container_rehashes = Get(ingest, "rept_flatmap_rehashes_total") / rounds;
  const double probes = Get(ingest, "rept_flatmap_insert_probe_length_count");
  l.container_probe_len_mean =
      probes > 0.0
          ? Get(ingest, "rept_flatmap_insert_probe_length_sum") / probes
          : 0.0;
  l.container_arena_mb =
      Get(ingest, "rept_arena_block_bytes_total") / rounds / (1 << 20);
}

void FillFromSpans(Layers& l, const std::vector<Tracer::Event>& events,
                   double traced_rounds) {
  const SpanBreakdown b = BreakDown(events, "bench.round");
  auto self = [&](const char* layer) {
    const auto it = b.self_seconds.find(layer);
    return it == b.self_seconds.end() ? 0.0 : it->second / traced_rounds;
  };
  l.core_self_s = self("core");
  l.net_self_s = self("net");
  l.persist_self_s = self("persist");
  l.bench_unaccounted_frac = b.unaccounted_frac;
}

void RunRounds(const Options& options,
               const std::function<void(bool traced)>& round,
               const std::function<void()>& reset) {
  round(false);
  reset();
  const double deadline = Now() + options.seconds;
  int traced = 0;
  int untraced = 0;
  for (int i = 0;; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    Tracer::Get().Enable(trace_this);
    round(trace_this);
    Tracer::Get().Enable(false);
    (trace_this ? traced : untraced) += 1;
    const bool both = !options.trace || (traced > 0 && untraced > 0);
    if (Now() >= deadline && both) break;
  }
}

// --- outcome -----------------------------------------------------------------

void Outcome::Op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  }
}

void Outcome::Check(bool ok, const std::string& name,
                    const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (name == sabotage_) ok = false;
  if (!ok) {
    ++failed_checks_;
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n", name.c_str(),
                 detail.c_str());
  }
}

int Report(const Outcome& outcome, const Metrics& metrics) {
  if (!outcome.correct()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report metrics: %llu of %llu "
                 "operations failed or a check failed\n",
                 static_cast<unsigned long long>(outcome.failed()),
                 static_cast<unsigned long long>(outcome.attempted()));
    return 1;
  }
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(outcome.attempted()) +
                     ", \"failed\": " + std::to_string(outcome.failed()) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
