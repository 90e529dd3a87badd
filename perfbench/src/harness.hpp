// Shared machinery of the perfbench workloads: clocks and process
// counters, order statistics, the in-memory span tracer, registry sampling,
// the correctness gate and the one-line JSON report.
//
// Every number a workload reports is measured from outside the program:
// the harness times calls into the library (or the client), and reads the
// counters the program already exports (obs::MetricsRegistry, STATS,
// ReadIngestStats) at the same call boundaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one benchmark process (one workload, one seed).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace JSON written at the end of a traced run ("" = none).
  std::string trace_out;
  /// Test hook: name of one correctness check to corrupt on purpose, so the
  /// gate can be shown to refuse the run (see perfbench/test_gate.py).
  std::string sabotage;
  /// Ingest pool size of the library workloads (hardware threads).
  size_t workers = 1;
};

// --- clocks and process counters -------------------------------------------

/// Monotonic wall clock, seconds.
double Now();
/// User + system CPU time of the whole process, seconds.
double CpuSeconds();
/// VmHWM of this process in MB (2^20 bytes); 0 when unreadable.
double PeakRssMb();

// --- order statistics --------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// --- tracing ----------------------------------------------------------------

/// \brief In-memory span recorder. Spans are recorded from the benchmark's
/// own code around each call into a layer; nothing is recorded when the
/// tracer is disabled (one branch per span). A span's layer is the part of
/// its name before the first '.', e.g. "core.Ingest" -> "core".
class Tracer {
 public:
  struct Event {
    std::string name;
    double start = 0.0;  // seconds on Now()'s clock
    double end = 0.0;
    int64_t id = 0;
    int64_t parent = -1;  // -1 = root
    int64_t batch = -1;   // batch / frame id, -1 = none
    uint32_t tid = 0;
  };
  struct CounterEvent {
    std::string name;
    double at = 0.0;
    double value = 0.0;
  };

  /// Global instance; disabled until Enable().
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  /// `parent` < 0 takes the innermost open span of this thread.
  int64_t Begin(const std::string& name, int64_t batch = -1,
                int64_t parent = -1);
  void End(int64_t id);

  void Counter(const std::string& name, double value);

  /// Completed spans (copy, under the lock).
  std::vector<Event> Events() const;

  /// chrome://tracing JSON ("X" complete events + "C" counter events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Event> open_;
  std::vector<Event> done_;
  std::vector<CounterEvent> counters_;
  int64_t next_id_ = 0;
  int64_t next_tid_ = 0;
};

/// RAII span over Tracer::Get().
class Span {
 public:
  explicit Span(const std::string& name, int64_t batch = -1,
                int64_t parent = -1)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, batch, parent)
                                    : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

/// Per-layer breakdown of the spans under the roots named `root`.
struct SpanBreakdown {
  /// Summed self time (duration minus direct children) by layer, seconds.
  std::map<std::string, double> self_seconds;
  /// Summed wall time of the root spans, seconds.
  double root_seconds = 0.0;
  /// Share of root wall time not covered by any descendant span.
  double unaccounted_frac = 0.0;
};
SpanBreakdown BreakDown(const std::vector<Tracer::Event>& events,
                        const std::string& root);

// --- registry sampling ------------------------------------------------------

/// Flat view of obs::MetricsRegistry: counters and gauges by name,
/// histograms as "<name>_sum" / "<name>_count".
using Counters = std::map<std::string, double>;
Counters SampleRegistry();
/// after - before, name by name (gauges keep `after`'s value).
Counters Delta(const Counters& before, const Counters& after);
void Accumulate(Counters& into, const Counters& delta);
double Get(const Counters& counters, const std::string& name);

/// Samples the registry, records the listed counters as trace counter
/// events (when tracing), and returns the sample.
Counters SampleAtBoundary();

// --- outcome ----------------------------------------------------------------

/// \brief Correctness gate and operation accounting. A failed check is
/// reported on stderr and makes the run exit non-zero without a result.
class Outcome {
 public:
  explicit Outcome(const Options& options) : sabotage_(options.sabotage) {}

  /// Records one attempted operation; `ok == false` counts it as failed.
  void Op(bool ok, const std::string& what);
  /// A correctness check. `name` may be sabotaged by the test hook.
  void Check(bool ok, const std::string& name, const std::string& detail);

  bool correct() const { return failed_checks_ == 0 && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::mutex mutex_;
  std::string sabotage_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failed_checks_ = 0;
};

/// A metric as printed: value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Prints the final JSON line and returns the process exit code: 0 only if
/// every check passed and no operation failed; otherwise nothing is printed
/// to stdout and the code is 1.
int Report(const Outcome& outcome, const Metrics& metrics);

// --- the metric sets -----------------------------------------------------------
//
// Every workload prints the same names; a layer a workload does not run
// reports 0 (see perfbench/README.md for the per-workload meaning).

struct EndToEnd {
  double ingest_eps = 0.0;
  double ingest_eps_1t = 0.0;
  double cpu_ns_per_edge = 0.0;
  double frame_p50_ms = 0.0;
  double frame_p99_ms = 0.0;
  double checkpoint_s = 0.0;
  double restore_s = 0.0;
  double setup_s = 0.0;
  double state_mb = 0.0;
  double ckpt_mb = 0.0;
  double peak_rss_mb = 0.0;
};
Metrics EndToEndMetrics(const EndToEnd& e);

struct Layers {
  double core_create_ms = 0.0;
  double core_replay_task_ns_per_edge = 0.0;
  double core_route_task_ns_per_edge = 0.0;
  double core_routed_entries_per_edge = 0.0;
  double core_bytes_per_stored_edge = 0.0;
  double core_snapshot_local_ms = 0.0;
  double core_self_s = 0.0;
  double pool_busy_frac = 0.0;
  double pool_scaling_eff = 0.0;
  double pool_steals_per_medge = 0.0;
  double simd_level = 0.0;
  double simd_intersect_calls_per_edge = 0.0;
  double container_rehashes = 0.0;
  double container_probe_len_mean = 0.0;
  double container_arena_mb = 0.0;
  double net_core_ingest_8k_p50_ms = 0.0;
  double net_frame_overhead_ms = 0.0;
  double net_wire_bytes_per_edge = 0.0;
  double net_snapshot_p50_ms = 0.0;
  double net_snapshot_p99_ms = 0.0;
  double net_error_frames = 0.0;
  double net_admission_rejections = 0.0;
  double net_self_s = 0.0;
  double persist_encode_ns_per_stored_edge = 0.0;
  double persist_decode_ns_per_stored_edge = 0.0;
  double persist_restore_create_ms = 0.0;
  double persist_bytes_per_stored_edge = 0.0;
  double persist_self_s = 0.0;
  double obs_trace_overhead_pct = 0.0;
  double bench_gen_s = 0.0;
  double bench_unaccounted_frac = 0.0;
};
Metrics LayerMetrics(const Layers& l);

/// Fills the registry-derived core / pool / simd / container fields (all
/// but core_routed_entries_per_edge, which comes from the session's own
/// ReadIngestStats or STATS rows) from
/// the counter deltas of an ingest phase: `edges` ingested in `wall_s`
/// seconds on `workers` pool threads, over `rounds` rounds.
void FillFromRegistry(Layers& l, const Counters& ingest, double edges,
                      double wall_s, size_t workers, double rounds);

/// Fills the span-derived fields (layer self time per round, unaccounted
/// share) from the traced rounds' spans.
void FillFromSpans(Layers& l, const std::vector<Tracer::Event>& events,
                   double traced_rounds);

/// Runs one untimed warm-up round, calls `reset` to drop its samples, then
/// runs `round(traced)` until `options.seconds` have passed. In a traced
/// run, rounds alternate untraced / traced (both at least once) so the
/// tracing overhead is measured in the same process.
void RunRounds(const Options& options,
               const std::function<void(bool traced)>& round,
               const std::function<void()>& reset);

// --- workloads ---------------------------------------------------------------

/// Each fills `metrics` with the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
void RunBulkPaper(const Options& options, Outcome& outcome, Metrics& metrics);
void RunServerFrames(const Options& options, Outcome& outcome,
                     Metrics& metrics);
void RunCkptResume(const Options& options, Outcome& outcome,
                   Metrics& metrics);

}  // namespace perfbench
