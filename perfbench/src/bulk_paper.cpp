// bulk_paper: the paper's configuration through the library, one caller,
// closed loop. REPT(m=20, c=64, track_local) — c mod m = 4, so Algorithm
// 2's eta pair registers run — over a Holme-Kim stream fed in 65 536-edge
// Ingest() calls (IngestAll's chunk size) into a session given exact size
// hints, as Run() gives it. Each round ingests on a hardware-thread pool,
// snapshots, checkpoints and restores the final state in memory, destroys
// the session, then ingests the same stream again on a fresh 1-worker
// session. Replay dominates: core, containers, SIMD and the pool show here.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/rept_estimator.hpp"
#include "exact/streaming_exact.hpp"
#include "library_ops.hpp"

namespace perfbench {
namespace {

constexpr uint64_t kEdges = 600000;
constexpr size_t kChunk = 65536;
/// Loose bound on |estimate - tau| / tau. Theorem 3's standard deviation at
/// this size is well under 1%; a wrong tally is off by far more.
constexpr double kMaxRelativeError = 0.05;
constexpr size_t kMinSetupSamples = 7;

}  // namespace

void RunBulkPaper(const Options& options, Outcome& outcome, Metrics& metrics) {
  Layers layers;
  const double t0 = Now();
  const rept::EdgeStream stream = MakeStream(kEdges, options.seed);
  layers.bench_gen_s = Now() - t0;
  const std::span<const rept::Edge> edges(stream.edges());

  rept::ReptConfig config;
  config.m = 20;
  config.c = 64;
  config.track_local = true;
  const rept::ReptEstimator system(config);
  const uint64_t session_seed = options.seed * 0x9e3779b97f4a7c15ULL + 1;
  rept::SessionOptions hints;
  hints.expected_edges = stream.size();
  hints.expected_vertices = stream.num_vertices();

  std::vector<double> setup_s, create_ms, eps, eps_1t, ckpt_s, restore_s,
      restore_create_ms, snapshot_ms, traced_eps, untraced_eps, round_p99_ms;
  IngestPhase phase;
  double state_bytes = 0.0, stored_edges = 0.0, ckpt_bytes = 0.0,
         routed_per_edge = 0.0;
  rept::TriangleEstimates final_estimates;
  double traced_rounds = 0.0;

  // One set-up: the pool and the hinted session of the main pass.
  auto set_up = [&] {
    SetUp s = TimedSetUp(system, session_seed, options.workers, hints,
                         outcome);
    setup_s.push_back(s.seconds);
    create_ms.push_back(s.create_ms);
    return s;
  };

  RunRounds(options, [&](bool traced) {
    Span round("bench.round");
    SetUp primary = set_up();
    if (primary.session == nullptr) return;
    rept::StreamingEstimator& session = *primary.session;

    const IngestPhase ingest = TimedIngest(session, edges, kChunk, outcome);
    phase.Add(ingest);
    round_p99_ms.push_back(Percentile(ingest.call_ms, 0.99));
    eps.push_back(ingest.eps());
    (traced ? traced_eps : untraced_eps).push_back(ingest.eps());

    const double start = Now();
    rept::TriangleEstimates estimates;
    {
      Span span("core.Snapshot");
      estimates = session.Snapshot();
    }
    snapshot_ms.push_back((Now() - start) * 1e3);
    outcome.Op(true, "Snapshot");
    state_bytes = static_cast<double>(session.MemoryBytes());
    stored_edges = static_cast<double>(session.StoredEdges());
    routed_per_edge = RoutedEntries(session) / ingest.edges;

    double seconds = 0.0;
    const std::string bytes = TimedCheckpoint(session, seconds, outcome);
    ckpt_s.push_back(seconds);
    ckpt_bytes = static_cast<double>(bytes.size());
    double create_s = 0.0;
    {
      auto restored = TimedRestore(system, session_seed, primary.pool.get(),
                                   bytes, seconds, create_s, outcome);
      restore_s.push_back(seconds);
      restore_create_ms.push_back(create_s * 1e3);
      outcome.Check(restored != nullptr &&
                        SameEstimates(restored->Snapshot(), estimates),
                    "bulk_paper.restore_equals_saved",
                    "restored snapshot differs from the saved one");
    }
    primary.session.reset();
    primary.pool.reset();

    // The same job on a fresh 1-worker session.
    SetUp one = TimedSetUp(system, session_seed, 1, hints, outcome);
    if (one.session == nullptr) return;
    eps_1t.push_back(TimedIngest(*one.session, edges, kChunk, outcome).eps());
    outcome.Check(SameEstimates(one.session->Snapshot(), estimates),
                  "bulk_paper.workers_bit_identical",
                  "1-worker estimates differ from the pool's");
    final_estimates = estimates;
    if (traced) traced_rounds += 1.0;
  }, [&] {
    for (auto* v : {&setup_s, &create_ms, &eps, &eps_1t, &ckpt_s, &restore_s,
                    &restore_create_ms, &snapshot_ms, &traced_eps,
                    &untraced_eps, &round_p99_ms}) {
      v->clear();
    }
    phase = IngestPhase{};
  });
  const std::vector<Tracer::Event> traced_events = Tracer::Get().Events();
  while (setup_s.size() < kMinSetupSamples) {
    if (set_up().session == nullptr) break;
  }

  // Accuracy gate against the exact count (outside every timed region).
  rept::StreamingExactCounter exact(stream.num_vertices(),
                                    /*track_eta=*/false);
  exact.ProcessStream(stream);
  const double tau = static_cast<double>(exact.tau());
  const double rel_error = std::abs(final_estimates.global - tau) / tau;
  std::fprintf(stderr,
               "bulk_paper: %zu edges, tau=%.0f, estimate=%.1f, "
               "relative error %.4f%%\n",
               edges.size(), tau, final_estimates.global, rel_error * 100.0);
  outcome.Check(tau > 0.0 && rel_error <= kMaxRelativeError,
                "bulk_paper.global_within_bound",
                "relative error " + std::to_string(rel_error));

  if (options.trace) {
    layers.core_create_ms = Median(create_ms);
    FillFromRegistry(layers, phase.counters, static_cast<double>(phase.edges),
                     phase.wall_s, options.workers,
                     static_cast<double>(eps.size()));
    layers.core_routed_entries_per_edge = routed_per_edge;
    layers.core_bytes_per_stored_edge = state_bytes / stored_edges;
    layers.core_snapshot_local_ms = Median(snapshot_ms);
    layers.pool_scaling_eff =
        Median(eps) / (static_cast<double>(options.workers) * Median(eps_1t));
    layers.persist_encode_ns_per_stored_edge =
        Median(ckpt_s) * 1e9 / stored_edges;
    layers.persist_decode_ns_per_stored_edge =
        (Median(restore_s) - Median(restore_create_ms) * 1e-3) * 1e9 /
        stored_edges;
    layers.persist_restore_create_ms = Median(restore_create_ms);
    layers.persist_bytes_per_stored_edge = ckpt_bytes / stored_edges;
    layers.obs_trace_overhead_pct =
        (Median(untraced_eps) / Median(traced_eps) - 1.0) * 100.0;
    FillFromSpans(layers, traced_events, traced_rounds);
    metrics = LayerMetrics(layers);
    return;
  }
  EndToEnd e;
  e.ingest_eps = Median(eps);
  e.ingest_eps_1t = Median(eps_1t);
  e.cpu_ns_per_edge = phase.cpu_s * 1e9 / static_cast<double>(phase.edges);
  e.frame_p50_ms = Percentile(phase.call_ms, 0.50);
  e.frame_p99_ms = Median(round_p99_ms);
  e.checkpoint_s = Median(ckpt_s);
  e.restore_s = Median(restore_s);
  e.setup_s = Median(setup_s);
  e.state_mb = state_bytes / (1 << 20);
  e.ckpt_mb = ckpt_bytes / (1 << 20);
  e.peak_rss_mb = PeakRssMb();
  metrics = EndToEndMetrics(e);
}

}  // namespace perfbench
