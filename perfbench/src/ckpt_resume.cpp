// ckpt_resume: checkpoint / resume cycles through the library. An unhinted
// REPT(m=20, c=64, track_local) session ingests a Holme-Kim stream in 4
// segments on a hardware-thread pool. After each segment the session is
// written with WriteCheckpointStream into memory, then restored with
// CreateSession + ReadCheckpointStream into a fresh session, and ingest
// continues on the restored one. Codec time outweighs ingest time, so
// src/persist shows here. No fsync and no disk I/O: those would measure
// the host's disk.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "core/rept_estimator.hpp"
#include "library_ops.hpp"

namespace perfbench {
namespace {

constexpr int kSegments = 4;
constexpr size_t kChunk = 65536;
/// Two full Ingest() calls per segment, so every call the frame
/// percentiles pool has the same size.
constexpr uint64_t kEdges = kSegments * 2 * kChunk;
constexpr size_t kMinSetupSamples = 200;

}  // namespace

void RunCkptResume(const Options& options, Outcome& outcome,
                   Metrics& metrics) {
  Layers layers;
  const uint64_t stream_seed = options.seed + 0x5eed0000ULL;
  const double t0 = Now();
  // A Holme-Kim stream over V vertices has a little under 4V edges, so
  // generate a chunk more and keep the first kEdges.
  const rept::EdgeStream stream = MakeStream(kEdges + kChunk, stream_seed);
  layers.bench_gen_s = Now() - t0;
  outcome.Check(stream.size() >= kEdges, "ckpt_resume.stream_length",
                "generated stream is shorter than " + std::to_string(kEdges));
  const std::span<const rept::Edge> edges =
      std::span<const rept::Edge>(stream.edges())
          .first(std::min<size_t>(kEdges, stream.size()));

  rept::ReptConfig config;
  config.m = 20;
  config.c = 64;
  config.track_local = true;
  const rept::ReptEstimator system(config);
  const uint64_t session_seed = stream_seed * 0x9e3779b97f4a7c15ULL + 3;

  std::vector<double> setup_s, create_ms, eps, ckpt_s, restore_s,
      restore_create_ms, snapshot_ms, traced_eps, untraced_eps, encode_ns,
      decode_ns, eps_1t, round_p99_ms;
  IngestPhase phase;
  double state_bytes = 0.0, stored_edges = 0.0, ckpt_bytes = 0.0,
         routed_per_edge = 0.0;
  double traced_rounds = 0.0;

  auto set_up = [&] {
    SetUp s = TimedSetUp(system, session_seed, options.workers, {}, outcome);
    setup_s.push_back(s.seconds);
    create_ms.push_back(s.create_ms);
    return s;
  };

  RunRounds(options, [&](bool traced) {
    Span round("bench.round");
    // Reference: one uninterrupted ingest on a 1-worker pool (also the
    // single-threaded baseline).
    rept::TriangleEstimates reference;
    {
      SetUp one = TimedSetUp(system, session_seed, 1, {}, outcome);
      if (one.session == nullptr) return;
      eps_1t.push_back(
          TimedIngest(*one.session, edges, kChunk, outcome).eps());
      reference = one.session->Snapshot();
    }

    SetUp primary = set_up();
    if (primary.session == nullptr) return;
    std::unique_ptr<rept::StreamingEstimator> session =
        std::move(primary.session);
    IngestPhase ingest;
    double routed = 0.0;
    double round_ckpt_s = 0.0, round_restore_s = 0.0;
    for (int seg = 0; seg < kSegments; ++seg) {
      const size_t begin = edges.size() * seg / kSegments;
      const size_t end = edges.size() * (seg + 1) / kSegments;
      ingest.Add(TimedIngest(*session, edges.subspan(begin, end - begin),
                             kChunk, outcome));
      routed += RoutedEntries(*session);

      const double start = Now();
      rept::TriangleEstimates saved;
      {
        Span span("core.Snapshot");
        saved = session->Snapshot();
      }
      snapshot_ms.push_back((Now() - start) * 1e3);
      outcome.Op(true, "Snapshot");
      stored_edges = static_cast<double>(session->StoredEdges());

      double seconds = 0.0;
      const std::string bytes = TimedCheckpoint(*session, seconds, outcome);
      round_ckpt_s += seconds;
      encode_ns.push_back(seconds * 1e9 / stored_edges);
      ckpt_bytes = static_cast<double>(bytes.size());
      double create_s = 0.0;
      std::unique_ptr<rept::StreamingEstimator> restored =
          TimedRestore(system, session_seed, primary.pool.get(), bytes,
                       seconds, create_s, outcome);
      round_restore_s += seconds;
      restore_create_ms.push_back(create_s * 1e3);
      decode_ns.push_back((seconds - create_s) * 1e9 / stored_edges);
      if (restored == nullptr) return;
      outcome.Check(SameEstimates(restored->Snapshot(), saved),
                    "ckpt_resume.restore_equals_saved",
                    "segment " + std::to_string(seg) +
                        ": restored snapshot differs from the saved one");
      session = std::move(restored);
    }
    phase.Add(ingest);
    routed_per_edge = routed / ingest.edges;
    round_p99_ms.push_back(Percentile(ingest.call_ms, 0.99));
    eps.push_back(ingest.eps());
    (traced ? traced_eps : untraced_eps).push_back(ingest.eps());
    ckpt_s.push_back(round_ckpt_s);
    restore_s.push_back(round_restore_s);
    state_bytes = static_cast<double>(session->MemoryBytes());
    outcome.Check(SameEstimates(session->Snapshot(), reference),
                  "ckpt_resume.resumed_equals_uninterrupted",
                  "final estimates differ from an uninterrupted ingest");
    if (traced) traced_rounds += 1.0;
  }, [&] {
    for (auto* v : {&setup_s, &create_ms, &eps, &ckpt_s, &restore_s,
                    &restore_create_ms, &snapshot_ms, &traced_eps,
                    &untraced_eps, &encode_ns, &decode_ns, &eps_1t,
                    &round_p99_ms}) {
      v->clear();
    }
    phase = IngestPhase{};
  });
  const std::vector<Tracer::Event> traced_events = Tracer::Get().Events();
  while (setup_s.size() < kMinSetupSamples) {
    if (set_up().session == nullptr) break;
  }
  std::fprintf(stderr,
               "ckpt_resume: %zu edges, %zu rounds, last checkpoint %.1f MB\n",
               edges.size(), eps.size(), ckpt_bytes / (1 << 20));

  const double ingest_1t_eps = Median(eps_1t);
  if (options.trace) {
    layers.core_create_ms = Median(create_ms);
    FillFromRegistry(layers, phase.counters, static_cast<double>(phase.edges),
                     phase.wall_s, options.workers,
                     static_cast<double>(eps.size()));
    layers.core_routed_entries_per_edge = routed_per_edge;
    layers.core_bytes_per_stored_edge = state_bytes / stored_edges;
    layers.core_snapshot_local_ms = Median(snapshot_ms);
    layers.pool_scaling_eff =
        Median(eps) / (static_cast<double>(options.workers) * ingest_1t_eps);
    layers.persist_encode_ns_per_stored_edge = Median(encode_ns);
    layers.persist_decode_ns_per_stored_edge = Median(decode_ns);
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
  e.ingest_eps_1t = ingest_1t_eps;
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
