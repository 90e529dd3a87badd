// server_frames: small frames through an in-process rept_server over
// loopback TCP. The server runs 2 pool workers, with SessionLimits raised
// so no session of the workload is refused. 2 writer connections each
// stream their own unhinted REPT(m=8, c=8, global-only) session in
// 8192-edge INGEST frames, closed loop with one frame in flight; 1 reader
// connection issues SNAPSHOT(top_k=10) round-robin with a 2 ms think time.
// With c = m every edge is stored once, so replay per frame is light and
// the fixed per-frame costs (receive, CRC and decode, admission, ingest
// mutex, publish, ack) are a large share. Each round ends with a
// CHECKPOINT of one session and a RESTORE into a new one.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rept_estimator.hpp"
#include "library_ops.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr uint64_t kEdgesPerWriter = 1000000;
constexpr size_t kFrame = 8192;
/// One session per writer connection.
constexpr std::array<const char*, 2> kSessionNames = {"s0", "s1"};
constexpr int kWriters = kSessionNames.size();
constexpr size_t kServerWorkers = 2;
constexpr uint32_t kTopK = 10;
constexpr auto kThinkTime = std::chrono::milliseconds(2);
constexpr size_t kMinSetupSamples = 25;

/// Library reference of one writer's stream: the global estimate after
/// every 8192-edge batch, and the per-batch Ingest() and Snapshot()
/// latencies.
struct Reference {
  std::vector<double> prefix_global;  // [j] = after j batches
  std::vector<double> batch_ms;
  std::vector<double> snapshot_ms;
  double wall_s = 0.0;
};

Reference IngestReference(const rept::ReptEstimator& system, uint64_t seed,
                          const rept::EdgeStream& stream, size_t workers,
                          Outcome& outcome) {
  Reference ref;
  rept::ThreadPool pool(workers);
  auto session = system.CreateSession(seed, &pool);
  outcome.Op(session.ok(), "CreateSession (reference)");
  if (!session.ok()) return ref;
  const std::span<const rept::Edge> edges(stream.edges());
  ref.prefix_global.push_back(session.value()->Snapshot().global);
  int64_t batch = 0;
  for (size_t i = 0; i < edges.size(); i += kFrame, ++batch) {
    const double start = Now();
    {
      Span span("core.Ingest", batch);
      session.value()->Ingest(
          edges.subspan(i, std::min(kFrame, edges.size() - i)));
    }
    const double seconds = Now() - start;
    ref.batch_ms.push_back(seconds * 1e3);
    ref.wall_s += seconds;
    outcome.Op(true, "Ingest (library)");
    const double snapshot_start = Now();
    Span span("core.Snapshot", batch);
    ref.prefix_global.push_back(session.value()->Snapshot().global);
    ref.snapshot_ms.push_back((Now() - snapshot_start) * 1e3);
  }
  return ref;
}

rept::net::SessionSpec Spec(const std::string& name,
                            const rept::ReptConfig& config, uint64_t seed) {
  rept::net::SessionSpec spec;
  spec.name = name;
  spec.config = config;
  spec.seed = seed;
  return spec;
}

}  // namespace

void RunServerFrames(const Options& options, Outcome& outcome,
                     Metrics& metrics) {
  Layers layers;
  double t0 = Now();
  std::vector<rept::EdgeStream> streams;
  for (int w = 0; w < kWriters; ++w) {
    streams.push_back(MakeStream(kEdgesPerWriter, options.seed * 8 + 101 + w));
  }
  layers.bench_gen_s = Now() - t0;

  rept::ReptConfig config;
  config.m = 8;
  config.c = 8;
  config.track_local = false;
  const rept::ReptEstimator system(config);
  std::vector<uint64_t> seeds;
  for (int w = 0; w < kWriters; ++w) {
    seeds.push_back(options.seed * 0x9e3779b97f4a7c15ULL + 17 + w);
  }

  // References (the correctness gate's expected values). Writer 0's stream
  // runs on the server's pool size and times the same 8192-edge batches
  // through Ingest() directly; writer 1's runs on 1 worker. Every round
  // repeats the 1-worker one as the single-threaded baseline.
  std::vector<Reference> refs;
  refs.push_back(IngestReference(system, seeds[0], streams[0], kServerWorkers,
                                 outcome));
  refs.push_back(IngestReference(system, seeds[1], streams[1], 1, outcome));

  rept::net::ServerOptions server_options;
  server_options.pool_threads = kServerWorkers;
  server_options.limits.default_session_memory_budget = 8ull << 30;
  server_options.limits.global_memory_budget = 32ull << 30;

  std::vector<double> setup_s, create_ms, eps, frame_ms, snapshot_ms,
      ckpt_s, restore_s, restore_create_ms, traced_eps, untraced_eps, eps_1t;
  double cpu_s = 0.0, ingest_wall_s = 0.0, acked_edges = 0.0;
  double state_bytes = 0.0, stored_edges = 0.0, ckpt_bytes = 0.0,
         routed_per_edge = 0.0;
  double traced_rounds = 0.0;
  Counters ingest_counters;
  std::mutex samples_mutex;

  // One set-up: server start plus a connected, created session per writer.
  auto set_up = [&](std::unique_ptr<rept::net::ReptServer>& server,
                    std::vector<rept::net::ReptClient>& writers) {
    const double start = Now();
    server = std::make_unique<rept::net::ReptServer>(server_options);
    rept::Status st;
    {
      Span span("net.ReptServer::Start");
      st = server->Start();
    }
    outcome.Op(st.ok(), "ReptServer::Start: " + st.ToString());
    if (!st.ok()) return false;
    writers = std::vector<rept::net::ReptClient>(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      const double create_start = Now();
      Span span("net.ReptClient::CreateSession");
      st = writers[w].Connect("127.0.0.1", server->port());
      if (st.ok()) {
        st = writers[w].CreateSession(
            Spec(kSessionNames[w], config, seeds[w]));
      }
      create_ms.push_back((Now() - create_start) * 1e3);
      outcome.Op(st.ok(), "CREATE: " + st.ToString());
      if (!st.ok()) return false;
    }
    setup_s.push_back(Now() - start);
    return true;
  };

  RunRounds(options, [&](bool traced) {
    Span round("bench.round");
    const int64_t round_id = round.id();
    std::unique_ptr<rept::net::ReptServer> server;
    std::vector<rept::net::ReptClient> writers;
    if (!set_up(server, writers)) return;
    rept::net::ReptClient reader;
    const rept::Status connected = reader.Connect("127.0.0.1", server->port());
    outcome.Op(connected.ok(), "reader connect: " + connected.ToString());
    if (!connected.ok()) return;

    const Counters before = SampleAtBoundary();
    const double cpu0 = CpuSeconds();
    const double wall0 = Now();
    std::atomic<int> writers_left{kWriters};
    std::atomic<uint64_t> round_acked{0};
    std::array<std::atomic<size_t>, kWriters> frames_acked{};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        const std::span<const rept::Edge> edges(streams[w].edges());
        std::vector<double> latencies;
        int64_t frame = 0;
        for (size_t i = 0; i < edges.size(); i += kFrame, ++frame) {
          const double start = Now();
          bool ok = false;
          const std::span<const rept::Edge> part =
              edges.subspan(i, std::min(kFrame, edges.size() - i));
          {
            Span span("net.ReptClient::Ingest", frame, round_id);
            ok = writers[w].Ingest(kSessionNames[w], part).ok();
          }
          if (ok) {
            round_acked.fetch_add(part.size());
            frames_acked[w].fetch_add(1);
          }
          latencies.push_back((Now() - start) * 1e3);
          outcome.Op(ok, "INGEST");
          if (!ok) break;
        }
        writers_left.fetch_sub(1);
        std::lock_guard<std::mutex> lock(samples_mutex);
        frame_ms.insert(frame_ms.end(), latencies.begin(), latencies.end());
      });
    }
    threads.emplace_back([&] {
      for (int k = 0; writers_left.load() > 0; ++k) {
        const int w = k % kWriters;
        const size_t acked_before = frames_acked[w].load();
        const double start = Now();
        const auto reply = [&] {
          Span span("net.ReptClient::Snapshot", k, round_id);
          return reader.Snapshot(kSessionNames[w], kTopK);
        }();
        const double ms = (Now() - start) * 1e3;
        outcome.Op(reply.ok(), "SNAPSHOT");
        if (!reply.ok()) break;
        // The served estimate is the library's after j frames, where j is
        // at least the frames acked before the request and at most the
        // frames the reported stream time covers. It is not one exact j:
        // HandleSnapshot (src/net/server.cpp) reads Snapshot() and then
        // edges_ingested() without the ingest lock, and edges_ingested()
        // may lead the published tallies by the batch being applied
        // (StreamingEstimator's contract), so frames can land in between.
        const std::vector<double>& prefix = refs[w].prefix_global;
        const size_t last = std::min(
            prefix.size() - 1,
            static_cast<size_t>((reply.value().edges_ingested + kFrame - 1) /
                                kFrame));
        bool matched = false;
        for (size_t j = acked_before; j <= last && !matched; ++j) {
          matched = prefix[j] == reply.value().global;
        }
        outcome.Check(matched, "server_frames.snapshot_equals_library_prefix",
                      "served global matches no library prefix between the "
                      "acked frames and the reported stream time");
        if (traced) {
          Span span("net.ReptClient::Stats", k, round_id);
          const auto stats = reader.Stats();
          outcome.Op(stats.ok(), "STATS");
          if (stats.ok()) {
            Tracer::Get().Counter(
                "stats.total_memory_bytes",
                static_cast<double>(stats.value().total_memory_bytes));
          }
          (void)SampleAtBoundary();
        }
        {
          std::lock_guard<std::mutex> lock(samples_mutex);
          snapshot_ms.push_back(ms);
        }
        std::this_thread::sleep_for(kThinkTime);
      }
    });
    for (std::thread& t : threads) t.join();
    const double wall = Now() - wall0;
    cpu_s += CpuSeconds() - cpu0;
    ingest_wall_s += wall;
    Accumulate(ingest_counters, Delta(before, SampleAtBoundary()));
    const double round_edges = static_cast<double>(round_acked.load());
    acked_edges += round_edges;
    eps.push_back(round_edges / wall);
    (traced ? traced_eps : untraced_eps).push_back(round_edges / wall);

    // Final state: every session equals the library after its full stream.
    for (int w = 0; w < kWriters; ++w) {
      const auto reply = [&] {
        Span span("net.ReptClient::Snapshot");
        return reader.Snapshot(kSessionNames[w], kTopK);
      }();
      outcome.Op(reply.ok(), "SNAPSHOT (final)");
      outcome.Check(reply.ok() &&
                        reply.value().global == refs[w].prefix_global.back() &&
                        reply.value().edges_ingested == streams[w].size(),
                    "server_frames.final_equals_library",
                    "writer " + std::to_string(w) +
                        ": served estimate or edge count differs");
    }
    const auto stats = [&] {
      Span span("net.ReptClient::Stats");
      return reader.Stats();
    }();
    outcome.Op(stats.ok(), "STATS");
    if (stats.ok()) {
      state_bytes = 0.0;
      stored_edges = 0.0;
      double routed = 0.0, ingested = 0.0;
      for (const auto& row : stats.value().sessions) {
        state_bytes += static_cast<double>(row.memory_bytes);
        stored_edges += static_cast<double>(row.stored_edges);
        routed += static_cast<double>(row.cumulative.routed_entries);
        ingested += static_cast<double>(row.edges_ingested);
      }
      routed_per_edge = routed / ingested;
    }

    // CHECKPOINT writer 0's session, RESTORE it into a new session.
    double start = Now();
    const auto bytes = [&] {
      Span span("net.ReptClient::Checkpoint");
      return reader.Checkpoint(kSessionNames[0]);
    }();
    ckpt_s.push_back(Now() - start);
    outcome.Op(bytes.ok(), "CHECKPOINT");
    if (!bytes.ok()) return;
    ckpt_bytes = static_cast<double>(bytes.value().size());
    start = Now();
    rept::Status st;
    {
      Span span("net.ReptClient::CreateSession");
      st = reader.CreateSession(Spec("restored", config, seeds[0]));
    }
    restore_create_ms.push_back((Now() - start) * 1e3);
    outcome.Op(st.ok(), "CREATE (restore)");
    {
      Span span("net.ReptClient::Restore");
      st = reader.Restore("restored", bytes.value());
    }
    restore_s.push_back(Now() - start);
    outcome.Op(st.ok(), "RESTORE: " + st.ToString());
    const auto restored = [&] {
      Span span("net.ReptClient::Snapshot");
      return reader.Snapshot("restored", kTopK);
    }();
    outcome.Op(restored.ok(), "SNAPSHOT (restored)");
    outcome.Check(restored.ok() &&
                      restored.value().global == refs[0].prefix_global.back(),
                  "server_frames.restore_equals_saved",
                  "restored session differs from the checkpointed one");
    {
      Span span("net.ReptServer::Stop");
      (void)server->Stop();
      server.reset();
    }

    // The single-threaded baseline: writer 1's stream through the library
    // on 1 worker, in the same 8192-edge batches.
    const Reference baseline =
        IngestReference(system, seeds[1], streams[1], 1, outcome);
    eps_1t.push_back(static_cast<double>(streams[1].size()) / baseline.wall_s);
    outcome.Check(baseline.prefix_global == refs[1].prefix_global,
                  "server_frames.baseline_deterministic",
                  "1-worker library ingest differs from the reference");
    if (traced) traced_rounds += 1.0;
  }, [&] {
    for (auto* v : {&setup_s, &create_ms, &eps, &frame_ms, &snapshot_ms,
                    &ckpt_s, &restore_s, &restore_create_ms, &traced_eps,
                    &untraced_eps, &eps_1t}) {
      v->clear();
    }
    cpu_s = ingest_wall_s = acked_edges = 0.0;
    ingest_counters.clear();
  });
  const std::vector<Tracer::Event> traced_events = Tracer::Get().Events();
  while (setup_s.size() < kMinSetupSamples) {
    std::unique_ptr<rept::net::ReptServer> server;
    std::vector<rept::net::ReptClient> writers;
    if (!set_up(server, writers)) break;
  }
  std::fprintf(stderr,
               "server_frames: %zu rounds, %zu frames, %zu snapshots\n",
               eps.size(), frame_ms.size(), snapshot_ms.size());

  const double ingest_1t_eps = Median(eps_1t);
  if (options.trace) {
    layers.core_create_ms = Median(create_ms);
    FillFromRegistry(layers, ingest_counters, acked_edges, ingest_wall_s,
                     kServerWorkers, static_cast<double>(eps.size()));
    layers.core_routed_entries_per_edge = routed_per_edge;
    layers.core_bytes_per_stored_edge = state_bytes / stored_edges;
    layers.core_snapshot_local_ms = Median(refs[0].snapshot_ms);
    layers.pool_scaling_eff =
        Median(eps) / (static_cast<double>(kServerWorkers) * ingest_1t_eps);
    layers.net_core_ingest_8k_p50_ms = Median(refs[0].batch_ms);
    layers.net_frame_overhead_ms =
        Percentile(frame_ms, 0.5) - layers.net_core_ingest_8k_p50_ms;
    const double wire_edges =
        Get(ingest_counters, "rept_server_ingest_edges_total");
    layers.net_wire_bytes_per_edge =
        wire_edges > 0.0
            ? Get(ingest_counters, "rept_server_ingest_bytes_total") /
                  wire_edges
            : 0.0;
    layers.net_snapshot_p50_ms = Percentile(snapshot_ms, 0.50);
    layers.net_snapshot_p99_ms = Percentile(snapshot_ms, 0.99);
    layers.net_error_frames =
        Get(ingest_counters, "rept_server_error_frames_total");
    layers.net_admission_rejections =
        Get(ingest_counters, "rept_server_admission_rejections_total");
    const double s0_stored = stored_edges / kWriters;
    layers.persist_encode_ns_per_stored_edge = Median(ckpt_s) * 1e9 / s0_stored;
    layers.persist_decode_ns_per_stored_edge =
        (Median(restore_s) - Median(restore_create_ms) * 1e-3) * 1e9 /
        s0_stored;
    layers.persist_restore_create_ms = Median(restore_create_ms);
    layers.persist_bytes_per_stored_edge = ckpt_bytes / s0_stored;
    layers.obs_trace_overhead_pct =
        (Median(untraced_eps) / Median(traced_eps) - 1.0) * 100.0;
    FillFromSpans(layers, traced_events, traced_rounds);
    metrics = LayerMetrics(layers);
    return;
  }
  EndToEnd e;
  e.ingest_eps = Median(eps);
  e.ingest_eps_1t = ingest_1t_eps;
  e.cpu_ns_per_edge = cpu_s * 1e9 / acked_edges;
  e.frame_p50_ms = Percentile(frame_ms, 0.50);
  e.frame_p99_ms = Percentile(frame_ms, 0.99);
  e.checkpoint_s = Median(ckpt_s);
  e.restore_s = Median(restore_s);
  e.setup_s = Median(setup_s);
  e.state_mb = state_bytes / (1 << 20);
  e.ckpt_mb = ckpt_bytes / (1 << 20);
  e.peak_rss_mb = PeakRssMb();
  metrics = EndToEndMetrics(e);
}

}  // namespace perfbench
