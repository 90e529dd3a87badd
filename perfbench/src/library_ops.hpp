// Timed calls into the library shared by the workloads: stream generation,
// chunked Ingest(), in-memory checkpoint and restore, estimate comparison.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/estimates.hpp"
#include "core/streaming_estimator.hpp"
#include "graph/edge_stream.hpp"
#include "harness.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Holme-Kim stream of about `edges` edges: V = edges / 4 vertices, 4 edges
/// per vertex, triad probability 0.4.
rept::EdgeStream MakeStream(uint64_t edges, uint64_t seed);

/// Bit-for-bit equality of the global and every local estimate.
bool SameEstimates(const rept::TriangleEstimates& a,
                   const rept::TriangleEstimates& b);

/// One ingest phase: wall and CPU time, per-call latencies, counter deltas.
struct IngestPhase {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t edges = 0;
  std::vector<double> call_ms;
  Counters counters;

  void Add(const IngestPhase& other);
  double eps() const { return static_cast<double>(edges) / wall_s; }
};

/// Feeds `edges` in `chunk`-edge Ingest() calls, each timed and inside a
/// "core.Ingest" span. Samples the registry before and after (and at every
/// call boundary when tracing).
IngestPhase TimedIngest(rept::StreamingEstimator& session,
                        std::span<const rept::Edge> edges, size_t chunk,
                        Outcome& outcome);

/// One set-up of a library workload: a pool of `workers` threads and a
/// session on it (null on failure, counted as a failed operation).
struct SetUp {
  std::unique_ptr<rept::ThreadPool> pool;
  std::unique_ptr<rept::StreamingEstimator> session;
  double seconds = 0.0;    // pool + CreateSession
  double create_ms = 0.0;  // CreateSession alone
};
SetUp TimedSetUp(const rept::EstimatorSystem& system, uint64_t seed,
                 size_t workers, const rept::SessionOptions& hints,
                 Outcome& outcome);

/// Routed sub-batch entries this session object has ingested, from its
/// cumulative ReadIngestStats (0 when it does not track them). A session
/// filled by a restore starts from 0.
double RoutedEntries(const rept::StreamingEstimator& session);

/// WriteCheckpointStream into memory, inside a span; returns the bytes
/// ("" on failure, counted as a failed operation).
std::string TimedCheckpoint(const rept::StreamingEstimator& session,
                            double& seconds, Outcome& outcome);

/// CreateSession (unhinted) + ReadCheckpointStream of `bytes`; the
/// returned session is null on failure (counted as a failed operation).
/// `create_s` receives the CreateSession share of `seconds`.
std::unique_ptr<rept::StreamingEstimator> TimedRestore(
    const rept::EstimatorSystem& system, uint64_t seed, rept::ThreadPool* pool,
    const std::string& bytes, double& seconds, double& create_s,
    Outcome& outcome);

}  // namespace perfbench
