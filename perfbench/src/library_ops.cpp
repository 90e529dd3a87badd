#include "library_ops.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "gen/holme_kim.hpp"
#include "persist/checkpoint.hpp"

namespace perfbench {

rept::EdgeStream MakeStream(uint64_t edges, uint64_t seed) {
  rept::gen::HolmeKimParams params;
  params.num_vertices = static_cast<rept::VertexId>(edges / 4);
  params.edges_per_vertex = 4;
  params.triad_probability = 0.4;
  return rept::gen::HolmeKim(params, seed);
}

bool SameEstimates(const rept::TriangleEstimates& a,
                   const rept::TriangleEstimates& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (!same(a.global, b.global) || a.local.size() != b.local.size()) {
    return false;
  }
  for (size_t i = 0; i < a.local.size(); ++i) {
    if (!same(a.local[i], b.local[i])) return false;
  }
  return true;
}

void IngestPhase::Add(const IngestPhase& other) {
  wall_s += other.wall_s;
  cpu_s += other.cpu_s;
  edges += other.edges;
  call_ms.insert(call_ms.end(), other.call_ms.begin(), other.call_ms.end());
  Accumulate(counters, other.counters);
}

IngestPhase TimedIngest(rept::StreamingEstimator& session,
                        std::span<const rept::Edge> edges, size_t chunk,
                        Outcome& outcome) {
  IngestPhase phase;
  const bool traced = Tracer::Get().enabled();
  const Counters before = SampleAtBoundary();
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  int64_t batch = 0;
  for (size_t i = 0; i < edges.size(); i += chunk, ++batch) {
    const std::span<const rept::Edge> part =
        edges.subspan(i, std::min(chunk, edges.size() - i));
    const double start = Now();
    {
      Span span("core.Ingest", batch);
      session.Ingest(part);
    }
    phase.call_ms.push_back((Now() - start) * 1e3);
    outcome.Op(true, "Ingest");
    if (traced) (void)SampleAtBoundary();
  }
  phase.wall_s = Now() - t0;
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.edges = edges.size();
  phase.counters = Delta(before, SampleAtBoundary());
  return phase;
}

SetUp TimedSetUp(const rept::EstimatorSystem& system, uint64_t seed,
                 size_t workers, const rept::SessionOptions& hints,
                 Outcome& outcome) {
  SetUp out;
  const double start = Now();
  out.pool = std::make_unique<rept::ThreadPool>(workers);
  const double create_start = Now();
  {
    Span span("core.CreateSession");
    auto created = system.CreateSession(seed, out.pool.get(), hints);
    if (created.ok()) out.session = std::move(created).value();
  }
  out.create_ms = (Now() - create_start) * 1e3;
  out.seconds = Now() - start;
  outcome.Op(out.session != nullptr, "CreateSession");
  return out;
}

double RoutedEntries(const rept::StreamingEstimator& session) {
  rept::StreamingEstimator::IngestStatsView stats;
  return session.ReadIngestStats(&stats, nullptr)
             ? static_cast<double>(stats.routed_entries)
             : 0.0;
}

std::string TimedCheckpoint(const rept::StreamingEstimator& session,
                            double& seconds, Outcome& outcome) {
  std::ostringstream out;
  const double t0 = Now();
  rept::Status st;
  {
    Span span("persist.WriteCheckpointStream");
    st = rept::WriteCheckpointStream(session, out);
  }
  seconds = Now() - t0;
  std::string bytes = out.str();
  outcome.Op(st.ok(), "WriteCheckpointStream: " + st.ToString());
  return st.ok() ? bytes : std::string();
}

std::unique_ptr<rept::StreamingEstimator> TimedRestore(
    const rept::EstimatorSystem& system, uint64_t seed, rept::ThreadPool* pool,
    const std::string& bytes, double& seconds, double& create_s,
    Outcome& outcome) {
  std::istringstream in(bytes);
  const double t0 = Now();
  std::unique_ptr<rept::StreamingEstimator> fresh;
  {
    Span span("core.CreateSession");
    auto created = system.CreateSession(seed, pool);
    if (created.ok()) fresh = std::move(created).value();
  }
  create_s = Now() - t0;
  outcome.Op(fresh != nullptr, "CreateSession (restore)");
  if (fresh == nullptr) return nullptr;
  rept::Status st;
  {
    Span span("persist.ReadCheckpointStream");
    st = rept::ReadCheckpointStream(*fresh, in, /*expect_stream_end=*/true);
  }
  seconds = Now() - t0;
  outcome.Op(st.ok(), "ReadCheckpointStream: " + st.ToString());
  return st.ok() ? std::move(fresh) : nullptr;
}

}  // namespace perfbench
