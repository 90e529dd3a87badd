// rept_perfbench: one workload of the repository benchmark per process.
//
//   rept_perfbench --workload bulk_paper --seed 1 --seconds 10 --trace 0
//
// Prints one JSON object as the last line of stdout: the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1), and only after every
// correctness check passed. A failed check or operation prints no result
// and exits 1; bad arguments exit 2. perfbench/run.py builds and runs this.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"
#include "util/thread_pool.hpp"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "%s\nusage: rept_perfbench --workload "
               "bulk_paper|server_frames|ckpt_resume --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--sabotage CHECK]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--sabotage") {
      options.sabotage = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  options.workers = rept::HardwareThreads();
  // Large blocks always come from fresh mappings and go back on free.
  // glibc otherwise raises this threshold as blocks are freed, so whether a
  // round's hash tables are fresh zero pages or recycled (and re-zeroed)
  // heap depends on the rounds before it: set-up time and peak RSS would
  // vary with allocation history rather than with the code.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  perfbench::Outcome outcome(options);
  perfbench::Metrics metrics;
  if (options.workload == "bulk_paper") {
    perfbench::RunBulkPaper(options, outcome, metrics);
  } else if (options.workload == "server_frames") {
    perfbench::RunServerFrames(options, outcome, metrics);
  } else if (options.workload == "ckpt_resume") {
    perfbench::RunCkptResume(options, outcome, metrics);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.trace && !options.trace_out.empty() &&
      !perfbench::Tracer::Get().WriteChromeTrace(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }
  return perfbench::Report(outcome, metrics);
}
