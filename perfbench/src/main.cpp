// perfbench: one workload run of the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when any
// solve failed its answer check, 2 on bad arguments.
#include <omp.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

/// Milliseconds of a fixed single-thread dependent floating-point chain.
/// Printed before and after the workload, not a metric: on a shared host
/// it shows whether a run met a slow phase of the machine.
double host_probe_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  volatile double sink = 0.0;
  double x = 1.0;
  for (int i = 0; i < 20000000; ++i) {
    x = x * 0.999999 + 1e-7;
  }
  sink = x;
  (void)sink;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void print_json(const perfbench::RunReport& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              rep.tally.failed == 0 ? "true" : "false",
              static_cast<long long>(rep.tally.attempted),
              static_cast<long long>(rep.tally.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + a).c_str());
    }
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !(opt.seconds > 0.0)) {
    return usage("--workload, --seed and a positive --seconds are required");
  }
  try {
    perfbench::workload(opt.workload);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  std::printf("host: nproc %ld, LLC %.0f MiB, OpenMP threads %d, seed %llu, "
              "seconds %g, trace %d\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              static_cast<double>(perfbench::llc_bytes()) / (1024.0 * 1024.0),
              omp_get_max_threads(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host probe before: %.1f ms\n", host_probe_ms());
  const perfbench::RunReport rep = perfbench::run_workload(opt);
  std::printf("host probe after: %.1f ms\n", host_probe_ms());
  for (const perfbench::Metric& m : rep.metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
  print_json(rep);
  return rep.tally.failed == 0 ? 0 : 1;
}
