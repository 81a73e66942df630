//===- fig11_speedup.cpp - Reproduces Figures 11a and 11b ------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 11: (a) speedup of the parallelized loops and (b) of the whole
// program, over the original sequential program, for 1/2/4/8 simulated
// cores. Paper shapes: md5 / mpeg2-encoder / h263-encoder scale well;
// DOACROSS benchmarks (bzip2, hmmer) plateau from synchronization; the
// single-core bar is below 1.0 (privatization + runtime overheads); paper's
// harmonic-mean total speedups: 1.93 at four cores, 2.24 at eight.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace gdse;
using namespace gdse::bench;

namespace {

const std::vector<int> Cores = {1, 2, 4, 8};
/// Host thread counts for the measured (wall-clock) section: real workers,
/// so there is no point going past small counts on CI-sized machines.
const std::vector<int> HostThreads = {1, 2, 4};

struct Row {
  std::string Name;
  std::map<int, double> LoopSpeedup;
  std::map<int, double> TotalSpeedup;
  /// Measured wall-clock speedup of the threads engine over the serial
  /// bytecode run of the original program, per host thread count.
  std::map<int, double> HostSpeedup;
};
std::map<std::string, Row> Rows;

void runFig11(benchmark::State &State, const WorkloadInfo &W, int N) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});

    PreparedProgram &Xf = preparedForAll(W, PipelineOptions());
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    RunResult RT = execute(Xf, {.Threads = N});
    if (!RO.ok() || !RT.ok() || RO.Output != RT.Output) {
      State.SkipWithError("run failed or output mismatch");
      return;
    }
    double LoopSp = static_cast<double>(loopSimTime(RO, Orig.LoopIds)) /
                    static_cast<double>(loopSimTime(RT, Xf.LoopIds));
    double TotalSp =
        static_cast<double>(RO.SimTime) / static_cast<double>(RT.SimTime);
    Row &R = Rows[W.Name];
    R.Name = W.Name;
    R.LoopSpeedup[N] = LoopSp;
    R.TotalSpeedup[N] = TotalSp;
    State.counters["loop_speedup"] = LoopSp;
    State.counters["total_speedup"] = TotalSp;
  }
}

/// The measured counterpart of Figure 11: the same transformed program on
/// the threads engine with N real host workers, wall-clock against the
/// original program's serial bytecode run. Output equality is asserted —
/// the whole point of expansion is that the threaded run computes the same
/// thing — and the per-loop virtual sync-stall vectors (replayed, so
/// bit-identical to the simulated schedule) go into the JSON record to
/// explain where DOACROSS wall-clock goes.
void runFig11Host(benchmark::State &State, const WorkloadInfo &W, int N) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1,
                                   .Engine = ExecEngine::Bytecode,
                                   .Guard = GuardMode::Off,
                                   .SimulateParallel = false});

    PreparedProgram &Xf = preparedForAll(W, PipelineOptions());
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    RunResult RT = execute(Xf, {.Threads = N,
                                .Engine = ExecEngine::Threads,
                                .Guard = GuardMode::Off});
    if (!RO.ok() || !RT.ok() || RO.Output != RT.Output) {
      State.SkipWithError("host-threaded run failed or output mismatch");
      return;
    }
    double HostSp = RT.HostNanos
                        ? static_cast<double>(RO.HostNanos) /
                              static_cast<double>(RT.HostNanos)
                        : 0.0;
    Rows[W.Name].Name = W.Name;
    Rows[W.Name].HostSpeedup[N] = HostSp;
    State.counters["host_speedup"] = HostSp;

    std::ostringstream J;
    J << "{\"fig\":\"11-host\",\"workload\":\"" << W.Name
      << "\",\"host_threads\":" << N << ",\"host_serial_ns\":" << RO.HostNanos
      << ",\"host_threaded_ns\":" << RT.HostNanos
      << ",\"host_speedup\":" << HostSp << ",\"loops\":[";
    bool FirstLoop = true;
    for (unsigned Id : Xf.LoopIds) {
      auto It = RT.Loops.find(Id);
      if (It == RT.Loops.end())
        continue;
      const LoopStats &L = It->second;
      J << (FirstLoop ? "" : ",") << "{\"loop\":" << Id << ",\"kind\":\""
        << (L.Kind == ParallelKind::DOALL ? "doall" : "doacross")
        << "\",\"sim_time\":" << L.SimTime << ",\"sync_stall\":[";
      for (size_t T = 0; T != L.SyncStallPerThread.size(); ++T)
        J << (T ? "," : "") << L.SyncStallPerThread[T];
      J << "]}";
      FirstLoop = false;
    }
    J << "]}";
    addJsonRecord(J.str());
  }
}

} // namespace

int main(int argc, char **argv) {
  // --min-host-speedup X: fail (exit 1) unless some workload's measured
  // wall-clock speedup at the highest host thread count reaches X. CI runs
  // this gate on multi-core runners; a 1-CPU box cannot satisfy it and
  // should not pass the flag.
  double MinHostSpeedup = 0.0;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--min-host-speedup") == 0 && I + 1 < argc) {
      MinHostSpeedup = std::atof(argv[I + 1]);
      for (int J = I; J + 2 < argc; ++J)
        argv[J] = argv[J + 2];
      argc -= 2;
      break;
    }
  }

  for (const WorkloadInfo &W : allWorkloads())
    for (int N : Cores)
      benchmark::RegisterBenchmark(
          ("fig11/" + std::string(W.Name) + "/cores:" + std::to_string(N))
              .c_str(),
          [&W, N](benchmark::State &S) { runFig11(S, W, N); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  for (const WorkloadInfo &W : allWorkloads())
    for (int N : HostThreads)
      benchmark::RegisterBenchmark(
          ("fig11host/" + std::string(W.Name) + "/threads:" +
           std::to_string(N))
              .c_str(),
          [&W, N](benchmark::State &S) { runFig11Host(S, W, N); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  auto printSeries = [&](const char *Title, bool Loop) {
    std::printf("\n%s\n", Title);
    std::printf("%-15s", "Benchmark");
    for (int N : Cores)
      std::printf(" %7dc", N);
    std::printf("\n");
    std::map<int, std::vector<double>> PerN;
    for (const WorkloadInfo &W : allWorkloads()) {
      const Row &R = Rows[W.Name];
      std::printf("%-15s", W.Name);
      for (int N : Cores) {
        double V = Loop ? (R.LoopSpeedup.count(N) ? R.LoopSpeedup.at(N) : 0)
                        : (R.TotalSpeedup.count(N) ? R.TotalSpeedup.at(N) : 0);
        std::printf(" %8.2f", V);
        PerN[N].push_back(V);
      }
      std::printf("\n");
    }
    std::printf("%-15s", "harmonic mean");
    for (int N : Cores)
      std::printf(" %8.2f", harmonicMean(PerN[N]));
    std::printf("\n");
  };

  printSeries("Figure 11a: loop speedup over the original sequential run",
              /*Loop=*/true);
  printSeries("Figure 11b: total program speedup", /*Loop=*/false);
  std::printf("\nPaper: total-speedup harmonic means 1.93 (4 cores) and 2.24 "
              "(8 cores); DOACROSS loops plateau beyond 4 cores.\n");

  // The measured section: real host threads, wall clock. Values depend on
  // the machine (notably hardware_concurrency); the simulated figures above
  // are the reproducible ones.
  std::printf("\nMeasured host speedup (threads engine vs serial bytecode; "
              "%u hardware threads)\n",
              std::thread::hardware_concurrency());
  std::printf("%-15s", "Benchmark");
  for (int N : HostThreads)
    std::printf(" %7dt", N);
  std::printf("\n");
  double BestAtMax = 0.0;
  std::map<int, std::vector<double>> HostPerN;
  for (const WorkloadInfo &W : allWorkloads()) {
    const Row &R = Rows[W.Name];
    std::printf("%-15s", W.Name);
    for (int N : HostThreads) {
      double V = R.HostSpeedup.count(N) ? R.HostSpeedup.at(N) : 0;
      std::printf(" %8.2f", V);
      HostPerN[N].push_back(V);
      if (N == HostThreads.back() && V > BestAtMax)
        BestAtMax = V;
    }
    std::printf("\n");
  }
  std::printf("%-15s", "harmonic mean");
  for (int N : HostThreads)
    std::printf(" %8.2f", harmonicMean(HostPerN[N]));
  std::printf("\n");

  if (MinHostSpeedup > 0.0 && BestAtMax < MinHostSpeedup) {
    std::fprintf(stderr,
                 "FAIL: best measured host speedup %.2f at %d threads is "
                 "below the required %.2f\n",
                 BestAtMax, HostThreads.back(), MinHostSpeedup);
    return 1;
  }
  return 0;
}
