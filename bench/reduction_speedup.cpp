//===- reduction_speedup.cpp - Commutative-tier reduction benchmarks -------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The commutative privatization tier on the reduction workloads: loops whose
// only carried dependences are single-op reductions (+, *, min, max, guarded
// += through fat pointers). Without the tier these loops serialize behind
// their accumulators; with it they expand onto per-thread copies, run DOALL,
// and a deterministic post-loop merge folds the copies in serial order — so
// speedup comes with bit-identical output, asserted on every run.
//
// Reported per workload: simulated loop/total speedup at 1/2/4/8 cores, the
// serialized (tier-off) simulated total for contrast, and the measured
// wall-clock host speedup of the threads engine at 1/2/4 workers with a
// --min-host-speedup CI gate, as in fig11_speedup.
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
const std::vector<int> HostThreads = {1, 2, 4};

struct Row {
  std::string Name;
  unsigned CommClasses = 0;
  std::map<int, double> LoopSpeedup;
  std::map<int, double> TotalSpeedup;
  /// Simulated total speedup with the commutative tier disabled: what the
  /// pipeline could do before this tier existed (the contrast column).
  std::map<int, double> TierOffSpeedup;
  std::map<int, double> HostSpeedup;
};
std::map<std::string, Row> Rows;

/// Per-workload cache: the reduction set is not part of the standard batch
/// behind preparedForAll, so transform each once and reuse.
PreparedProgram &transformedReduction(const WorkloadInfo &W, bool TierOn) {
  static std::map<std::string, PreparedProgram> Cache;
  std::string Key = std::string(W.Name) + (TierOn ? "/on" : "/off");
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  PipelineOptions Opts;
  Opts.Expansion.CommutativePrivatization = TierOn;
  return Cache.emplace(Key, prepareTransformed(W, Opts)).first->second;
}

void runReductionSim(benchmark::State &State, const WorkloadInfo &W, int N) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});

    PreparedProgram &Xf = transformedReduction(W, /*TierOn=*/true);
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    unsigned CommClasses = 0;
    for (const PipelineResult &PR : Xf.Pipelines)
      CommClasses += PR.Expansion.CommutativeClasses;
    if (!CommClasses) {
      State.SkipWithError("commutative tier claimed nothing");
      return;
    }
    RunResult RT = execute(Xf, {.Threads = N});
    if (!RO.ok() || !RT.ok() || RO.Output != RT.Output) {
      State.SkipWithError("run failed or output mismatch");
      return;
    }

    PreparedProgram &Off = transformedReduction(W, /*TierOn=*/false);
    double OffSp = 0.0;
    if (Off.Ok) {
      RunResult ROff = execute(Off, {.Threads = N});
      if (ROff.ok() && ROff.Output == RO.Output)
        OffSp = static_cast<double>(RO.SimTime) /
                static_cast<double>(ROff.SimTime);
    }

    double LoopSp = static_cast<double>(loopSimTime(RO, Orig.LoopIds)) /
                    static_cast<double>(loopSimTime(RT, Xf.LoopIds));
    double TotalSp =
        static_cast<double>(RO.SimTime) / static_cast<double>(RT.SimTime);
    Row &R = Rows[W.Name];
    R.Name = W.Name;
    R.CommClasses = CommClasses;
    R.LoopSpeedup[N] = LoopSp;
    R.TotalSpeedup[N] = TotalSp;
    R.TierOffSpeedup[N] = OffSp;
    State.counters["loop_speedup"] = LoopSp;
    State.counters["total_speedup"] = TotalSp;
    State.counters["tier_off_speedup"] = OffSp;
  }
}

void runReductionHost(benchmark::State &State, const WorkloadInfo &W, int N) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1,
                                   .Engine = ExecEngine::Bytecode,
                                   .Guard = GuardMode::Off,
                                   .SimulateParallel = false});

    PreparedProgram &Xf = transformedReduction(W, /*TierOn=*/true);
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
    J << "{\"fig\":\"reduction-host\",\"workload\":\"" << W.Name
      << "\",\"host_threads\":" << N << ",\"host_serial_ns\":" << RO.HostNanos
      << ",\"host_threaded_ns\":" << RT.HostNanos
      << ",\"host_speedup\":" << HostSp
      << ",\"comm_classes\":" << Rows[W.Name].CommClasses << "}";
    addJsonRecord(J.str());
  }
}

} // namespace

int main(int argc, char **argv) {
  // --min-host-speedup X: as in fig11_speedup — fail unless some reduction
  // workload's measured wall-clock speedup at the highest host thread count
  // reaches X. Only pass it on multi-core runners.
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

  for (const WorkloadInfo &W : reductionWorkloads())
    for (int N : Cores)
      benchmark::RegisterBenchmark(
          ("reduction/" + std::string(W.Name) + "/cores:" +
           std::to_string(N))
              .c_str(),
          [&W, N](benchmark::State &S) { runReductionSim(S, W, N); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  for (const WorkloadInfo &W : reductionWorkloads())
    for (int N : HostThreads)
      benchmark::RegisterBenchmark(
          ("reductionhost/" + std::string(W.Name) + "/threads:" +
           std::to_string(N))
              .c_str(),
          [&W, N](benchmark::State &S) { runReductionHost(S, W, N); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nCommutative-tier reduction speedup (simulated total; "
              "tier-off contrast at 4 cores)\n");
  std::printf("%-15s %7s", "Benchmark", "classes");
  for (int N : Cores)
    std::printf(" %7dc", N);
  std::printf(" %9s\n", "off@4c");
  std::map<int, std::vector<double>> PerN;
  for (const WorkloadInfo &W : reductionWorkloads()) {
    const Row &R = Rows[W.Name];
    std::printf("%-15s %7u", W.Name, R.CommClasses);
    for (int N : Cores) {
      double V = R.TotalSpeedup.count(N) ? R.TotalSpeedup.at(N) : 0;
      std::printf(" %8.2f", V);
      PerN[N].push_back(V);
    }
    std::printf(" %9.2f\n",
                R.TierOffSpeedup.count(4) ? R.TierOffSpeedup.at(4) : 0);
  }
  std::printf("%-15s %7s", "harmonic mean", "");
  for (int N : Cores)
    std::printf(" %8.2f", harmonicMean(PerN[N]));
  std::printf("\n");

  std::printf("\nMeasured host speedup (threads engine vs serial bytecode; "
              "%u hardware threads)\n",
              std::thread::hardware_concurrency());
  std::printf("%-15s", "Benchmark");
  for (int N : HostThreads)
    std::printf(" %7dt", N);
  std::printf("\n");
  double BestAtMax = 0.0;
  std::map<int, std::vector<double>> HostPerN;
  for (const WorkloadInfo &W : reductionWorkloads()) {
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
