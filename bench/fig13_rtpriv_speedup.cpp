//===- fig13_rtpriv_speedup.cpp - Reproduces Figure 13 ---------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 13: loop speedup when privatization is performed at RUN TIME
// (SpiceC-style access control) instead of by expansion. Expected shape:
// "for most of the benchmarks, there is nearly no speedup due to the large
// runtime overhead".
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

using namespace gdse;
using namespace gdse::bench;

namespace {

const std::vector<int> Cores = {1, 2, 4, 8};
std::map<std::string, std::map<int, double>> LoopSpeedup;

void runFig13(benchmark::State &State, const WorkloadInfo &W, int N) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});

    PipelineOptions Opts;
    Opts.Method = PrivatizationMethod::Runtime;
    PreparedProgram &Xf = preparedForAll(W, Opts);
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    RunResult RT = execute(Xf, {.Threads = N});
    if (!RO.ok() || !RT.ok() || RO.Output != RT.Output) {
      State.SkipWithError("run failed or output mismatch");
      return;
    }
    double Sp = static_cast<double>(loopSimTime(RO, Orig.LoopIds)) /
                static_cast<double>(loopSimTime(RT, Xf.LoopIds));
    LoopSpeedup[W.Name][N] = Sp;
    State.counters["loop_speedup"] = Sp;
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    for (int N : Cores)
      benchmark::RegisterBenchmark(
          ("fig13/" + std::string(W.Name) + "/cores:" + std::to_string(N))
              .c_str(),
          [&W, N](benchmark::State &S) { runFig13(S, W, N); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nFigure 13: loop speedup under runtime privatization\n");
  std::printf("%-15s", "Benchmark");
  for (int N : Cores)
    std::printf(" %7dc", N);
  std::printf("\n");
  for (const WorkloadInfo &W : allWorkloads()) {
    std::printf("%-15s", W.Name);
    for (int N : Cores)
      std::printf(" %8.2f", LoopSpeedup[W.Name].count(N)
                                ? LoopSpeedup[W.Name][N]
                                : 0.0);
    std::printf("\n");
  }
  std::printf("\nPaper: nearly no speedup for most benchmarks (compare with "
              "Figure 11a under expansion).\n");
  return 0;
}
