//===- fig9_overhead.cpp - Reproduces Figures 9a and 9b --------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 9: single-core slowdown of the expanded program relative to the
// original, (a) without the §3.4 optimizations — every pointer slot is
// promoted, spans are computed everywhere — and (b) with them. Paper: the
// unoptimized harmonic-mean slowdown is ~1.8x, the optimized overhead stays
// below 5%. Methodology: the transformed program runs sequentially
// (SimulateParallel off, one thread), and slowdown = work cycles ratio.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

using namespace gdse;
using namespace gdse::bench;

namespace {

struct Row {
  std::string Name;
  double SlowdownRaw = 0.0; // without optimizations (Fig. 9a)
  double SlowdownOpt = 0.0; // with optimizations (Fig. 9b)
};
std::vector<Row> Rows;

double measureSlowdown(const WorkloadInfo &W, const PipelineOptions &Opts,
                       std::string &Error) {
  PreparedProgram Orig = prepareOriginal(W);
  RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});
  PreparedProgram Xf = prepareTransformed(W, Opts);
  if (!Xf.Ok) {
    Error = Xf.Error;
    return 0.0;
  }
  RunResult RT = execute(Xf, {.Threads = 1, .SimulateParallel = false});
  if (!RO.ok() || !RT.ok()) {
    Error = RO.ok() ? RT.TrapMessage : RO.TrapMessage;
    return 0.0;
  }
  if (RO.Output != RT.Output) {
    Error = "output mismatch after transformation";
    return 0.0;
  }
  return static_cast<double>(RT.WorkCycles) / static_cast<double>(RO.WorkCycles);
}

void runFig9(benchmark::State &State, const WorkloadInfo &W) {
  for (auto _ : State) {
    PipelineOptions Opt; // defaults: all §3.4 optimizations on
    PipelineOptions Raw;
    Raw.Expansion.SelectivePromotion = false;
    Raw.Expansion.SpanConstantPropagation = false;
    Raw.Expansion.DeadSpanStoreElimination = false;

    std::string Error;
    Row R;
    R.Name = W.Name;
    R.SlowdownRaw = measureSlowdown(W, Raw, Error);
    if (!Error.empty()) {
      State.SkipWithError(Error.c_str());
      return;
    }
    R.SlowdownOpt = measureSlowdown(W, Opt, Error);
    if (!Error.empty()) {
      State.SkipWithError(Error.c_str());
      return;
    }
    Rows.push_back(R);
    State.counters["slowdown_unopt"] = R.SlowdownRaw;
    State.counters["slowdown_opt"] = R.SlowdownOpt;
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    benchmark::RegisterBenchmark(("fig9/" + std::string(W.Name)).c_str(),
                                 [&W](benchmark::State &S) { runFig9(S, W); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nFigure 9: single-core overhead of data structure expansion "
              "(original = 1.00)\n");
  std::printf("%-15s %26s %23s\n", "Benchmark", "(a) without optimizations",
              "(b) with optimizations");
  std::vector<double> RawAll, OptAll;
  for (const Row &R : Rows) {
    std::printf("%-15s %26s %23s\n", R.Name.c_str(),
                ratioStr(R.SlowdownRaw).c_str(),
                ratioStr(R.SlowdownOpt).c_str());
    RawAll.push_back(R.SlowdownRaw);
    OptAll.push_back(R.SlowdownOpt);
  }
  std::printf("%-15s %26s %23s\n", "harmonic mean",
              ratioStr(harmonicMean(RawAll)).c_str(),
              ratioStr(harmonicMean(OptAll)).c_str());
  std::printf("\nPaper: harmonic mean ~1.8x without optimizations; below "
              "1.05x with them.\n");
  return 0;
}
