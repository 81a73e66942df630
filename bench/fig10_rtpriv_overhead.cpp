//===- fig10_rtpriv_overhead.cpp - Reproduces Figure 10 --------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 10: single-core overhead of static data structure expansion vs the
// runtime-privatization baseline (SpiceC-style access control, §4.2.1).
// Expected shape: runtime privatization costs far more for most benchmarks
// — each private access pays a translation — while expansion's redirection
// arithmetic is nearly free after §3.4.
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
  double SlowdownExpansion = 0.0;
  double SlowdownRuntime = 0.0;
  uint64_t Translations = 0;
};
std::vector<Row> Rows;

void runFig10(benchmark::State &State, const WorkloadInfo &W) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});

    PipelineOptions ExpOpts;
    PreparedProgram &Exp = preparedForAll(W, ExpOpts);
    PipelineOptions RtOpts;
    RtOpts.Method = PrivatizationMethod::Runtime;
    PreparedProgram &Rt = preparedForAll(W, RtOpts);
    if (!Exp.Ok || !Rt.Ok) {
      State.SkipWithError((Exp.Ok ? Rt.Error : Exp.Error).c_str());
      return;
    }
    RunResult RE = execute(Exp, {.Threads = 1, .SimulateParallel = false});
    RunResult RR = execute(Rt, {.Threads = 1, .SimulateParallel = false});
    if (RO.Output != RE.Output || RO.Output != RR.Output) {
      State.SkipWithError("output mismatch");
      return;
    }
    Row R;
    R.Name = W.Name;
    R.SlowdownExpansion =
        static_cast<double>(RE.WorkCycles) / static_cast<double>(RO.WorkCycles);
    R.SlowdownRuntime =
        static_cast<double>(RR.WorkCycles) / static_cast<double>(RO.WorkCycles);
    R.Translations = RR.RtPrivTranslations;
    Rows.push_back(R);
    State.counters["slowdown_expansion"] = R.SlowdownExpansion;
    State.counters["slowdown_rtpriv"] = R.SlowdownRuntime;
    State.counters["rt_translations"] = static_cast<double>(R.Translations);
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    benchmark::RegisterBenchmark(("fig10/" + std::string(W.Name)).c_str(),
                                 [&W](benchmark::State &S) { runFig10(S, W); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nFigure 10: single-core overhead, expansion vs runtime "
              "privatization (original = 1.00)\n");
  std::printf("%-15s %12s %14s %16s\n", "Benchmark", "expansion",
              "runtime priv.", "#translations");
  std::vector<double> E, R;
  for (const Row &Row : Rows) {
    std::printf("%-15s %12s %14s %16llu\n", Row.Name.c_str(),
                ratioStr(Row.SlowdownExpansion).c_str(),
                ratioStr(Row.SlowdownRuntime).c_str(),
                static_cast<unsigned long long>(Row.Translations));
    E.push_back(Row.SlowdownExpansion);
    R.push_back(Row.SlowdownRuntime);
  }
  std::printf("%-15s %12s %14s\n", "harmonic mean",
              ratioStr(harmonicMean(E)).c_str(),
              ratioStr(harmonicMean(R)).c_str());
  std::printf("\nPaper: runtime privatization incurs much higher overhead "
              "for most benchmarks.\n");
  return 0;
}
