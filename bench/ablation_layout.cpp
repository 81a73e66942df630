//===- ablation_layout.cpp - Bonded vs interleaved layout (Fig. 2) ---------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The paper's §3.1 argues for the bonded layout: (1) the interleaved layout
// cannot handle structures recast between different-sized element types
// (256.bzip2's zptr), and (2) bonded copies keep one thread's data adjacent.
// This ablation applies both layouts to every benchmark and reports, per
// layout: applicable or not (with the compiler diagnostic), single-core
// overhead, and output correctness.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Support.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

using namespace gdse;
using namespace gdse::bench;

namespace {

struct Row {
  bool Applicable = false;
  std::string Reason;
  double Slowdown = 0.0;
  bool Correct = false;
};
std::map<std::string, std::map<bool, Row>> Rows; // name -> interleaved? -> row

void runLayout(benchmark::State &State, const WorkloadInfo &W,
               bool Interleaved) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});

    PipelineOptions Opts;
    Opts.Expansion.Layout =
        Interleaved ? LayoutMode::Interleaved : LayoutMode::Bonded;
    PreparedProgram &Xf = preparedForAll(W, Opts);
    Row R;
    if (!Xf.Ok) {
      R.Applicable = false;
      R.Reason = Xf.Error;
      Rows[W.Name][Interleaved] = R;
      State.counters["applicable"] = 0;
      continue;
    }
    RunResult RT = execute(Xf, {.Threads = 4});
    R.Applicable = true;
    R.Correct = RT.ok() && RT.Output == RO.Output;
    RunResult RTSeq = execute(Xf, {.Threads = 1, .SimulateParallel = false});
    R.Slowdown = static_cast<double>(RTSeq.WorkCycles) /
                 static_cast<double>(RO.WorkCycles);
    Rows[W.Name][Interleaved] = R;
    State.counters["applicable"] = 1;
    State.counters["correct"] = R.Correct ? 1 : 0;
    State.counters["slowdown"] = R.Slowdown;
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    for (bool Inter : {false, true})
      benchmark::RegisterBenchmark(
          ("ablation_layout/" + std::string(W.Name) + "/" +
           (Inter ? "interleaved" : "bonded"))
              .c_str(),
          [&W, Inter](benchmark::State &S) { runLayout(S, W, Inter); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nAblation: bonded vs interleaved replication layout\n");
  std::printf("%-15s | %-22s | %-40s\n", "Benchmark", "bonded", "interleaved");
  for (const WorkloadInfo &W : allWorkloads()) {
    const Row &B = Rows[W.Name][false];
    const Row &I = Rows[W.Name][true];
    std::string BS = B.Applicable
                         ? formatString("ok, %.2fx%s", B.Slowdown,
                                        B.Correct ? "" : " WRONG")
                         : "rejected";
    std::string IS = I.Applicable
                         ? formatString("ok, %.2fx%s", I.Slowdown,
                                        I.Correct ? "" : " WRONG")
                         : "rejected: " + I.Reason;
    std::printf("%-15s | %-22s | %-.60s\n", W.Name, BS.c_str(), IS.c_str());
  }
  std::printf("\nPaper: bonded handles every benchmark including recast "
              "structures; interleaved must reject 256.bzip2's zptr.\n");
  return 0;
}
