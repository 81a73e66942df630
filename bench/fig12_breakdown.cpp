//===- fig12_breakdown.cpp - Reproduces Figure 12 --------------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 12: where the cycles of an 8-core run go — loop work, cross-
// iteration synchronization stalls (the paper's do_wait), scheduling/
// dispatch overhead, and end-of-loop idling (cpu_relax / load imbalance).
// Expected shape: DOACROSS benchmarks (256.bzip2, 456.hmmer) are dominated
// by synchronization; DOALL benchmarks show mostly work with some idle from
// imbalance.
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
  double WorkPct = 0, SyncPct = 0, DispatchPct = 0, IdlePct = 0;
};
std::vector<Row> Rows;

void runFig12(benchmark::State &State, const WorkloadInfo &W) {
  for (auto _ : State) {
    PreparedProgram &Xf = preparedForAll(W, PipelineOptions());
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    RunResult R = execute(Xf, {.Threads = 8});
    if (!R.ok()) {
      State.SkipWithError(R.TrapMessage.c_str());
      return;
    }
    uint64_t Work = 0, Sync = 0, Dispatch = 0, Idle = 0;
    for (unsigned LoopId : Xf.LoopIds) {
      auto It = R.Loops.find(LoopId);
      if (It == R.Loops.end())
        continue;
      const LoopStats &LS = It->second;
      for (uint64_t V : LS.WorkPerThread)
        Work += V;
      for (uint64_t V : LS.SyncStallPerThread)
        Sync += V;
      for (uint64_t V : LS.DispatchPerThread)
        Dispatch += V;
      for (uint64_t V : LS.IdlePerThread)
        Idle += V;
    }
    double Total = static_cast<double>(Work + Sync + Dispatch + Idle);
    Row Out;
    Out.Name = W.Name;
    if (Total > 0) {
      Out.WorkPct = 100.0 * Work / Total;
      Out.SyncPct = 100.0 * Sync / Total;
      Out.DispatchPct = 100.0 * Dispatch / Total;
      Out.IdlePct = 100.0 * Idle / Total;
    }
    Rows.push_back(Out);
    State.counters["work_pct"] = Out.WorkPct;
    State.counters["sync_pct"] = Out.SyncPct;
    State.counters["dispatch_pct"] = Out.DispatchPct;
    State.counters["idle_pct"] = Out.IdlePct;
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    benchmark::RegisterBenchmark(("fig12/" + std::string(W.Name)).c_str(),
                                 [&W](benchmark::State &S) { runFig12(S, W); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nFigure 12: 8-core cycle breakdown of the parallel loops\n");
  std::printf("%-15s %8s %8s %10s %8s\n", "Benchmark", "work", "sync",
              "dispatch", "idle");
  for (const Row &R : Rows)
    std::printf("%-15s %7.1f%% %7.1f%% %9.1f%% %7.1f%%\n", R.Name.c_str(),
                R.WorkPct, R.SyncPct, R.DispatchPct, R.IdlePct);
  std::printf("\nPaper: synchronization dominates 256.bzip2 and 456.hmmer "
              "(DOACROSS); waiting (do_wait/cpu_relax) is visible for "
              "470.lbm and mpeg2-decoder.\n");
  return 0;
}
