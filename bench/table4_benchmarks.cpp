//===- table4_benchmarks.cpp - Reproduces Table 4 --------------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Table 4: benchmark name, suite, code size, function containing the
// parallelized loop, loop nesting level, type of parallelism, and the loop's
// execution time as a percentage of the whole program. Sizes/percentages are
// those of our MiniC kernels; the parallelism kind and level must match the
// paper exactly.
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
  std::string Suite;
  unsigned Loc = 0;
  std::string Function;
  unsigned Level = 0;
  std::string Parallelism;
  double TimePct = 0.0;
};

std::vector<Row> Rows;

unsigned countLines(const char *Src) {
  unsigned N = 0;
  for (const char *P = Src; *P; ++P)
    if (*P == '\n')
      ++N;
  return N;
}

void runTable4(benchmark::State &State, const WorkloadInfo &W) {
  for (auto _ : State) {
    PreparedProgram &Xf = preparedForAll(W, PipelineOptions());
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    // Sequential run of the ORIGINAL program to measure the loop share.
    PreparedProgram Orig = prepareOriginal(W);
    RunResult R = execute(Orig, {.Threads = 1});
    double Pct = R.WorkCycles
                     ? 100.0 * static_cast<double>(
                                   loopWorkCycles(R, Orig.LoopIds)) /
                           static_cast<double>(R.WorkCycles)
                     : 0.0;

    Row Out;
    Out.Name = W.Name;
    Out.Suite = W.Suite;
    Out.Loc = countLines(W.Source);
    Out.Function = W.Function;
    Out.Level = W.LoopLevel;
    const char *Kind =
        Xf.Pipelines.front().Plan.Kind == ParallelKind::DOALL ? "DOALL"
                                                              : "DOACROSS";
    Out.Parallelism = Kind;
    Out.TimePct = Pct;
    Rows.push_back(Out);

    State.counters["loop_time_pct"] = Pct;
    State.counters["loc"] = Out.Loc;
    State.counters["level"] = Out.Level;
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    benchmark::RegisterBenchmark(("table4/" + std::string(W.Name)).c_str(),
                                 [&W](benchmark::State &S) { runTable4(S, W); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nTable 4: benchmark characteristics (MiniC kernels)\n");
  std::printf("%-15s %-14s %5s  %-36s %5s %-9s %7s\n", "Benchmark", "Suite",
              "#LOC", "Function", "Level", "Par.", "%Time");
  for (const Row &R : Rows)
    std::printf("%-15s %-14s %5u  %-36s %5u %-9s %6.1f%%\n", R.Name.c_str(),
                R.Suite.c_str(), R.Loc, R.Function.c_str(), R.Level,
                R.Parallelism.c_str(), R.TimePct);
  std::printf("\nPaper (Table 4): dijkstra DOACROSS L1 99.9%%; md5 DOALL L1 "
              "99.8%%; mpeg2-enc DOALL L3 70.6%%; mpeg2-dec DOALL L2 97.8%%; "
              "h263-enc DOALL L2 43.2%%+37.1%%; 256.bzip2 DOACROSS L2 99.8%%; "
              "456.hmmer DOACROSS L2 99.9%%; 470.lbm DOALL L2 99.1%%\n");
  return 0;
}
