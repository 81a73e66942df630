//===- ablation_spanopts.cpp - §3.4 optimizations one at a time ------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Separates the three §3.4 overhead reductions the paper lumps into
// Figure 9b: dead span-store elimination, span constant propagation (no fat
// pointer when the span is a compile-time constant), and selective
// promotion (alias analysis limits promotion to pointers that can reach
// expanded structures). Reports single-core slowdown with each optimization
// enabled alone, none, and all.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

using namespace gdse;
using namespace gdse::bench;

namespace {

struct Config {
  const char *Name;
  bool Selective, ConstProp, DeadStore;
};
const Config Configs[] = {
    {"none", false, false, false},
    {"+selective", true, false, false},
    {"+constprop", false, true, false},
    {"+deadstore", false, false, true},
    {"all", true, true, true},
};

std::map<std::string, std::map<std::string, double>> Slowdown;
std::map<std::string, std::map<std::string, unsigned>> Promoted;

void runConfig(benchmark::State &State, const WorkloadInfo &W,
               const Config &C) {
  for (auto _ : State) {
    PreparedProgram Orig = prepareOriginal(W);
    RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});

    PipelineOptions Opts;
    Opts.Expansion.SelectivePromotion = C.Selective;
    Opts.Expansion.SpanConstantPropagation = C.ConstProp;
    Opts.Expansion.DeadSpanStoreElimination = C.DeadStore;
    PreparedProgram &Xf = preparedForAll(W, Opts);
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    RunResult RT = execute(Xf, {.Threads = 1, .SimulateParallel = false});
    if (!RT.ok() || RT.Output != RO.Output) {
      State.SkipWithError("output mismatch");
      return;
    }
    double S = static_cast<double>(RT.WorkCycles) /
               static_cast<double>(RO.WorkCycles);
    unsigned P = 0;
    for (const PipelineResult &PR : Xf.Pipelines)
      P += PR.Expansion.PromotedPointerSlots;
    Slowdown[W.Name][C.Name] = S;
    Promoted[W.Name][C.Name] = P;
    State.counters["slowdown"] = S;
    State.counters["promoted"] = P;
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    for (const Config &C : Configs)
      benchmark::RegisterBenchmark(
          ("ablation_spanopts/" + std::string(W.Name) + "/" + C.Name).c_str(),
          [&W, &C](benchmark::State &S) { runConfig(S, W, C); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nAblation: §3.4 optimizations, single-core slowdown "
              "(original = 1.00)\n");
  std::printf("%-15s", "Benchmark");
  for (const Config &C : Configs)
    std::printf(" %12s", C.Name);
  std::printf("\n");
  for (const WorkloadInfo &W : allWorkloads()) {
    std::printf("%-15s", W.Name);
    for (const Config &C : Configs)
      std::printf(" %11.2fx", Slowdown[W.Name][C.Name]);
    std::printf("\n");
  }
  std::printf("\nPromoted pointer slots per configuration:\n%-15s",
              "Benchmark");
  for (const Config &C : Configs)
    std::printf(" %12s", C.Name);
  std::printf("\n");
  for (const WorkloadInfo &W : allWorkloads()) {
    std::printf("%-15s", W.Name);
    for (const Config &C : Configs)
      std::printf(" %12u", Promoted[W.Name][C.Name]);
    std::printf("\n");
  }
  return 0;
}
