//===- bench_guard_overhead.cpp - Guarded-execution overhead ---------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Measures what runtime dependence validation costs: every Figure 11
// workload runs transformed at 4 simulated cores under GuardMode::Off and
// GuardMode::Check back to back. The guard is invisible to every virtual
// metric by design (it charges no cycles and emits no observer events) — the
// bench asserts that — so the overhead it reports is HOST execution time,
// the real cost of maintaining the first-write shadow and running the
// commit-time validator. Clean runs must also report zero violations; any
// violation here means an expansion soundness bug, so the bench fails.
//
// Each workload is measured twice: with the FULL guard plan
// (GuardPruning=false, PR 4's baseline) and with the plan PRUNED by the
// static privatization witness (the default). The delta between the two
// check-mode overheads is the validation cost the compile-time proof
// recovered; the elided access/region counts land in the table and the
// --json records.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Support.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

using namespace gdse;
using namespace gdse::bench;

namespace {

constexpr int Cores = 4;

struct Config {
  double OffMs = 0, CheckMs = 0;
  uint64_t Checks = 0, GuardedInvocations = 0;
};

struct Row {
  std::string Name;
  Config Full, Pruned;
  unsigned AccessesElided = 0, RegionsElided = 0;
};
std::map<std::string, Row> Rows;

uint64_t guardChecks(const RunResult &R) {
  uint64_t Total = 0;
  for (const auto &[Id, L] : R.Loops) {
    (void)Id;
    Total += L.GuardChecks;
  }
  return Total;
}

uint64_t guardedInvocations(const RunResult &R) {
  uint64_t Total = 0;
  for (const auto &[Id, L] : R.Loops) {
    (void)Id;
    Total += L.GuardedInvocations;
  }
  return Total;
}

/// Runs off/check under one prepared configuration, asserting the guard
/// contract (identical virtual metrics, zero violations). Returns false and
/// skips the benchmark on any divergence.
bool measure(benchmark::State &State, PreparedProgram &Xf, Config &C) {
  if (!Xf.Ok) {
    State.SkipWithError(Xf.Error.c_str());
    return false;
  }
  RunResult Off = execute(Xf, {.Threads = Cores, .Guard = GuardMode::Off});
  RunResult Check = execute(Xf, {.Threads = Cores, .Guard = GuardMode::Check});
  if (!Off.ok() || !Check.ok()) {
    State.SkipWithError("run trapped");
    return false;
  }
  // The check-mode contract: bit-identical virtual metrics and output, and
  // zero violations on a correctly-expanded program.
  if (Check.Output != Off.Output || Check.WorkCycles != Off.WorkCycles ||
      Check.SimTime != Off.SimTime ||
      Check.PeakMemoryBytes != Off.PeakMemoryBytes) {
    State.SkipWithError("check mode diverged from off mode");
    return false;
  }
  if (!Check.Violations.empty()) {
    State.SkipWithError("violations reported on a clean run");
    return false;
  }
  C.OffMs = static_cast<double>(Off.HostNanos) / 1e6;
  C.CheckMs = static_cast<double>(Check.HostNanos) / 1e6;
  C.Checks = guardChecks(Check);
  C.GuardedInvocations = guardedInvocations(Check);
  return true;
}

void runGuardOverhead(benchmark::State &State, const WorkloadInfo &W) {
  for (auto _ : State) {
    PipelineOptions FullOpts;
    FullOpts.Expansion.GuardPruning = false;
    PreparedProgram &XfFull = preparedForAll(W, FullOpts);
    PreparedProgram &XfPruned = preparedForAll(W, PipelineOptions());
    Row &R = Rows[W.Name];
    R.Name = W.Name;
    if (!measure(State, XfFull, R.Full) ||
        !measure(State, XfPruned, R.Pruned))
      return;
    for (const PipelineResult &PR : XfPruned.Pipelines) {
      R.AccessesElided += PR.Expansion.GuardAccessesElided;
      R.RegionsElided += PR.Expansion.GuardRegionsElided;
    }
    State.counters["guard_checks_full"] =
        static_cast<double>(R.Full.Checks);
    State.counters["guard_checks_pruned"] =
        static_cast<double>(R.Pruned.Checks);
    State.counters["host_overhead_full"] =
        R.Full.OffMs > 0 ? R.Full.CheckMs / R.Full.OffMs : 0;
    State.counters["host_overhead_pruned"] =
        R.Pruned.OffMs > 0 ? R.Pruned.CheckMs / R.Pruned.OffMs : 0;
    State.counters["guard_accesses_elided"] =
        static_cast<double>(R.AccessesElided);
    State.counters["guard_regions_elided"] =
        static_cast<double>(R.RegionsElided);
    addJsonRecord(formatString(
        "{\"workload\": \"%s\", \"guard_accesses_elided\": %u, "
        "\"guard_regions_elided\": %u, \"checks_full\": %llu, "
        "\"checks_pruned\": %llu, \"check_ms_full\": %.3f, "
        "\"check_ms_pruned\": %.3f, \"off_ms_full\": %.3f, "
        "\"off_ms_pruned\": %.3f}",
        W.Name, R.AccessesElided, R.RegionsElided,
        static_cast<unsigned long long>(R.Full.Checks),
        static_cast<unsigned long long>(R.Pruned.Checks), R.Full.CheckMs,
        R.Pruned.CheckMs, R.Full.OffMs, R.Pruned.OffMs));
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    benchmark::RegisterBenchmark(
        ("guard_overhead/" + std::string(W.Name)).c_str(),
        [&W](benchmark::State &S) { runGuardOverhead(S, W); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nGuarded-execution overhead (%d simulated cores, host time)\n",
              Cores);
  std::printf("%-15s %12s %12s %14s %14s %9s %8s\n", "Benchmark",
              "checks full", "checks prn", "overhead full", "overhead prn",
              "acc elid", "rgn elid");
  std::vector<double> FullRatios, PrunedRatios;
  for (const WorkloadInfo &W : allWorkloads()) {
    const Row &R = Rows[W.Name];
    double FullRatio =
        R.Full.OffMs > 0 ? R.Full.CheckMs / R.Full.OffMs : 0;
    double PrunedRatio =
        R.Pruned.OffMs > 0 ? R.Pruned.CheckMs / R.Pruned.OffMs : 0;
    if (FullRatio > 0)
      FullRatios.push_back(FullRatio);
    if (PrunedRatio > 0)
      PrunedRatios.push_back(PrunedRatio);
    std::printf("%-15s %12llu %12llu %13.2fx %13.2fx %9u %8u\n", W.Name,
                static_cast<unsigned long long>(R.Full.Checks),
                static_cast<unsigned long long>(R.Pruned.Checks), FullRatio,
                PrunedRatio, R.AccessesElided, R.RegionsElided);
  }
  if (!FullRatios.empty() && !PrunedRatios.empty())
    std::printf("%-15s %12s %12s %13.2fx %13.2fx\n", "harmonic mean", "", "",
                harmonicMean(FullRatios), harmonicMean(PrunedRatios));
  std::printf("\nVirtual metrics (cycles, SimTime, peak bytes) are asserted "
              "identical between modes: the guard's cost is host-side only. "
              "The pruned columns run with the static privatization witness "
              "eliding proven-private guard claims (the default); the full "
              "columns disable pruning to show PR 4's baseline cost.\n");
  return 0;
}
