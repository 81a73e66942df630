//===- fig7_workflow.cpp - Why the workflow profiles (Fig. 7, §4.1) --------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The paper justifies its profiling-based workflow twice:
//  - §4.1: "current compile-time data dependence analysis algorithms are
//    still too conservative and they report false positives that prevent
//    loop parallelization" — reproduced by feeding the pipeline our
//    conservative static dependence graph instead of the profiled one;
//  - §4.3: "the parallelized code without privatization ... would require
//    excessive synchronization due to the spurious loop-carried
//    dependences, causing a slowdown instead of speedup" — reproduced by
//    keeping the profiled graph but skipping privatization.
//
// The static privatization witness sits between the two: a third
// configuration feeds the pipeline the witness-REFINED static graph
// (GraphSource::Witness), measuring how much of the profile's precision a
// sound compile-time proof recovers. Per-loop edge/class counts of all
// three graphs land in the --json output as the precision ladder
// static <= witness <= profiled.
//
// Reports the 8-core loop speedup of each configuration.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/CompilationSession.h"
#include "support/Support.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

using namespace gdse;
using namespace gdse::bench;

namespace {

struct Row {
  double Profiled = 0, Static = 0, Witness = 0, NoPriv = 0;
  std::string StaticNote, WitnessNote, NoPrivNote;
};
std::map<std::string, Row> Rows;

/// Edge/class counts of one loop graph for the precision ladder.
struct GraphCounts {
  size_t Edges = 0, Carried = 0, CarriedFlow = 0;
  size_t ExposedLoads = 0, ExposedStores = 0;
  size_t Classes = 0, Private = 0;
};

GraphCounts countGraph(const LoopDepGraph &G, const AccessClasses &C) {
  GraphCounts N;
  N.Edges = G.Edges.size();
  for (const DepEdge &E : G.Edges)
    if (E.Carried) {
      ++N.Carried;
      if (E.Kind == DepKind::Flow)
        ++N.CarriedFlow;
    }
  N.ExposedLoads = G.UpwardsExposedLoads.size();
  N.ExposedStores = G.DownwardsExposedStores.size();
  N.Classes = C.classes().size();
  for (const AccessClassInfo &Cl : C.classes())
    N.Private += Cl.Private ? 1 : 0;
  return N;
}

std::string countsJson(const char *Name, const GraphCounts &N) {
  return formatString(
      "\"%s\": {\"edges\": %zu, \"carried\": %zu, \"carried_flow\": %zu, "
      "\"exposed_loads\": %zu, \"exposed_stores\": %zu, \"classes\": %zu, "
      "\"private_classes\": %zu}",
      Name, N.Edges, N.Carried, N.CarriedFlow, N.ExposedLoads,
      N.ExposedStores, N.Classes, N.Private);
}

/// Emits one JSON record per candidate loop with the conservative-static,
/// witness-refined, and profiled graph counts, and prints a table row set.
void emitPrecisionLadder(const WorkloadInfo &W) {
  std::unique_ptr<Module> M = parseMiniCOrDie(W.Source, W.Name);
  CompilationSession S(*M);
  AnalysisManager &AM = S.analyses();
  for (unsigned LoopId : S.candidateLoops()) {
    GraphCounts Counts[3];
    const GraphSource Sources[3] = {GraphSource::Static,
                                    GraphSource::Witness,
                                    GraphSource::Profile};
    bool Ok = true;
    for (int I = 0; I != 3; ++I) {
      const LoopDepGraph *G = AM.depGraph(LoopId, Sources[I]);
      const AccessClasses *C = AM.accessClasses(LoopId, Sources[I]);
      if (!G || !C) {
        Ok = false;
        break;
      }
      Counts[I] = countGraph(*G, *C);
    }
    if (!Ok)
      continue;
    addJsonRecord(formatString(
        "{\"workload\": \"%s\", \"loop\": %u, %s, %s, %s}", W.Name, LoopId,
        countsJson("static", Counts[0]).c_str(),
        countsJson("witness", Counts[1]).c_str(),
        countsJson("profiled", Counts[2]).c_str()));
    std::printf("%-15s loop %-2u %8zu/%-3zu %8zu/%-3zu %8zu/%-3zu\n", W.Name,
                LoopId, Counts[0].Carried, Counts[0].Private,
                Counts[1].Carried, Counts[1].Private, Counts[2].Carried,
                Counts[2].Private);
  }
}

double speedupFor(const WorkloadInfo &W, const PipelineOptions &Opts,
                  std::string &Note) {
  PreparedProgram Orig = prepareOriginal(W);
  RunResult RO = execute(Orig, {.Threads = 1, .SimulateParallel = false});
  PreparedProgram Xf = prepareTransformed(W, Opts);
  if (!Xf.Ok) {
    Note = Xf.Error;
    return 0.0;
  }
  bool AnyParallel = false;
  for (const PipelineResult &PR : Xf.Pipelines)
    AnyParallel = AnyParallel || PR.Plan.Parallelized;
  if (!AnyParallel) {
    Note = "not parallelized";
    return 0.0;
  }
  RunResult RT = execute(Xf, {.Threads = 8});
  if (!RT.ok() || RT.Output != RO.Output) {
    Note = RT.ok() ? "output mismatch" : RT.TrapMessage;
    return 0.0;
  }
  return static_cast<double>(loopSimTime(RO, Orig.LoopIds)) /
         static_cast<double>(loopSimTime(RT, Xf.LoopIds));
}

void runFig7(benchmark::State &State, const WorkloadInfo &W) {
  for (auto _ : State) {
    Row R;
    std::string Ignore;
    PipelineOptions Profiled;
    R.Profiled = speedupFor(W, Profiled, Ignore);

    PipelineOptions Static;
    Static.Source = GraphSource::Static;
    R.Static = speedupFor(W, Static, R.StaticNote);

    PipelineOptions Witness;
    Witness.Source = GraphSource::Witness;
    R.Witness = speedupFor(W, Witness, R.WitnessNote);

    PipelineOptions NoPriv;
    NoPriv.Method = PrivatizationMethod::None;
    R.NoPriv = speedupFor(W, NoPriv, R.NoPrivNote);

    Rows[W.Name] = R;
    State.counters["profiled"] = R.Profiled;
    State.counters["static"] = R.Static;
    State.counters["witness"] = R.Witness;
    State.counters["nopriv"] = R.NoPriv;
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const WorkloadInfo &W : allWorkloads())
    benchmark::RegisterBenchmark(("fig7/" + std::string(W.Name)).c_str(),
                                 [&W](benchmark::State &S) { runFig7(S, W); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nWorkflow justification: 8-core loop speedup by dependence-"
              "graph source / privatization\n");
  std::printf("%-15s %18s %18s %18s %22s\n", "Benchmark", "profiled+expand",
              "static analysis", "static witness", "profiled, no privat.");
  auto cell = [](double V, const std::string &Note) {
    return V > 0 ? formatString("%.2fx", V) : (Note.empty() ? "-" : Note);
  };
  for (const WorkloadInfo &W : allWorkloads()) {
    const Row &R = Rows[W.Name];
    std::printf("%-15s %18s %18s %18s %22s\n", W.Name,
                cell(R.Profiled, "").c_str(),
                cell(R.Static, R.StaticNote).substr(0, 18).c_str(),
                cell(R.Witness, R.WitnessNote).substr(0, 18).c_str(),
                cell(R.NoPriv, R.NoPrivNote).substr(0, 22).c_str());
  }
  std::printf("\nPrecision ladder: loop-carried edges / private classes per "
              "graph source\n");
  std::printf("%-15s %-7s %12s %12s %12s\n", "Benchmark", "", "static",
              "witness", "profiled");
  for (const WorkloadInfo &W : allWorkloads())
    emitPrecisionLadder(W);
  std::printf("\nPaper: static analysis is too conservative to parallelize "
              "these loops; the witness recovers the provable classes at "
              "compile time; skipping privatization turns the loops into "
              "ordered chains (slowdown instead of speedup).\n");
  return 0;
}
