//===- perfbench.cpp - The repository benchmark harness -------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles and runs the twelve shipped MiniC programs (the eight Table 4
/// kernels and the four reduction kernels) the way a user of the library
/// would, times each layer from outside through its public entry points,
/// and checks every program output against a reference produced by the host
/// C compiler (see run.py, which builds this harness and the references).
///
///   gdse_perfbench emit --seed N --out DIR
///       Writes DIR/<program>.mc: every program's MiniC source with its one
///       `int seed = <n>;` literal replaced by the value seed N selects.
///   gdse_perfbench run --workload W --seed N --seconds T --trace 0|1
///                      --ref DIR [--trace-file F]
///       Runs workload W (compile, run-doall, run-doacross) and prints one
///       JSON result line. DIR holds <program>.out, the C reference output
///       of each program for the same seed. With --trace 1 the run records
///       spans around every layer call, reports the per-layer metrics
///       instead of the end-to-end ones, and writes the spans to F.
///
/// See README.md for the workloads, the metrics and what each one measures.
///
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Bytecode.h"
#include "interp/Interp.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace gdse;

namespace {

using Clock = std::chrono::steady_clock;

/// Taken during static initialization, before main: the start of the
/// process as far as this program can observe it. The first set-up round is
/// timed from here.
const Clock::time_point ProcessStart = Clock::now();

/// Worker threads of every threads-engine run and of the pool probe. Half
/// of the 4 vCPUs the benchmark is written for: a run waits for its slowest
/// worker, and on a shared host the more vCPUs a run needs at once, the
/// more often one of them is slowed (README.md).
constexpr int Workers = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int SetupRounds = 5;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

/// Mean of the middle 80% of \p Xs: the slowest and fastest tenth, stalls
/// and lucky runs, are dropped.
double trimmedMean(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t Cut = Xs.size() / 10;
  double Sum = 0;
  for (size_t I = Cut; I < Xs.size() - Cut; ++I)
    Sum += Xs[I];
  return Sum / static_cast<double>(Xs.size() - 2 * Cut);
}

/// Timings of one quantity, per program, over the passes of a run. A pass
/// is estimated per program, not from whole-pass samples, because the
/// host's speed drifts over seconds.
class PerProgram {
public:
  void add(const std::string &Program, double Seconds) {
    Samples[Program].push_back(Seconds);
  }
  /// One pass's time: the sum over programs of each program's trimmed mean.
  /// On a shared host the same run takes either of two speeds, about 1.4x
  /// apart, in phases of seconds; the fastest run and the median each jump
  /// between the two from one run to the next, and the trimmed mean blends
  /// them by the time spent in each (README.md).
  double pass() const {
    double T = 0;
    for (const auto &[Name, Xs] : Samples)
      T += trimmedMean(Xs);
    return T;
  }
  /// Samples of the program with the fewest.
  size_t samples() const {
    size_t N = Samples.empty() ? 0 : SIZE_MAX;
    for (const auto &[Name, Xs] : Samples)
      N = std::min(N, Xs.size());
    return N;
  }
  const std::map<std::string, std::vector<double>> &all() const {
    return Samples;
  }
  /// One line per program: samples, fastest, trimmed mean and slowest, in
  /// ms.
  void report(const char *What, FILE *Out) const {
    for (const auto &[Name, Xs] : Samples) {
      auto [Lo, Hi] = std::minmax_element(Xs.begin(), Xs.end());
      std::fprintf(Out,
                   "perfbench:   %-8s %-14s n=%-4zu min %9.3f  "
                   "trimmed mean %9.3f  max %9.3f ms\n",
                   What, Name.c_str(), Xs.size(), *Lo * 1e3,
                   trimmedMean(Xs) * 1e3, *Hi * 1e3);
    }
  }

private:
  std::map<std::string, std::vector<double>> Samples;
};

//===----------------------------------------------------------------------===//
// Programs and seeds
//===----------------------------------------------------------------------===//

/// The program set of a workload, in table order; empty for an unknown
/// workload.
std::vector<const WorkloadInfo *> workloadPrograms(const std::string &Name) {
  std::vector<const WorkloadInfo *> Out;
  auto Take = [&](const std::vector<WorkloadInfo> &Table) {
    for (const WorkloadInfo &W : Table) {
      bool Want = Name == "compile" ||
                  (Name == "run-doall" &&
                   W.ExpectedKind == ParallelKind::DOALL) ||
                  (Name == "run-doacross" &&
                   W.ExpectedKind == ParallelKind::DOACROSS);
      if (Want)
        Out.push_back(&W);
    }
  };
  Take(allWorkloads());
  Take(reductionWorkloads());
  return Out;
}

/// Replaces the source's single `int seed = <n>;` literal. Seed 0 keeps the
/// built-in literal; seed N adds N * 1000003 to it, modulo 2^31, so every
/// program gets its own stream and the literal stays a positive int.
bool seededSource(const WorkloadInfo &W, uint64_t Seed, std::string &Out,
                  std::string &Err) {
  static const std::string Key = "int seed = ";
  std::string Src = W.Source;
  size_t At = Src.find(Key);
  if (At == std::string::npos || Src.find(Key, At + 1) != std::string::npos) {
    Err = std::string(W.Name) + ": expected exactly one `int seed = <n>;`";
    return false;
  }
  size_t Num = At + Key.size();
  size_t End = Num;
  while (End < Src.size() && Src[End] >= '0' && Src[End] <= '9')
    ++End;
  if (End == Num || End >= Src.size() || Src[End] != ';') {
    Err = std::string(W.Name) + ": seed literal is not a decimal integer";
    return false;
  }
  uint64_t Builtin = std::strtoull(Src.substr(Num, End - Num).c_str(),
                                   nullptr, 10);
  uint64_t Value = (Builtin + (Seed % (1ull << 31)) * 1000003ull) %
                   (1ull << 31);
  Out = Src.substr(0, Num) + std::to_string(Value) + Src.substr(End);
  return true;
}

const char *kindName(ParallelKind K) {
  switch (K) {
  case ParallelKind::None:
    return "sequential";
  case ParallelKind::DOALL:
    return "DOALL";
  case ParallelKind::DOACROSS:
    return "DOACROSS";
  }
  return "?";
}

struct Program {
  const WorkloadInfo *Info = nullptr;
  std::string Source;
  /// Output of the C-compiled reference for the same seed.
  std::string Reference;
};

//===----------------------------------------------------------------------===//
// Operation tally
//===----------------------------------------------------------------------===//

/// Program compiles and program runs attempted and failed. A run or
/// compile whose result breaks a check counts as failed.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Profiled dependence edges of each program's first compile in this run;
  /// every later compile of the program must find the same number.
  std::map<std::string, uint64_t> GraphEdges;

  bool record(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      if (Failed < 8)
        std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
      ++Failed;
    }
    return Ok;
  }
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder; written out once at the end of a traced run.
/// Spans of one program in one pass share a trace id.
class Trace {
public:
  struct Span {
    std::string Name;
    int64_t Parent = -1;
    int64_t TraceId = 0;
    std::string Program;
    int64_t Loop = -1;
    double Start = 0, End = 0;
  };

  int64_t begin(const std::string &Name, int64_t Parent, int64_t TraceId,
                const std::string &Program, int64_t Loop = -1) {
    Span S;
    S.Name = Name;
    S.Parent = Parent;
    S.TraceId = TraceId;
    S.Program = Program;
    S.Loop = Loop;
    S.Start = secondsSince(Epoch);
    Spans.push_back(std::move(S));
    return static_cast<int64_t>(Spans.size()) - 1;
  }
  void end(int64_t Id) { Spans[Id].End = secondsSince(Epoch); }

  const std::vector<Span> &spans() const { return Spans; }

  /// Total duration of spans named \p Name whose id is >= \p From.
  double total(const std::string &Name, size_t From) const {
    double T = 0;
    for (size_t I = From; I < Spans.size(); ++I)
      if (Spans[I].Name == Name)
        T += Spans[I].End - Spans[I].Start;
    return T;
  }

  bool write(const std::string &Path, const std::string &Summary) const;

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

/// Records one span when tracing; does nothing when \p T is null.
class ScopedSpan {
public:
  ScopedSpan(Trace *T, const std::string &Name, int64_t Parent,
             int64_t TraceId, const std::string &Program, int64_t Loop = -1)
      : T(T), Id(T ? T->begin(Name, Parent, TraceId, Program, Loop) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int64_t id() const { return Id; }

private:
  Trace *T;
  int64_t Id;
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

bool Trace::write(const std::string &Path, const std::string &Summary) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "{\n  \"summary\": " << Summary << ",\n  \"spans\": [";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    F << (I ? ",\n    " : "\n    ") << "{\"id\": " << I
      << ", \"parent\": " << S.Parent << ", \"trace_id\": " << S.TraceId
      << ", \"program\": " << jsonString(S.Program)
      << ", \"loop\": " << S.Loop << ", \"name\": " << jsonString(S.Name)
      << ", \"start_s\": " << jsonNumber(S.Start)
      << ", \"end_s\": " << jsonNumber(S.End) << "}";
  }
  F << "\n  ]\n}\n";
  return static_cast<bool>(F);
}

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

/// Layer counts read from the public API during a traced compile.
struct CompileCounts {
  uint64_t GraphEdges = 0;
  uint64_t ProvenPrivate = 0, ProvenCommutative = 0, Unknown = 0;
  uint64_t ProfileRuns = 0, CacheHits = 0, CacheMisses = 0;
  uint64_t ExpandedObjects = 0, PromotedPointerSlots = 0;
  uint64_t PrivateAccessesRedirected = 0, SpanStoresInserted = 0;
  uint64_t DoallLoops = 0, DoacrossLoops = 0, OrderedRegions = 0;

  void add(const CompileCounts &O) {
    GraphEdges += O.GraphEdges;
    ProvenPrivate += O.ProvenPrivate;
    ProvenCommutative += O.ProvenCommutative;
    Unknown += O.Unknown;
    ProfileRuns += O.ProfileRuns;
    CacheHits += O.CacheHits;
    CacheMisses += O.CacheMisses;
    ExpandedObjects += O.ExpandedObjects;
    PromotedPointerSlots += O.PromotedPointerSlots;
    PrivateAccessesRedirected += O.PrivateAccessesRedirected;
    SpanStoresInserted += O.SpanStoresInserted;
    DoallLoops += O.DoallLoops;
    DoacrossLoops += O.DoacrossLoops;
    OrderedRegions += O.OrderedRegions;
  }
};

/// One program after parse -> profile -> analyse -> expand -> plan ->
/// lower, ready to run.
struct Compiled {
  const Program *P = nullptr;
  std::unique_ptr<Module> M;
  std::vector<unsigned> LoopIds;
  std::vector<std::shared_ptr<const GuardPlan>> GuardPlans;
  std::shared_ptr<const BytecodeModule> Bytecode;
  CompileCounts Counts;
  double Seconds = 0;
  std::string Error;
};

/// Compiles one program with its own CompilationSession. Untraced, this is
/// what a user of the library does: compileLoop for every candidate loop,
/// then lowering of the transformed module. Traced, the analyses each
/// compileLoop needs are requested first, loop by loop in the order
/// compileLoop uses them, so that each gets its own span and compileLoop
/// itself (driver.passes) runs on warm caches.
Compiled compileProgram(const Program &P, Trace *T, int64_t TraceId) {
  Compiled C;
  C.P = &P;
  const std::string Name = P.Info->Name;
  Clock::time_point T0 = Clock::now();
  ScopedSpan Root(T, "compile", -1, TraceId, Name);
  {
    ScopedSpan S(T, "frontend.parse", Root.id(), TraceId, Name);
    ParseResult R = parseMiniC(P.Source);
    if (!R.ok()) {
      C.Error = "parse: " + (R.Errors.empty() ? "?" : R.Errors.front());
      return C;
    }
    C.M = std::move(R.M);
  }
  CompilationSession Session(*C.M);
  AnalysisManager &AM = Session.analyses();
  {
    ScopedSpan S(T, "analysis.numbering", Root.id(), TraceId, Name);
    C.LoopIds = Session.candidateLoops();
  }
  if (C.LoopIds.size() != P.Info->NumCandidates) {
    C.Error = "found " + std::to_string(C.LoopIds.size()) +
              " candidate loops, expected " +
              std::to_string(P.Info->NumCandidates);
    return C;
  }
  for (unsigned L : C.LoopIds) {
    ScopedSpan Loop(T, "compile.loop", Root.id(), TraceId, Name, L);
    if (T) {
      {
        ScopedSpan S(T, "interp.lower", Loop.id(), TraceId, Name, L);
        AM.bytecode();
      }
      {
        ScopedSpan S(T, "profile.depgraph", Loop.id(), TraceId, Name, L);
        AM.depGraph(L, GraphSource::Profile);
      }
      {
        ScopedSpan S(T, "analysis.access_classes", Loop.id(), TraceId, Name,
                     L);
        AM.accessClasses(L, GraphSource::Profile);
      }
      {
        ScopedSpan S(T, "analysis.points_to", Loop.id(), TraceId, Name, L);
        AM.pointsTo();
      }
      std::shared_ptr<const PrivatizationWitness> W;
      {
        ScopedSpan S(T, "analysis.witness", Loop.id(), TraceId, Name, L);
        W = AM.staticWitness(L);
      }
      C.Counts.ProvenPrivate += W->count(PrivatizationVerdict::ProvenPrivate);
      C.Counts.ProvenCommutative +=
          W->count(PrivatizationVerdict::ProvenCommutative);
      C.Counts.Unknown += W->count(PrivatizationVerdict::Unknown);
    }
    PipelineResult PR;
    {
      ScopedSpan S(T, "driver.passes", Loop.id(), TraceId, Name, L);
      PR = Session.compileLoop(L);
    }
    if (!PR.Ok) {
      C.Error = "loop " + std::to_string(L) + ": " +
                (PR.Errors.empty() ? "compile failed" : PR.Errors.front());
      return C;
    }
    if (PR.Plan.Kind != P.Info->ExpectedKind) {
      C.Error = "loop " + std::to_string(L) + " planned " +
                kindName(PR.Plan.Kind) + ", Table 4 expects " +
                kindName(P.Info->ExpectedKind);
      return C;
    }
    C.Counts.GraphEdges += PR.Graph.Edges.size();
    C.Counts.ExpandedObjects += PR.Expansion.ExpandedObjects;
    C.Counts.PromotedPointerSlots += PR.Expansion.PromotedPointerSlots;
    C.Counts.PrivateAccessesRedirected +=
        PR.Expansion.PrivateAccessesRedirected;
    C.Counts.SpanStoresInserted += PR.Expansion.SpanStoresInserted;
    C.Counts.DoallLoops += PR.Plan.Kind == ParallelKind::DOALL;
    C.Counts.DoacrossLoops += PR.Plan.Kind == ParallelKind::DOACROSS;
    C.Counts.OrderedRegions += PR.Plan.OrderedRegions;
    if (PR.Guard)
      C.GuardPlans.push_back(PR.Guard);
  }
  {
    // A fresh lowering of the transformed module, as every runner of a
    // compiled program makes. The session's cached AM.bytecode() is not
    // used here: after compileLoop it makes guard check report
    // non-commutative-touch violations on dijkstra and histogram that a
    // fresh lowering of the same module does not.
    ScopedSpan S(T, "interp.lower", Root.id(), TraceId, Name);
    C.Bytecode = lowerToBytecode(*C.M, CostModel());
  }
  AnalysisStats St = Session.analysisStats();
  C.Counts.ProfileRuns = St.ProfileRuns;
  C.Counts.CacheHits = St.CacheHits;
  C.Counts.CacheMisses = St.CacheMisses;
  C.Seconds = secondsSince(T0);
  return C;
}

/// Compiles one program and counts it as an operation. A compile that
/// succeeds adds its time to \p Times.
Compiled compileOne(const Program &P, Tally &Ops, PerProgram &Times,
                    Trace *T = nullptr, int64_t TraceId = 0) {
  Compiled C = compileProgram(P, T, TraceId);
  auto [It, First] = Ops.GraphEdges.try_emplace(P.Info->Name,
                                                C.Counts.GraphEdges);
  if (C.Error.empty() && !First && It->second != C.Counts.GraphEdges)
    C.Error = "profile.graph_edges changed from " +
              std::to_string(It->second) + " to " +
              std::to_string(C.Counts.GraphEdges);
  if (Ops.record(C.Error.empty(),
                 std::string("compile ") + P.Info->Name + ": " + C.Error))
    Times.add(P.Info->Name, C.Seconds);
  return C;
}

/// Compiles every program once. Returns the pass's wall time.
double compilePass(const std::vector<Program> &Programs,
                   std::vector<Compiled> &Out, Tally &Ops,
                   PerProgram &Times, Trace *T = nullptr, int64_t Pass = 0) {
  Out.clear();
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < Programs.size(); ++I)
    Out.push_back(compileOne(Programs[I], Ops, Times, T,
                             Pass * static_cast<int64_t>(Programs.size()) +
                                 I));
  return secondsSince(T0);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

struct Timed {
  RunResult R;
  double Seconds = 0;
};

Timed runModule(Module &M, std::shared_ptr<const BytecodeModule> BC,
                ExecEngine Engine, int Threads, GuardMode Guard,
                const std::vector<std::shared_ptr<const GuardPlan>> &Plans) {
  InterpOptions IO;
  IO.Engine = Engine;
  IO.NumThreads = Threads;
  // As in the repository's benches. With bounds checking on, the threads
  // engine runs several times slower than the serial VM (README.md).
  IO.BoundsCheck = false;
  IO.Precompiled = std::move(BC);
  IO.Guard = Guard;
  if (Guard != GuardMode::Off)
    IO.GuardPlans = Plans;
  Clock::time_point T0 = Clock::now();
  Interp I(M, IO);
  Timed Out;
  Out.R = I.run();
  Out.Seconds = secondsSince(T0);
  return Out;
}

bool sameLoopStats(const LoopStats &A, const LoopStats &B) {
  return A.Kind == B.Kind && A.Invocations == B.Invocations &&
         A.Iterations == B.Iterations && A.WorkCycles == B.WorkCycles &&
         A.SimTime == B.SimTime && A.WorkPerThread == B.WorkPerThread &&
         A.SyncStallPerThread == B.SyncStallPerThread &&
         A.IdlePerThread == B.IdlePerThread &&
         A.DispatchPerThread == B.DispatchPerThread &&
         A.GuardedInvocations == B.GuardedInvocations &&
         A.GuardChecks == B.GuardChecks &&
         A.GuardViolations == B.GuardViolations &&
         A.GuardFallbacks == B.GuardFallbacks &&
         A.Degradations == B.Degradations &&
         A.WatchdogFires == B.WatchdogFires;
}

/// Empty when \p Got is a clean run whose output equals the C reference
/// and, when \p Ref is given, whose virtual metrics equal \p Ref's.
std::string checkRun(const RunResult &Got, const std::string &Reference,
                     const RunResult *Ref) {
  if (Got.Trapped)
    return "trapped: " + Got.TrapMessage;
  if (!Got.Violations.empty())
    return std::to_string(Got.Violations.size()) +
           " guard violation(s), first: " + Got.Violations.front().str();
  if (Got.Output != Reference)
    return "output differs from the C reference";
  if (!Ref)
    return "";
  if (Got.WorkCycles != Ref->WorkCycles)
    return "WorkCycles differ from the bytecode engine";
  if (Got.SimTime != Ref->SimTime)
    return "SimTime differs from the bytecode engine";
  if (Got.PeakMemoryBytes != Ref->PeakMemoryBytes)
    return "PeakMemoryBytes differ from the bytecode engine";
  if (Got.Loops.size() != Ref->Loops.size())
    return "loop sets differ from the bytecode engine";
  for (const auto &[Id, L] : Got.Loops) {
    auto It = Ref->Loops.find(Id);
    if (It == Ref->Loops.end() || !sameLoopStats(L, It->second))
      return "LoopStats of loop " + std::to_string(Id) +
             " differ from the bytecode engine";
  }
  return "";
}

/// Per-program reference runs, made once per benchmark run outside every
/// timed section: the original program on the serial bytecode VM, and the
/// transformed program on the bytecode engine with Workers simulated cores,
/// unguarded and under guard check. The threads engine must reproduce the
/// latter two bit for bit.
struct References {
  std::vector<RunResult> Original, Simulated, SimulatedChecked;
  std::vector<std::unique_ptr<Module>> OriginalModules;
  std::vector<std::shared_ptr<const BytecodeModule>> OriginalBytecode;
};

References makeReferences(std::vector<Compiled> &Cs, Tally &Ops) {
  References R;
  for (Compiled &C : Cs) {
    const std::string Name = C.P->Info->Name;
    ParseResult PR = parseMiniC(C.P->Source);
    R.OriginalModules.push_back(std::move(PR.M));
    R.OriginalBytecode.push_back(nullptr);
    R.Original.emplace_back();
    R.Simulated.emplace_back();
    R.SimulatedChecked.emplace_back();
    Module *Orig = R.OriginalModules.back().get();
    if (Orig) {
      R.OriginalBytecode.back() = lowerToBytecode(*Orig, CostModel());
      R.Original.back() = runModule(*Orig, R.OriginalBytecode.back(),
                                    ExecEngine::Bytecode, 1, GuardMode::Off,
                                    {})
                              .R;
      std::string E = checkRun(R.Original.back(), C.P->Reference, nullptr);
      Ops.record(E.empty(), "original " + Name + ": " + E);
    } else {
      Ops.record(false, "original " + Name + ": parse failed");
    }
    if (!C.Error.empty()) {
      Ops.record(false, "simulated " + Name + ": not compiled");
      Ops.record(false, "simulated+check " + Name + ": not compiled");
      continue;
    }
    R.Simulated.back() = runModule(*C.M, C.Bytecode, ExecEngine::Bytecode,
                                   Workers, GuardMode::Off, C.GuardPlans)
                             .R;
    std::string E = checkRun(R.Simulated.back(), C.P->Reference, nullptr);
    Ops.record(E.empty(), "simulated " + Name + ": " + E);
    R.SimulatedChecked.back() =
        runModule(*C.M, C.Bytecode, ExecEngine::Bytecode, Workers,
                  GuardMode::Check, C.GuardPlans)
            .R;
    E = checkRun(R.SimulatedChecked.back(), C.P->Reference, nullptr);
    Ops.record(E.empty(), "simulated+check " + Name + ": " + E);
  }
  return R;
}

/// One execution pass: every transformed program on the threads engine with
/// Workers workers, unguarded and then under guard check, each checked
/// against the C reference and the bytecode engine's virtual metrics.
/// Returns the summed peak bytes of the unguarded runs.
uint64_t execPass(std::vector<Compiled> &Cs, const References &Refs,
                  Tally &Ops, PerProgram &Threads, PerProgram &Guarded,
                  Trace *T = nullptr, int64_t Pass = 0) {
  uint64_t PeakBytes = 0;
  for (size_t I = 0; I < Cs.size(); ++I) {
    Compiled &C = Cs[I];
    const std::string Name = C.P->Info->Name;
    if (!C.Error.empty()) {
      Ops.record(false, "threads " + Name + ": not compiled");
      Ops.record(false, "threads+check " + Name + ": not compiled");
      continue;
    }
    int64_t TraceId = Pass * static_cast<int64_t>(Cs.size()) + I;
    Timed Th, Gu;
    {
      ScopedSpan S(T, "interp.exec_threads", -1, TraceId, Name);
      Th = runModule(*C.M, C.Bytecode, ExecEngine::Threads, Workers,
                     GuardMode::Off, C.GuardPlans);
    }
    std::string E = checkRun(Th.R, C.P->Reference, &Refs.Simulated[I]);
    if (Ops.record(E.empty(), "threads " + Name + ": " + E))
      Threads.add(Name, Th.Seconds);
    {
      ScopedSpan S(T, "guard.exec_checked", -1, TraceId, Name);
      Gu = runModule(*C.M, C.Bytecode, ExecEngine::Threads, Workers,
                     GuardMode::Check, C.GuardPlans);
    }
    E = checkRun(Gu.R, C.P->Reference, &Refs.SimulatedChecked[I]);
    if (Ops.record(E.empty(), "threads+check " + Name + ": " + E))
      Guarded.add(Name, Gu.Seconds);
    PeakBytes += Th.R.PeakMemoryBytes;
  }
  return PeakBytes;
}

/// Median wall time of submitting Workers empty tasks to a Workers-thread
/// pool and waiting for them, in microseconds.
double poolRoundTripMicros() {
  ThreadPool Pool(Workers);
  std::vector<double> Us;
  for (int Round = 0; Round < 2200; ++Round) {
    Clock::time_point T0 = Clock::now();
    for (int I = 0; I < Workers; ++I)
      Pool.submit([] {});
    Pool.wait();
    if (Round >= 200) // warm-up rounds are not counted
      Us.push_back(secondsSince(T0) * 1e6);
  }
  return median(Us);
}

//===----------------------------------------------------------------------===//
// Result output
//===----------------------------------------------------------------------===//

class Metrics {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Items.push_back({Name, Value, Unit});
  }
  std::string json() const {
    std::string Out = "{";
    for (size_t I = 0; I < Items.size(); ++I)
      Out += (I ? ", " : "") + jsonString(Items[I].Name) +
             ": {\"value\": " + jsonNumber(Items[I].Value) +
             ", \"unit\": " + jsonString(Items[I].Unit) + "}";
    return Out + "}";
  }

private:
  struct Item {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Item> Items;
};

double peakRssBytes() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) * 1024.0; // ru_maxrss is in KiB
}

//===----------------------------------------------------------------------===//
// Commands
//===----------------------------------------------------------------------===//

struct Args {
  std::string Command, Workload, Ref, Out, TraceFile;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Traced = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc < 2)
    return false;
  A.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--ref")
      A.Ref = V;
    else if (K == "--out")
      A.Out = V;
    else if (K == "--trace-file")
      A.TraceFile = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Traced = V == "1";
    else
      return false;
    if (End && *End != '\0')
      return false;
  }
  return true;
}

/// Seeded sources of \p Ws; false (with a message) when a source lacks its
/// seed literal.
bool makePrograms(const std::vector<const WorkloadInfo *> &Ws, uint64_t Seed,
                  std::vector<Program> &Out) {
  Out.clear();
  for (const WorkloadInfo *W : Ws) {
    Program P;
    P.Info = W;
    std::string Err;
    if (!seededSource(*W, Seed, P.Source, Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return false;
    }
    Out.push_back(std::move(P));
  }
  return true;
}

int cmdEmit(const Args &A) {
  std::vector<Program> Ps;
  if (A.Out.empty() || !makePrograms(workloadPrograms("compile"), A.Seed, Ps))
    return 2;
  for (const Program &P : Ps) {
    std::ofstream F(A.Out + "/" + P.Info->Name + ".mc");
    F << P.Source;
    if (!F) {
      std::fprintf(stderr, "perfbench: cannot write %s/%s.mc\n",
                   A.Out.c_str(), P.Info->Name);
      return 2;
    }
  }
  return 0;
}

bool loadReferences(const std::string &Dir, std::vector<Program> &Ps) {
  for (Program &P : Ps) {
    std::string Path = Dir + "/" + P.Info->Name + ".out";
    std::ifstream F(Path);
    if (!F) {
      std::fprintf(stderr, "perfbench: missing reference %s\n", Path.c_str());
      return false;
    }
    std::stringstream SS;
    SS << F.rdbuf();
    P.Reference = SS.str();
    if (P.Reference.empty()) {
      std::fprintf(stderr, "perfbench: empty reference %s\n", Path.c_str());
      return false;
    }
  }
  return true;
}

void printResult(const Tally &Ops, const Metrics &Out) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(Ops.Attempted),
              static_cast<unsigned long long>(Ops.Failed),
              Out.json().c_str());
}

/// The untraced run behind the end-to-end metrics. Each timed pass is a
/// compile step and then an execution pass over every program. The compile
/// step of the compile workload compiles every program, and the execution
/// pass runs what it produced. On the run-* workloads it compiles one
/// program, round robin, and the result is checked and dropped; execution
/// runs what set-up compiled. Compile and execution samples are thus taken
/// across the whole run. Passes continue until --seconds have passed and
/// every program has been compiled equally often.
int measuredRun(const Args &A, const std::vector<Program> &Programs,
                std::vector<Compiled> &Cs, const std::vector<double> &SetupS,
                PerProgram Compile, Tally &Ops) {
  const bool CompileWorkload = A.Workload == "compile";
  PerProgram Threads, Guarded;
  std::optional<References> Refs;
  uint64_t PeakBytes = 0;
  size_t Passes = 0;
  Clock::time_point T0 = Clock::now();
  do {
    if (CompileWorkload)
      compilePass(Programs, Cs, Ops, Compile);
    else
      compileOne(Programs[Passes % Programs.size()], Ops, Compile);
    if (!Refs) {
      // Not part of the measurement: move the start past it.
      Clock::time_point R0 = Clock::now();
      Refs = makeReferences(Cs, Ops);
      T0 += Clock::now() - R0;
    }
    PeakBytes = execPass(Cs, *Refs, Ops, Threads, Guarded);
    ++Passes;
  } while (secondsSince(T0) < A.Seconds ||
           (!CompileWorkload && Passes % Programs.size() != 0));

  Metrics Out;
  Out.add("setup_s", median(SetupS), "s");
  Out.add("compile_s", Compile.pass(), "s");
  Out.add("compile_peak_rss_bytes", peakRssBytes(), "bytes");
  Out.add("exec_threads_s", Threads.pass(), "s");
  Out.add("exec_guarded_s", Guarded.pass(), "s");
  Out.add("exec_peak_bytes", static_cast<double>(PeakBytes), "bytes");
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu timed passes, %zu compiles of "
               "each program\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               Passes, Compile.samples());
  Compile.report("compile", stderr);
  Threads.report("threads", stderr);
  Guarded.report("guarded", stderr);
  printResult(Ops, Out);
  return 0;
}

/// The traced run behind the per-layer metrics: traced compile passes, each
/// followed by the execution layer on what it compiled, for the run's
/// length. Compile-layer times are medians over passes, execution times
/// trimmed means (see PerProgram), and counts are the first pass's. Set-up's
/// untraced compiles are the base of trace.overhead_x.
int tracedRun(const Args &A, const std::vector<Program> &Programs,
              std::vector<Compiled> &Cs, const PerProgram &SetupCompile,
              Tally &Ops) {
  static const char *const CompileLeaves[] = {
      "frontend.parse",          "analysis.numbering", "interp.lower",
      "profile.depgraph",        "analysis.access_classes",
      "analysis.points_to",      "analysis.witness",   "driver.passes"};
  References Refs = makeReferences(Cs, Ops);
  Trace T;
  Metrics Out;
  std::map<std::string, std::vector<double>> Samples;
  PerProgram Compile, Threads, Guarded, Original, Simulated;
  CompileCounts Counts;
  uint64_t LoopIterations = 0, WorkCycles = 0, SimCycles = 0, Stalls = 0;
  uint64_t GuardedInvocations = 0, GuardChecks = 0;
  double OrigPeak = 0, ExpPeak = 0;
  Clock::time_point T0 = Clock::now();
  int64_t Pass = 0;
  do {
    size_t From = T.spans().size();
    double Wall = compilePass(Programs, Cs, Ops, Compile, &T, Pass);
    double Leaves = 0;
    for (const char *N : CompileLeaves) {
      double S = T.total(N, From);
      Samples[N].push_back(S);
      Leaves += S;
    }
    Samples["coverage"].push_back(Leaves / Wall);
    if (Pass == 0)
      for (const Compiled &C : Cs)
        Counts.add(C.Counts);

    // The execution layer, on the programs this pass compiled.
    for (size_t I = 0; I < Cs.size(); ++I) {
      Compiled &C = Cs[I];
      const std::string Name = C.P->Info->Name;
      if (!C.Error.empty() || !Refs.OriginalModules[I]) {
        Ops.record(false, "original " + Name + ": not compiled");
        Ops.record(false, "simulated " + Name + ": not compiled");
        continue;
      }
      int64_t TraceId = Pass * static_cast<int64_t>(Cs.size()) + I;
      Timed O, S;
      {
        ScopedSpan Sp(&T, "interp.exec_original", -1, TraceId, Name);
        O = runModule(*Refs.OriginalModules[I], Refs.OriginalBytecode[I],
                      ExecEngine::Bytecode, 1, GuardMode::Off, {});
      }
      std::string E = checkRun(O.R, C.P->Reference, &Refs.Original[I]);
      if (Ops.record(E.empty(), "original " + Name + ": " + E))
        Original.add(Name, O.Seconds);
      {
        ScopedSpan Sp(&T, "interp.exec_simulated", -1, TraceId, Name);
        S = runModule(*C.M, C.Bytecode, ExecEngine::Bytecode, Workers,
                      GuardMode::Off, C.GuardPlans);
      }
      E = checkRun(S.R, C.P->Reference, &Refs.Simulated[I]);
      if (Ops.record(E.empty(), "simulated " + Name + ": " + E))
        Simulated.add(Name, S.Seconds);
      if (Pass != 0)
        continue;
      OrigPeak += O.R.PeakMemoryBytes;
      ExpPeak += S.R.PeakMemoryBytes;
      for (unsigned L : C.LoopIds) {
        auto It = S.R.Loops.find(L);
        if (It != S.R.Loops.end()) {
          LoopIterations += It->second.Iterations;
          WorkCycles += It->second.WorkCycles;
          SimCycles += It->second.SimTime;
          for (uint64_t X : It->second.SyncStallPerThread)
            Stalls += X;
        }
        auto G = Refs.SimulatedChecked[I].Loops.find(L);
        if (G != Refs.SimulatedChecked[I].Loops.end()) {
          GuardedInvocations += G->second.GuardedInvocations;
          GuardChecks += G->second.GuardChecks;
        }
      }
    }
    execPass(Cs, Refs, Ops, Threads, Guarded, &T, Pass);
    ++Pass;
  } while (secondsSince(T0) < A.Seconds);
  double RoundTrip = poolRoundTripMicros();

  auto Med = [&](const char *K) { return median(Samples[K]); };
  Out.add("frontend.parse_s", Med("frontend.parse"), "s");
  Out.add("interp.lower_s", Med("interp.lower"), "s");
  Out.add("profile.depgraph_s", Med("profile.depgraph"), "s");
  Out.add("profile.slowdown_x", Med("profile.depgraph") / Original.pass(),
          "x");
  Out.add("profile.graph_edges", Counts.GraphEdges, "count");
  Out.add("analysis.points_to_s", Med("analysis.points_to"), "s");
  Out.add("analysis.access_classes_s", Med("analysis.access_classes"), "s");
  Out.add("analysis.witness_s", Med("analysis.witness"), "s");
  Out.add("analysis.proven_private_classes", Counts.ProvenPrivate, "count");
  Out.add("analysis.proven_commutative_classes", Counts.ProvenCommutative,
          "count");
  Out.add("analysis.unknown_classes", Counts.Unknown, "count");
  Out.add("driver.passes_s", Med("driver.passes"), "s");
  Out.add("driver.profile_runs", Counts.ProfileRuns, "count");
  Out.add("driver.cache_hits", Counts.CacheHits, "count");
  Out.add("driver.cache_misses", Counts.CacheMisses, "count");
  Out.add("expand.expanded_objects", Counts.ExpandedObjects, "count");
  Out.add("expand.promoted_pointer_slots", Counts.PromotedPointerSlots,
          "count");
  Out.add("expand.private_accesses_redirected",
          Counts.PrivateAccessesRedirected, "count");
  Out.add("expand.span_stores_inserted", Counts.SpanStoresInserted, "count");
  Out.add("parallel.doall_loops", Counts.DoallLoops, "count");
  Out.add("parallel.doacross_loops", Counts.DoacrossLoops, "count");
  Out.add("parallel.ordered_regions", Counts.OrderedRegions, "count");
  Out.add("interp.exec_original_s", Original.pass(), "s");
  Out.add("interp.exec_simulated_s", Simulated.pass(), "s");
  Out.add("interp.work_cycles", WorkCycles, "cycles");
  Out.add("interp.sim_time_cycles", SimCycles, "cycles");
  Out.add("interp.loop_iterations", LoopIterations, "count");
  Out.add("interp.sync_stall_cycles", Stalls, "cycles");
  Out.add("interp.host_speedup_x", Original.pass() / Threads.pass(),
          "x");
  Out.add("interp.expansion_memory_x", ExpPeak / OrigPeak, "x");
  Out.add("guard.guarded_invocations", GuardedInvocations, "count");
  Out.add("guard.checks", GuardChecks, "count");
  Out.add("guard.overhead_x", Guarded.pass() / Threads.pass(), "x");
  Out.add("support.pool_roundtrip_us", RoundTrip, "us");
  Out.add("trace.overhead_x", Compile.pass() / SetupCompile.pass(),
          "x");
  Out.add("trace.compile_span_coverage", Med("coverage"), "x");

  // The span file also carries the per-program rows.
  Metrics Rows;
  for (const auto &[Name, Xs] : Compile.all())
    Rows.add("program." + Name + ".compile_s", trimmedMean(Xs), "s");
  for (const auto &[Name, Xs] : Threads.all())
    Rows.add("program." + Name + ".exec_threads_s", trimmedMean(Xs), "s");
  for (const auto &[Name, Xs] : Original.all())
    Rows.add("program." + Name + ".exec_original_s", trimmedMean(Xs), "s");
  std::string Summary =
      "{\"workload\": " + jsonString(A.Workload) +
      ", \"seed\": " + std::to_string(A.Seed) +
      ", \"passes\": " + std::to_string(Pass) +
      ", \"compile_s_untraced\": " + jsonNumber(SetupCompile.pass()) +
      ", \"compile_s_traced\": " + jsonNumber(Compile.pass()) +
      ", \"metrics\": " + Out.json() + ", \"per_program\": " + Rows.json() +
      "}";
  if (!A.TraceFile.empty() && !T.write(A.TraceFile, Summary)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceFile.c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %lld traced passes\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               static_cast<long long>(Pass));
  printResult(Ops, Out);
  return 0;
}

int cmdRun(const Args &A) {
  std::vector<const WorkloadInfo *> Ws = workloadPrograms(A.Workload);
  if (Ws.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  Tally Ops;

  // --- Set-up, SetupRounds times: the seeded sources, and on the run-*
  // workloads the compiled programs they run. The first round is timed from
  // process start.
  const bool CompileWorkload = A.Workload == "compile";
  std::vector<Program> Programs;
  std::vector<Compiled> Cs;
  std::vector<double> SetupS;
  PerProgram SetupCompile;
  Clock::time_point RoundStart = ProcessStart;
  for (int Round = 0; Round < SetupRounds; ++Round) {
    if (Round)
      RoundStart = Clock::now();
    if (!makePrograms(Ws, A.Seed, Programs))
      return 2;
    if (!CompileWorkload)
      compilePass(Programs, Cs, Ops, SetupCompile);
    SetupS.push_back(secondsSince(RoundStart));
  }
  if (!loadReferences(A.Ref, Programs))
    return 2;
  if (!A.Traced)
    return measuredRun(A, Programs, Cs, SetupS, SetupCompile, Ops);
  // The traced run compares against untraced compiles of the same programs.
  if (CompileWorkload)
    compilePass(Programs, Cs, Ops, SetupCompile);
  return tracedRun(A, Programs, Cs, SetupCompile, Ops);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: gdse_perfbench emit --seed N --out DIR\n"
                 "       gdse_perfbench run --workload W --seed N --seconds T "
                 "--trace 0|1 --ref DIR [--trace-file F]\n");
    return 2;
  }
  if (A.Command == "emit")
    return cmdEmit(A);
  if (A.Command == "run")
    return cmdRun(A);
  std::fprintf(stderr, "perfbench: unknown command '%s'\n",
               A.Command.c_str());
  return 2;
}
