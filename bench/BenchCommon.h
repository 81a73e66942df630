//===- BenchCommon.h - Shared experiment harness helpers --------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by every table/figure reproduction binary: build the
/// original and transformed programs for a workload, execute them under the
/// VM, and collect the simulated metrics the paper reports. All metrics are
/// deterministic (cycle counts from the cost model), so runs are exactly
/// reproducible; google-benchmark provides the runner/reporting skeleton and
/// each binary additionally prints the paper-style table.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_BENCH_BENCHCOMMON_H
#define GDSE_BENCH_BENCHCOMMON_H

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "support/Timing.h"
#include "workloads/Workloads.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gdse {

struct BytecodeModule;

namespace bench {

/// A workload prepared under one transformation configuration.
struct PreparedProgram {
  const WorkloadInfo *Info = nullptr;
  std::unique_ptr<Module> M;
  /// Lazily-built register bytecode for M, shared by every execute() of
  /// this program on the bytecode and threads engines.
  std::shared_ptr<const BytecodeModule> Bytecode;
  /// One pipeline result per candidate loop, in program order.
  std::vector<PipelineResult> Pipelines;
  /// Candidate loop ids (valid for both original and transformed modules —
  /// numbering is deterministic).
  std::vector<unsigned> LoopIds;
  /// Per-pass/per-analysis compile-time accounting from the session that
  /// transformed the workload (empty for prepareOriginal).
  std::vector<PassTimingRecord> CompileTiming;
  /// The session's rendered `-time-passes` + `-stats` reports.
  std::string CompileReport;
  bool Ok = false;
  std::string Error;
};

/// Parses the workload without transforming it.
PreparedProgram prepareOriginal(const WorkloadInfo &W);

/// Parses and transforms every candidate loop of the workload.
PreparedProgram prepareTransformed(const WorkloadInfo &W,
                                   const PipelineOptions &Opts);

/// Batch-compiles all \p Ws under \p Opts through
/// CompilationSession::compileBatch with \p Jobs workers (0 = the GDSE_JOBS
/// environment variable, defaulting to one per hardware thread). Results
/// come back in workload order and are bit-identical to serial
/// prepareTransformed calls — diagnostics, reports, and transformed modules
/// alike. CompileTiming records are not populated for batch-prepared
/// programs; the rendered CompileReport is.
std::vector<PreparedProgram>
prepareTransformedBatch(const std::vector<const WorkloadInfo *> &Ws,
                        const PipelineOptions &Opts, unsigned Jobs = 0);

/// Options-keyed cache over prepareTransformedBatch for the standard
/// workload set: the first call batch-compiles every workload concurrently;
/// later calls with the same options (any workload) are cache hits. Not
/// thread-safe — benchmark mains are single-threaded. The returned
/// reference stays valid for the process lifetime.
PreparedProgram &preparedForAll(const WorkloadInfo &W,
                                const PipelineOptions &Opts);

/// Prints \p P's compile-time report (per-pass timing + counters) to stderr
/// when the GDSE_TIME_PASSES environment variable is set and non-empty, or
/// when \p Force is true. prepareTransformed calls this itself, so every
/// fig*/table* binary emits compile-time breakdowns with one env var and no
/// per-binary wiring.
void reportCompileTiming(const PreparedProgram &P, bool Force = false);

/// Consumes the harness-level flags google-benchmark does not understand —
/// currently `--json <path>` / `--json=<path>` — out of argc/argv and, when
/// --json was given, registers an exit-time writer that dumps every
/// execute() call's metrics (engine, threads, work cycles, simulated time,
/// host wall time, peak bytes) plus the process wall time as
/// `BENCH_<name>.json`. \p Path naming a directory (or anything not ending
/// in ".json") is treated as the output directory; otherwise it is the
/// exact output file. Call before benchmark::Initialize, which rejects
/// unknown flags.
void initBenchIO(int &argc, char **argv);

/// Appends one bench-specific record — a complete JSON object literal — to
/// the --json output's "records" array (fig7's per-loop graph precision
/// counts, guard_overhead's elision tallies, ...). No-op without --json.
void addJsonRecord(const std::string &JsonObject);

/// How execute() runs a prepared program.
struct RunRequest {
  /// The simulated core count (the paper's N); on the threads engine also
  /// the number of host workers.
  int Threads = 1;
  /// Unset: GDSE_ENGINE, the bytecode VM when that is unset too. The
  /// host-measured figures name Bytecode (serial reference) and Threads
  /// (real dispatch) explicitly; virtual metrics are bit-identical across
  /// engines, HostNanos is the wall-clock reading.
  std::optional<ExecEngine> Engine{};
  /// Unset: GDSE_GUARD, off when that is unset too. Guard plans come from
  /// the program's pipeline results; per-loop guard counters land in the
  /// --json record either way.
  std::optional<GuardMode> Guard{};
  /// false forces sequential execution of parallel-marked loops (the
  /// Figure 9/10 single-core overhead methodology).
  bool SimulateParallel = true;
  /// Budgets, watchdog and fault injection; the default adds nothing
  /// (resilience_overhead arms unbreachable budgets against it).
  ResilienceOptions Resilience{};
};

/// Executes a prepared program as \p Req asks, lowering P once and reusing
/// the lowering across calls on the register-VM engines. Bounds checking
/// is off.
RunResult execute(PreparedProgram &P, const RunRequest &Req);

/// Sum of SimTime over the program's candidate loops.
uint64_t loopSimTime(const RunResult &R, const std::vector<unsigned> &LoopIds);
/// Sum of WorkCycles over the program's candidate loops.
uint64_t loopWorkCycles(const RunResult &R,
                        const std::vector<unsigned> &LoopIds);

/// Harmonic mean of a series (the paper's preferred average).
double harmonicMean(const std::vector<double> &Xs);

/// Renders a ratio like "1.83x".
std::string ratioStr(double R);

} // namespace bench
} // namespace gdse

#endif // GDSE_BENCH_BENCHCOMMON_H
