//===- DepProfiler.h - Shadow-memory dependence profiling -------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the loop-level data dependence graph by executing the program
/// under the VM with shadow memory — the stand-in for the paper's off-line
/// dependence profiling tools [38,39] (§2, §4.1).
///
/// For one target loop per run it classifies, per byte:
///  - flow dependences, split into loop-independent (read covered by a write
///    of the same iteration) and loop-carried (Definition 1's refinement:
///    a read is carried-dependent only when NOT covered by a prior write in
///    its own iteration);
///  - anti and output dependences, carried or independent;
///  - upwards-exposed loads (value produced outside the current loop
///    invocation, Definition 2);
///  - downwards-exposed stores (value consumed after the loop, Definition 3).
///
/// Representation. Every byte of VM memory has one 64-byte ShadowCell: its
/// last in-loop write and up to CellReads::Capacity readers since, each
/// tagged with an iteration stamp. A stamp is the invocation's base plus
/// the iteration number, and each invocation's base lies above every stamp
/// issued before it. So "this invocation" is `Stamp >= InvocationBase`,
/// "this iteration" is `Stamp == CurStamp`, and "an earlier iteration" is
/// `Stamp < CurStamp`; 0 means "no in-loop access". Cells live in dense
/// pages of PageBytes consecutive addresses, created on the first in-loop
/// touch and found by page number through a small direct-mapped cache. An
/// all-zero cell is a fresh byte, so a store outside the loop and an
/// alloc/free event both just zero cells, and a range covering a whole page
/// drops the page. Freed or reallocated memory therefore never induces false
/// dependences: address reuse by the allocator (or by stack frames of
/// repeated calls) starts from a clean slate.
///
/// Whole-access fast path. The update of one cell is a pure function of the
/// cell and of the run's loop position, which is fixed for the duration of
/// one access, and every graph effect is an idempotent set insert. So when
/// all cells of an access (or of a page-sized slice of a bulk access) are
/// bytewise equal, the first cell is updated once and copied to the rest;
/// the result is exactly what the byte-by-byte walk produces. Cells hold no
/// padding and unused reader slots are zero, so equal states compare equal.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_PROFILE_DEPPROFILER_H
#define GDSE_PROFILE_DEPPROFILER_H

#include "analysis/DepGraph.h"
#include "interp/Interp.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace gdse {

/// Observer that accumulates the dependence graph for one loop id.
class DepProfiler : public InterpObserver {
public:
  explicit DepProfiler(unsigned TargetLoopId);
  ~DepProfiler() override;

  void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) override;
  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override;
  void onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size, Builtin B,
                    uint32_t CallSiteId) override;
  void onAlloc(const Allocation &A) override;
  void onFree(const Allocation &A) override;
  void onLoopEnter(unsigned LoopId) override;
  void onLoopIter(unsigned LoopId, uint64_t Iter) override;
  void onLoopExit(unsigned LoopId) override;

  /// The accumulated graph (valid after the instrumented run finishes).
  LoopDepGraph takeGraph();

private:
  struct CellReads {
    static constexpr unsigned Capacity = 4;
    AccessId Ids[Capacity];
    uint64_t Stamps[Capacity];
  };
  struct ShadowCell {
    /// Meaningful only when WriteStamp != 0.
    AccessId LastWrite;
    uint32_t NumReads;
    /// Stamp of the last write when it happened inside the loop, else 0.
    uint64_t WriteStamp;
    /// The first NumReads slots are in-loop reads since the last write; the
    /// rest are zero.
    CellReads Reads;
  };
  static_assert(sizeof(ShadowCell) == 64, "ShadowCell must hold no padding");
  static constexpr unsigned PageBits = 12;
  static constexpr uint64_t PageBytes = uint64_t(1) << PageBits;
  struct ShadowPage {
    ShadowCell Cells[PageBytes];
  };

  void loadCell(ShadowCell &Cell, AccessId Id);
  void storeCell(ShadowCell &Cell, AccessId Id);
  void loadOutsideLoop(const ShadowCell &Cell);
  void access(bool IsWrite, AccessId Id, uint64_t Addr, uint64_t Size);
  /// Applies \p Update to every cell of [Addr, Addr+Size), page slice by
  /// page slice, running it once per uniform slice. Pages are created when
  /// \p Create, skipped when absent otherwise (their cells are fresh).
  template <typename UpdateFn>
  void forEachSlice(uint64_t Addr, uint64_t Size, bool Create,
                    UpdateFn Update);
  ShadowPage *findPage(uint64_t PageNo);
  ShadowPage *getOrCreatePage(uint64_t PageNo);
  void wipeRange(uint64_t Addr, uint64_t Size);

  void addEdge(AccessId Src, AccessId Dst, DepKind K, bool Carried);
  void noteAccess(AccessId Id);
  void markAccess(AccessId Id, uint8_t Bit);

  unsigned TargetLoopId;
  LoopDepGraph Graph;
  /// Stamp of the current iteration of the target loop (0 when not inside
  /// an iteration).
  uint64_t CurStamp = 0;
  /// Stamp of iteration 0 of the current invocation, and of the next
  /// invocation (one past every stamp issued so far).
  uint64_t InvocationBase = 1;
  uint64_t NextInvocationBase = 1;
  /// Nesting depth inside the target loop (handles recursive re-entry).
  unsigned InsideDepth = 0;

  std::unordered_map<uint64_t, std::unique_ptr<ShadowPage>> Pages;
  /// Direct-mapped cache of recently used pages, indexed by page number.
  struct PageCacheEntry {
    uint64_t PageNo = ~uint64_t(0);
    ShadowPage *Page = nullptr;
  };
  static constexpr unsigned PageCacheSize = 64;
  PageCacheEntry PageCache[PageCacheSize];

  /// Flat per-run accumulators, turned into Graph's sets by takeGraph().
  std::vector<uint64_t> DynCounts;
  static constexpr uint8_t UpwardsExposedBit = 1, DownwardsExposedBit = 2;
  std::vector<uint8_t> AccessMarks;
  /// Direct-mapped memo of recently inserted edges; a hit skips the insert.
  static constexpr unsigned EdgeMemoBits = 8;
  DepEdge EdgeMemo[1u << EdgeMemoBits];
};

/// Result of one profiling run.
struct ProfileResult {
  LoopDepGraph Graph;
  RunResult Run;
};

/// Executes \p Entry sequentially on the bytecode VM under a DepProfiler
/// targeting \p TargetLoopId and returns the graph plus the run result. The
/// run uses \p Precompiled (the AnalysisManager's cached per-module
/// lowering) when given, and lowers \p M itself otherwise. The engines emit
/// the identical event stream, so the graph would be the same on any of them.
ProfileResult
profileLoop(Module &M, unsigned TargetLoopId, const std::string &Entry = "main",
            std::shared_ptr<const BytecodeModule> Precompiled = nullptr);

} // namespace gdse

#endif // GDSE_PROFILE_DEPPROFILER_H
