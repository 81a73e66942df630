//===- DepProfiler.cpp - Shadow-memory dependence profiling ----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "profile/DepProfiler.h"

#include <algorithm>
#include <cstring>

using namespace gdse;

DepProfiler::DepProfiler(unsigned TargetLoopId) : TargetLoopId(TargetLoopId) {
  Graph.LoopId = TargetLoopId;
}

DepProfiler::~DepProfiler() = default;

void DepProfiler::onLoopEnter(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth++ == 0) {
    ++Graph.Invocations;
    InvocationBase = NextInvocationBase;
    CurStamp = 0; // set by the first onLoopIter
  }
}

void DepProfiler::onLoopIter(unsigned LoopId, uint64_t Iter) {
  if (LoopId != TargetLoopId || InsideDepth != 1)
    return;
  CurStamp = InvocationBase + Iter;
  NextInvocationBase = std::max(NextInvocationBase, CurStamp + 1);
  ++Graph.Iterations;
}

void DepProfiler::onLoopExit(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth > 0 && --InsideDepth == 0)
    CurStamp = 0;
}

void DepProfiler::loadCell(ShadowCell &Cell, AccessId Id) {
  if (Cell.WriteStamp >= InvocationBase) {
    // Written in this invocation. Definition 1: the flow is carried only
    // when no write of the reading iteration covers the byte.
    addEdge(Cell.LastWrite, Id, DepKind::Flow,
            /*Carried=*/Cell.WriteStamp != CurStamp);
  } else if (Id != InvalidAccessId) {
    // Value comes from outside the current loop invocation (Definition 2).
    markAccess(Id, UpwardsExposedBit);
  }
  // Record the read for later anti-dependence edges.
  CellReads &R = Cell.Reads;
  for (unsigned I = 0; I != Cell.NumReads; ++I) {
    if (R.Ids[I] == Id) {
      R.Stamps[I] = CurStamp;
      return;
    }
  }
  if (Cell.NumReads < CellReads::Capacity) {
    R.Ids[Cell.NumReads] = Id;
    R.Stamps[Cell.NumReads] = CurStamp;
    ++Cell.NumReads;
  }
}

void DepProfiler::storeCell(ShadowCell &Cell, AccessId Id) {
  // Output dependence with the previous in-loop write of this invocation.
  if (Cell.WriteStamp >= InvocationBase)
    addEdge(Cell.LastWrite, Id, DepKind::Output,
            /*Carried=*/Cell.WriteStamp < CurStamp);
  // Anti dependences with this invocation's reads since the last write.
  CellReads &R = Cell.Reads;
  for (unsigned I = 0; I != Cell.NumReads; ++I) {
    if (R.Stamps[I] >= InvocationBase)
      addEdge(R.Ids[I], Id, DepKind::Anti, /*Carried=*/R.Stamps[I] < CurStamp);
    R.Ids[I] = InvalidAccessId;
    R.Stamps[I] = 0;
  }
  Cell.NumReads = 0;
  Cell.LastWrite = Id;
  Cell.WriteStamp = CurStamp;
}

void DepProfiler::loadOutsideLoop(const ShadowCell &Cell) {
  // An in-loop store (of ANY invocation) whose value is still visible here
  // is downwards-exposed (Definition 3).
  if (Cell.WriteStamp != 0 && Cell.LastWrite != InvalidAccessId)
    markAccess(Cell.LastWrite, DownwardsExposedBit);
}

DepProfiler::ShadowPage *DepProfiler::findPage(uint64_t PageNo) {
  PageCacheEntry &E = PageCache[PageNo % PageCacheSize];
  if (E.PageNo == PageNo)
    return E.Page;
  auto It = Pages.find(PageNo);
  if (It == Pages.end())
    return nullptr;
  E = {PageNo, It->second.get()};
  return E.Page;
}

DepProfiler::ShadowPage *DepProfiler::getOrCreatePage(uint64_t PageNo) {
  PageCacheEntry &E = PageCache[PageNo % PageCacheSize];
  if (E.PageNo == PageNo)
    return E.Page;
  std::unique_ptr<ShadowPage> &Slot = Pages[PageNo];
  if (!Slot)
    Slot = std::make_unique<ShadowPage>(); // value-initialized: all fresh
  E = {PageNo, Slot.get()};
  return E.Page;
}

template <typename UpdateFn>
void DepProfiler::forEachSlice(uint64_t Addr, uint64_t Size, bool Create,
                               UpdateFn Update) {
  while (Size) {
    uint64_t Off = Addr & (PageBytes - 1);
    uint64_t N = std::min(Size, PageBytes - Off);
    ShadowPage *P =
        Create ? getOrCreatePage(Addr >> PageBits) : findPage(Addr >> PageBits);
    if (P) {
      ShadowCell *C = P->Cells + Off;
      if (!Create) {
        // Read-only update: nothing to copy back.
        for (uint64_t K = 0; K != N; ++K)
          Update(C[K]);
      } else if (N == 1 ||
                 std::memcmp(C, C + 1, (N - 1) * sizeof(ShadowCell)) == 0) {
        // C[K] == C[K+1] for every K: the slice is uniform.
        Update(C[0]);
        std::fill(C + 1, C + N, C[0]);
      } else {
        for (uint64_t K = 0; K != N; ++K)
          Update(C[K]);
      }
    }
    Addr += N;
    Size -= N;
  }
}

void DepProfiler::access(bool IsWrite, AccessId Id, uint64_t Addr,
                         uint64_t Size) {
  if (CurStamp == 0) {
    // Outside the loop a write leaves the byte in the fresh state, and a
    // fresh byte has nothing to report when read.
    if (IsWrite)
      wipeRange(Addr, Size);
    else
      forEachSlice(Addr, Size, /*Create=*/false,
                   [this](ShadowCell &C) { loadOutsideLoop(C); });
    return;
  }
  if (IsWrite)
    forEachSlice(Addr, Size, /*Create=*/true,
                 [this, Id](ShadowCell &C) { storeCell(C, Id); });
  else
    forEachSlice(Addr, Size, /*Create=*/true,
                 [this, Id](ShadowCell &C) { loadCell(C, Id); });
}

void DepProfiler::onLoad(AccessId Id, uint64_t Addr, uint64_t Size) {
  if (CurStamp != 0 && Id != InvalidAccessId)
    noteAccess(Id);
  access(/*IsWrite=*/false, Id, Addr, Size);
}

void DepProfiler::onStore(AccessId Id, uint64_t Addr, uint64_t Size) {
  if (CurStamp != 0 && Id != InvalidAccessId)
    noteAccess(Id);
  access(/*IsWrite=*/true, Id, Addr, Size);
}

void DepProfiler::onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size,
                               Builtin B, uint32_t CallSiteId) {
  (void)CallSiteId;
  // calloc zero-fill defines fresh memory and cannot create dependences
  // with anything (the block is new). Other bulk accesses are not modeled
  // as graph vertices; flag the loop so the planner stays conservative.
  if (CurStamp != 0 && B != Builtin::CallocFn)
    Graph.HasUnmodeled = true;
  access(IsWrite, InvalidAccessId, Addr, Size);
}

void DepProfiler::wipeRange(uint64_t Addr, uint64_t Size) {
  if (Pages.empty() || Size == 0)
    return;
  uint64_t End = Addr + Size;
  auto WipePage = [&](uint64_t PageNo) {
    uint64_t Lo = std::max(Addr, PageNo << PageBits);
    uint64_t Hi = std::min(End, (PageNo + 1) << PageBits);
    if (Hi - Lo == PageBytes) {
      PageCacheEntry &E = PageCache[PageNo % PageCacheSize];
      if (E.PageNo == PageNo)
        E = PageCacheEntry();
      Pages.erase(PageNo);
    } else if (ShadowPage *P = findPage(PageNo)) {
      std::memset(static_cast<void *>(P->Cells + (Lo & (PageBytes - 1))), 0,
                  (Hi - Lo) * sizeof(ShadowCell));
    }
  };
  uint64_t First = Addr >> PageBits, Last = (End - 1) >> PageBits;
  if (Last - First < Pages.size()) {
    for (uint64_t PageNo = First; PageNo <= Last; ++PageNo)
      WipePage(PageNo);
    return;
  }
  // Fewer shadow pages exist than the range spans: visit those instead.
  std::vector<uint64_t> Hit;
  for (const auto &[PageNo, Page] : Pages)
    if (PageNo >= First && PageNo <= Last)
      Hit.push_back(PageNo);
  for (uint64_t PageNo : Hit)
    WipePage(PageNo);
}

void DepProfiler::onAlloc(const Allocation &A) { wipeRange(A.Base, A.Size); }

void DepProfiler::onFree(const Allocation &A) { wipeRange(A.Base, A.Size); }

void DepProfiler::addEdge(AccessId Src, AccessId Dst, DepKind K,
                          bool Carried) {
  if (Src == InvalidAccessId || Dst == InvalidAccessId)
    return;
  DepEdge E{Src, Dst, K, Carried};
  uint32_t H = Src * 0x9E3779B1u + Dst * 0x85EBCA77u +
               (static_cast<uint32_t>(K) << 1 | Carried) * 0xC2B2AE3Du;
  DepEdge &Memo = EdgeMemo[H >> (32 - EdgeMemoBits)];
  if (Memo == E)
    return;
  Memo = E;
  Graph.Edges.insert(E);
}

void DepProfiler::noteAccess(AccessId Id) {
  if (Id >= DynCounts.size())
    DynCounts.resize(std::max<size_t>(Id + 1, DynCounts.size() * 2));
  ++DynCounts[Id];
}

void DepProfiler::markAccess(AccessId Id, uint8_t Bit) {
  if (Id >= AccessMarks.size())
    AccessMarks.resize(std::max<size_t>(Id + 1, AccessMarks.size() * 2));
  AccessMarks[Id] |= Bit;
}

LoopDepGraph DepProfiler::takeGraph() {
  for (AccessId Id = 0; Id != DynCounts.size(); ++Id)
    if (DynCounts[Id])
      Graph.DynCount.emplace_hint(Graph.DynCount.end(), Id, DynCounts[Id]);
  for (AccessId Id = 0; Id != AccessMarks.size(); ++Id) {
    if (AccessMarks[Id] & UpwardsExposedBit)
      Graph.UpwardsExposedLoads.insert(Graph.UpwardsExposedLoads.end(), Id);
    if (AccessMarks[Id] & DownwardsExposedBit)
      Graph.DownwardsExposedStores.insert(Graph.DownwardsExposedStores.end(),
                                          Id);
  }
  DynCounts.clear();
  AccessMarks.clear();
  return std::move(Graph);
}

ProfileResult
gdse::profileLoop(Module &M, unsigned TargetLoopId, const std::string &Entry,
                  std::shared_ptr<const BytecodeModule> Precompiled) {
  InterpOptions Opts;
  Opts.NumThreads = 1;
  Opts.SimulateParallel = false;
  Opts.Engine = ExecEngine::Bytecode;
  Opts.Precompiled = std::move(Precompiled);
  DepProfiler Profiler(TargetLoopId);
  Interp I(M, Opts);
  I.setObserver(&Profiler);
  ProfileResult R;
  R.Run = I.run(Entry);
  R.Graph = Profiler.takeGraph();
  return R;
}
