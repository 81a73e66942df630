//===- ProfilerTest.cpp - dependence profiler & classification tests ------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Validates the shadow-memory dependence profiler (Definitions 1-3) and the
// access-class partitioning / thread-private classification (Definitions
// 4-5) on the dependence patterns the paper's transformation hinges on.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessClasses.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "ir/AccessInfo.h"
#include "profile/DepProfiler.h"
#include "workloads/Workloads.h"

#include <unordered_map>

#include <gtest/gtest.h>

using namespace gdse;

namespace {

struct ProfiledProgram {
  std::unique_ptr<Module> M;
  AccessNumbering Numbering;
  unsigned TargetLoopId = 0;
  LoopDepGraph Graph;
  RunResult Run;
};

/// Parses, numbers, finds the first @candidate loop, and profiles it.
ProfiledProgram profileCandidate(const std::string &Src) {
  ProfiledProgram P;
  P.M = parseMiniCOrDie(Src, "profiler test program");
  P.Numbering = AccessNumbering::compute(*P.M);
  for (const LoopDesc &L : P.Numbering.loops()) {
    if (auto *F = dyn_cast<ForStmt>(L.LoopStmt)) {
      if (F->isCandidate()) {
        P.TargetLoopId = L.Id;
        break;
      }
    }
  }
  EXPECT_NE(P.TargetLoopId, 0u) << "no @candidate loop in test program";
  ProfileResult R = profileLoop(*P.M, P.TargetLoopId);
  EXPECT_TRUE(R.Run.ok()) << R.Run.TrapMessage;
  P.Graph = std::move(R.Graph);
  P.Run = std::move(R.Run);
  return P;
}

bool hasCarried(const LoopDepGraph &G, DepKind K) {
  for (const DepEdge &E : G.Edges)
    if (E.Carried && E.Kind == K)
      return true;
  return false;
}

bool hasIndependent(const LoopDepGraph &G, DepKind K) {
  for (const DepEdge &E : G.Edges)
    if (!E.Carried && E.Kind == K)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Figure 1 pattern: a scratch buffer re-initialized every iteration.
//===----------------------------------------------------------------------===//

TEST(Profiler, ScratchBufferIsExpandable) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int m = 16;
      int* zptr = malloc(m * sizeof(int));
      int total = 0;
      @candidate for (int it = 0; it < 8; it++) {
        for (int k = 0; k < m; k++) { zptr[k] = it + k; }
        int b = 0;
        for (int k = 0; k < m; k++) { b += zptr[k]; }
        print_int(b);
      }
      free(zptr);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  EXPECT_EQ(G.Iterations, 8u);
  // Write-then-read each iteration: independent flow, carried anti+output,
  // and crucially NO carried flow on the buffer.
  EXPECT_TRUE(hasIndependent(G, DepKind::Flow));
  EXPECT_TRUE(hasCarried(G, DepKind::Anti));
  EXPECT_TRUE(hasCarried(G, DepKind::Output));

  AccessClasses C = AccessClasses::build(G);
  std::set<AccessId> Priv = C.privateAccesses();
  EXPECT_FALSE(Priv.empty());

  // The breakdown must attribute the zptr traffic to "expandable".
  AccessBreakdown B = computeAccessBreakdown(G, C);
  EXPECT_GT(B.Expandable, 0u);
}

//===----------------------------------------------------------------------===//
// A true reduction: carried flow must block privatization.
//===----------------------------------------------------------------------===//

TEST(Profiler, ReductionHasCarriedFlow) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int sum = 0;
      @candidate for (int i = 0; i < 10; i++) {
        sum = sum + i;
      }
      print_int(sum);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  EXPECT_TRUE(hasCarried(G, DepKind::Flow));

  AccessClasses C = AccessClasses::build(G);
  EXPECT_TRUE(C.privateAccesses().empty());
  AccessBreakdown B = computeAccessBreakdown(G, C);
  EXPECT_GT(B.WithCarried, 0u);
  EXPECT_EQ(B.Expandable, 0u);
}

//===----------------------------------------------------------------------===//
// Read-only shared data: upwards-exposed, but dependence-free.
//===----------------------------------------------------------------------===//

TEST(Profiler, ReadOnlyDataIsUpwardsExposedAndFree) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int table[8];
      for (int i = 0; i < 8; i++) { table[i] = i * 3; }
      int out[8];
      @candidate for (int i = 0; i < 8; i++) {
        out[i] = table[7 - i];
      }
      print_int(out[0]);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  EXPECT_FALSE(G.UpwardsExposedLoads.empty());
  // Reads of table carry no dependences at all.
  AccessClasses C = AccessClasses::build(G);
  AccessBreakdown B = computeAccessBreakdown(G, C);
  EXPECT_GT(B.FreeOfCarried, 0u);
  EXPECT_EQ(B.WithCarried, 0u); // out[i] writes disjoint addresses
}

//===----------------------------------------------------------------------===//
// Definition 3: stores read after the loop are downwards-exposed.
//===----------------------------------------------------------------------===//

TEST(Profiler, DownwardsExposedStoreDetected) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int buf[4];
      int last = 0;
      @candidate for (int i = 0; i < 4; i++) {
        buf[i] = i * i;
      }
      print_int(buf[3]);   // consumes a loop store
      return 0;
    }
  )");
  EXPECT_FALSE(P.Graph.DownwardsExposedStores.empty());

  // And the class containing that store must not be private.
  AccessClasses C = AccessClasses::build(P.Graph);
  for (AccessId Id : P.Graph.DownwardsExposedStores)
    EXPECT_FALSE(C.isPrivate(Id));
}

TEST(Profiler, StoreNotReadAfterLoopIsNotDownwardsExposed) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int scratch[4];
      int sink = 0;
      @candidate for (int i = 0; i < 6; i++) {
        scratch[0] = i;
        scratch[1] = scratch[0] + 1;
        sink = sink ^ scratch[1];
      }
      print_int(sink);
      return 0;
    }
  )");
  // scratch stores feed only in-iteration reads; nothing reads scratch after
  // the loop, so no downwards exposure on those stores.
  for (AccessId Id : P.Graph.DownwardsExposedStores) {
    const AccessDesc &D = P.Numbering.access(Id);
    // Only 'sink' stores may be downwards-exposed (read by print after loop).
    auto *LHS = D.StoreNode->getLHS();
    auto *VR = dyn_cast<VarRefExpr>(LHS);
    ASSERT_NE(VR, nullptr);
    EXPECT_EQ(VR->getDecl()->getName(), "sink");
  }
}

//===----------------------------------------------------------------------===//
// The paper's §3.2 aliasing example: equivalence classes must merge the
// conditional *p store with both potential targets.
//===----------------------------------------------------------------------===//

TEST(Profiler, AliasedAccessesFallIntoOneClass) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int a[8];
      int b[8];
      int acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        int* p;
        if (i % 2 == 0) { p = &a[0]; } else { p = &b[0]; }
        *p = i;            // L3: thread-private iff condition holds
        int v = 0;
        if (i % 2 == 0) { v = a[0]; } else { v = b[0]; }
        acc ^= v;
        a[0] = 0; b[0] = 0; // kill before next iteration (anti/output only)
      }
      print_int(acc);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  // Find the *p store's access id.
  AccessId StarPStore = InvalidAccessId;
  for (const AccessDesc &D : P.Numbering.accesses())
    if (D.IsStore && isa<DerefExpr>(D.StoreNode->getLHS()))
      StarPStore = D.Id;
  ASSERT_NE(StarPStore, InvalidAccessId);

  AccessClasses C = AccessClasses::build(G);
  ASSERT_TRUE(C.contains(StarPStore));
  unsigned Cls = C.classOf(StarPStore);
  // The class must include the a[0]/b[0] readers connected by independent
  // flow through *p.
  EXPECT_GT(C.classes()[Cls].Members.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Allocator address reuse must not fabricate dependences.
//===----------------------------------------------------------------------===//

TEST(Profiler, MallocFreePerIterationCreatesNoCarriedDeps) {
  ProfiledProgram P = profileCandidate(R"(
    struct Node { int v; struct Node* next; };
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 10; i++) {
        struct Node* n = malloc(sizeof(struct Node));
        n->v = i;
        acc ^= n->v;
        free(n);
      }
      print_int(acc);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  // The heap-node field accesses (n->v, through a Deref/Field l-value) must
  // show NO carried dependences even though the allocator reuses the same
  // host address every iteration. Carried deps on the scalar locals 'n' and
  // 'acc' themselves are real (per-iteration variable reuse).
  for (const DepEdge &E : G.Edges) {
    if (!E.Carried)
      continue;
    const AccessDesc &Src = P.Numbering.access(E.Src);
    const AccessDesc &Dst = P.Numbering.access(E.Dst);
    EXPECT_TRUE(isa<VarRefExpr>(Src.location()))
        << "carried dep on heap node: " << G.str();
    EXPECT_TRUE(isa<VarRefExpr>(Dst.location()))
        << "carried dep on heap node: " << G.str();
  }
}

//===----------------------------------------------------------------------===//
// Stack frame reuse across calls must not fabricate dependences either.
//===----------------------------------------------------------------------===//

TEST(Profiler, FrameReuseAcrossCallsIsClean) {
  ProfiledProgram P = profileCandidate(R"(
    int work(int x) {
      int local[4];
      for (int k = 0; k < 4; k++) { local[k] = x + k; }
      return local[3];
    }
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 6; i++) {
        acc ^= work(i);
      }
      print_int(acc);
      return 0;
    }
  )");
  // 'local' is fresh per call; only 'acc' may carry dependences.
  for (const DepEdge &E : P.Graph.Edges) {
    if (!E.Carried)
      continue;
    const AccessDesc &Src = P.Numbering.access(E.Src);
    auto *VR = dyn_cast<VarRefExpr>(Src.location());
    ASSERT_NE(VR, nullptr) << P.Graph.str();
    EXPECT_EQ(VR->getDecl()->getName(), "acc") << P.Graph.str();
  }
}

//===----------------------------------------------------------------------===//
// Definition 1 refinement: covered reads do not produce carried flow.
//===----------------------------------------------------------------------===//

TEST(Profiler, CoveredReadIsIndependentFlow) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int t = 0;
      int out = 0;
      @candidate for (int i = 0; i < 5; i++) {
        t = i * 2;        // write before every read
        out ^= t;         // covered read
      }
      print_int(out);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  // t: independent flow + carried anti/output; no carried flow.
  bool CarriedFlowOnT = false;
  for (const DepEdge &E : G.Edges) {
    if (!(E.Carried && E.Kind == DepKind::Flow))
      continue;
    const AccessDesc &Src = P.Numbering.access(E.Src);
    if (auto *VR = dyn_cast<VarRefExpr>(Src.location()))
      if (VR->getDecl()->getName() == "t")
        CarriedFlowOnT = true;
  }
  EXPECT_FALSE(CarriedFlowOnT) << G.str();

  // And t's class is privatizable.
  AccessClasses C = AccessClasses::build(G);
  bool TPrivate = false;
  for (const AccessDesc &D : P.Numbering.accesses()) {
    if (!D.IsStore)
      continue;
    if (auto *VR = dyn_cast<VarRefExpr>(D.StoreNode->getLHS()))
      if (VR->getDecl()->getName() == "t" && C.isPrivate(D.Id))
        TPrivate = true;
  }
  EXPECT_TRUE(TPrivate) << G.str();
}

//===----------------------------------------------------------------------===//
// memcpy inside the target loop flags the graph as unmodeled.
//===----------------------------------------------------------------------===//

TEST(Profiler, BulkAccessInLoopSetsUnmodeledFlag) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int a[4];
      int b[4];
      for (int i = 0; i < 4; i++) { a[i] = i; }
      @candidate for (int i = 0; i < 3; i++) {
        memcpy(b, a, 4 * sizeof(int));
      }
      print_int(b[2]);
      return 0;
    }
  )");
  EXPECT_TRUE(P.Graph.HasUnmodeled);
}

TEST(Profiler, MallocInsideLoopDoesNotSetUnmodeledFlag) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 3; i++) {
        int* p = malloc(8 * sizeof(int));
        p[0] = i;
        acc ^= p[0];
        free(p);
      }
      print_int(acc);
      return 0;
    }
  )");
  EXPECT_FALSE(P.Graph.HasUnmodeled);
}

//===----------------------------------------------------------------------===//
// Dynamic counts power the Figure 8 weights.
//===----------------------------------------------------------------------===//

TEST(Profiler, DynamicCountsMatchExecution) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int buf[32];
      int acc = 0;
      @candidate for (int i = 0; i < 4; i++) {
        for (int k = 0; k < 8; k++) { buf[k] = i + k; }
        for (int k = 0; k < 8; k++) { acc ^= buf[k]; }
      }
      print_int(acc);
      return 0;
    }
  )");
  // buf store executes 4*8 = 32 times.
  uint64_t MaxCount = 0;
  for (const auto &[Id, Count] : P.Graph.DynCount)
    MaxCount = std::max(MaxCount, Count);
  EXPECT_GE(MaxCount, 32u);
}

//===----------------------------------------------------------------------===//
// Equivalence with the byte-map profiler the paged shadow replaced.
//===----------------------------------------------------------------------===//

/// The byte-keyed hash-map profiler, kept verbatim (renamed) as the oracle
/// the tests below compare DepProfiler against.
class ReferenceDepProfiler : public InterpObserver {
public:
  explicit ReferenceDepProfiler(unsigned TargetLoopId);
  ~ReferenceDepProfiler() override;

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
    int64_t Iters[Capacity];
    uint32_t Invocations[Capacity];
    uint8_t Count = 0;
  };
  struct ShadowCell {
    AccessId LastWrite = InvalidAccessId;
    /// Iteration of the target loop at the last write; -1 = outside loop.
    int64_t WriteIter = -1;
    /// Target-loop invocation of the last write; 0 = before any invocation.
    uint32_t WriteInvocation = 0;
    bool HasWrite = false;
    CellReads Reads;
  };

  void recordLoadByte(AccessId Id, uint64_t Addr);
  void recordStoreByte(AccessId Id, uint64_t Addr);
  void wipeRange(uint64_t Addr, uint64_t Size);

  unsigned TargetLoopId;
  LoopDepGraph Graph;
  /// Current iteration of the target loop (-1 when not inside it).
  int64_t CurIter = -1;
  /// Invocation counter of the target loop (0 before the first entry).
  uint32_t CurInvocation = 0;
  /// Nesting depth inside the target loop (handles recursive re-entry).
  unsigned InsideDepth = 0;
  std::unordered_map<uint64_t, ShadowCell> Shadow;
};

ReferenceDepProfiler::ReferenceDepProfiler(unsigned TargetLoopId)
    : TargetLoopId(TargetLoopId) {
  Graph.LoopId = TargetLoopId;
  Shadow.reserve(1 << 16);
}

ReferenceDepProfiler::~ReferenceDepProfiler() = default;

void ReferenceDepProfiler::onLoopEnter(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth++ == 0) {
    ++CurInvocation;
    ++Graph.Invocations;
    CurIter = -1; // set by the first onLoopIter
  }
}

void ReferenceDepProfiler::onLoopIter(unsigned LoopId, uint64_t Iter) {
  if (LoopId != TargetLoopId || InsideDepth != 1)
    return;
  CurIter = static_cast<int64_t>(Iter);
  ++Graph.Iterations;
}

void ReferenceDepProfiler::onLoopExit(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth > 0 && --InsideDepth == 0)
    CurIter = -1;
}

void ReferenceDepProfiler::recordLoadByte(AccessId Id, uint64_t Addr) {
  ShadowCell &Cell = Shadow[Addr];
  bool InLoop = CurIter >= 0;

  if (InLoop) {
    bool WrittenThisInvocation = Cell.HasWrite &&
                                 Cell.WriteInvocation == CurInvocation &&
                                 Cell.WriteIter >= 0;
    if (WrittenThisInvocation) {
      if (Cell.WriteIter == CurIter) {
        // Covered by a write of the same iteration: loop-independent flow.
        Graph.addEdge(Cell.LastWrite, Id, DepKind::Flow, /*Carried=*/false);
      } else {
        // Definition 1: carried flow only when not covered this iteration.
        Graph.addEdge(Cell.LastWrite, Id, DepKind::Flow, /*Carried=*/true);
      }
    } else if (Id != InvalidAccessId) {
      // Value comes from outside the current loop invocation (Definition 2).
      Graph.UpwardsExposedLoads.insert(Id);
    }
    // Record the read for later anti-dependence edges.
    CellReads &R = Cell.Reads;
    for (unsigned I = 0; I != R.Count; ++I) {
      if (R.Ids[I] == Id) {
        R.Iters[I] = CurIter;
        R.Invocations[I] = CurInvocation;
        return;
      }
    }
    if (R.Count < CellReads::Capacity) {
      R.Ids[R.Count] = Id;
      R.Iters[R.Count] = CurIter;
      R.Invocations[R.Count] = CurInvocation;
      ++R.Count;
    }
    return;
  }

  // Read outside the loop: an in-loop store (of ANY invocation) whose value
  // is still visible here is downwards-exposed (Definition 3).
  if (Cell.HasWrite && Cell.WriteIter >= 0 &&
      Cell.LastWrite != InvalidAccessId)
    Graph.DownwardsExposedStores.insert(Cell.LastWrite);
}

void ReferenceDepProfiler::recordStoreByte(AccessId Id, uint64_t Addr) {
  ShadowCell &Cell = Shadow[Addr];
  bool InLoop = CurIter >= 0;

  if (InLoop) {
    // Output dependence with the previous in-loop write of this invocation.
    if (Cell.HasWrite && Cell.WriteIter >= 0 &&
        Cell.WriteInvocation == CurInvocation)
      Graph.addEdge(Cell.LastWrite, Id, DepKind::Output,
                    /*Carried=*/Cell.WriteIter < CurIter);
    // Anti dependences with reads since the last write.
    for (unsigned I = 0; I != Cell.Reads.Count; ++I)
      if (Cell.Reads.Invocations[I] == CurInvocation &&
          Cell.Reads.Iters[I] >= 0)
        Graph.addEdge(Cell.Reads.Ids[I], Id, DepKind::Anti,
                      /*Carried=*/Cell.Reads.Iters[I] < CurIter);
    Cell.LastWrite = Id;
    Cell.WriteIter = CurIter;
    Cell.WriteInvocation = CurInvocation;
    Cell.HasWrite = true;
    Cell.Reads.Count = 0;
    return;
  }

  Cell.LastWrite = Id;
  Cell.WriteIter = -1;
  Cell.WriteInvocation = CurInvocation;
  Cell.HasWrite = true;
  Cell.Reads.Count = 0;
}

void ReferenceDepProfiler::onLoad(AccessId Id, uint64_t Addr, uint64_t Size) {
  if (CurIter >= 0 && Id != InvalidAccessId)
    ++Graph.DynCount[Id];
  for (uint64_t K = 0; K != Size; ++K)
    recordLoadByte(Id, Addr + K);
}

void ReferenceDepProfiler::onStore(AccessId Id, uint64_t Addr, uint64_t Size) {
  if (CurIter >= 0 && Id != InvalidAccessId)
    ++Graph.DynCount[Id];
  for (uint64_t K = 0; K != Size; ++K)
    recordStoreByte(Id, Addr + K);
}

void ReferenceDepProfiler::onBulkAccess(bool IsWrite, uint64_t Addr,
                                        uint64_t Size, Builtin B,
                                        uint32_t CallSiteId) {
  (void)CallSiteId;
  bool InLoop = CurIter >= 0;
  if (InLoop) {
    // calloc zero-fill defines fresh memory and cannot create dependences
    // with anything (the block is new). Other bulk accesses are not modeled
    // as graph vertices; flag the loop so the planner stays conservative.
    if (B != Builtin::CallocFn)
      Graph.HasUnmodeled = true;
  }
  if (IsWrite) {
    for (uint64_t K = 0; K != Size; ++K)
      recordStoreByte(InvalidAccessId, Addr + K);
  } else {
    for (uint64_t K = 0; K != Size; ++K)
      recordLoadByte(InvalidAccessId, Addr + K);
  }
}

void ReferenceDepProfiler::wipeRange(uint64_t Addr, uint64_t Size) {
  // Cheap path: few shadowed bytes -> iterate the map instead of the range.
  if (Size > Shadow.size() * 2) {
    for (auto It = Shadow.begin(); It != Shadow.end();) {
      if (It->first >= Addr && It->first < Addr + Size)
        It = Shadow.erase(It);
      else
        ++It;
    }
    return;
  }
  for (uint64_t K = 0; K != Size; ++K)
    Shadow.erase(Addr + K);
}

void ReferenceDepProfiler::onAlloc(const Allocation &A) {
  wipeRange(A.Base, A.Size);
}

void ReferenceDepProfiler::onFree(const Allocation &A) {
  wipeRange(A.Base, A.Size);
}

LoopDepGraph ReferenceDepProfiler::takeGraph() { return std::move(Graph); }

/// Forwards every observer event to each target, in order.
class TeeObserver : public InterpObserver {
public:
  explicit TeeObserver(std::vector<InterpObserver *> Targets)
      : Targets(std::move(Targets)) {}
  void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) override {
    for (InterpObserver *O : Targets)
      O->onLoad(Id, Addr, Size);
  }
  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override {
    for (InterpObserver *O : Targets)
      O->onStore(Id, Addr, Size);
  }
  void onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size, Builtin B,
                    uint32_t CallSiteId) override {
    for (InterpObserver *O : Targets)
      O->onBulkAccess(IsWrite, Addr, Size, B, CallSiteId);
  }
  void onAlloc(const Allocation &A) override {
    for (InterpObserver *O : Targets)
      O->onAlloc(A);
  }
  void onFree(const Allocation &A) override {
    for (InterpObserver *O : Targets)
      O->onFree(A);
  }
  void onLoopEnter(unsigned LoopId) override {
    for (InterpObserver *O : Targets)
      O->onLoopEnter(LoopId);
  }
  void onLoopIter(unsigned LoopId, uint64_t Iter) override {
    for (InterpObserver *O : Targets)
      O->onLoopIter(LoopId, Iter);
  }
  void onLoopExit(unsigned LoopId) override {
    for (InterpObserver *O : Targets)
      O->onLoopExit(LoopId);
  }

private:
  std::vector<InterpObserver *> Targets;
};

void expectSameGraph(const LoopDepGraph &Got, const LoopDepGraph &Want,
                     const std::string &What) {
  EXPECT_EQ(Got.LoopId, Want.LoopId) << What;
  EXPECT_TRUE(Got.Edges == Want.Edges)
      << What << "\ngot:\n" << Got.str() << "want:\n" << Want.str();
  EXPECT_EQ(Got.UpwardsExposedLoads, Want.UpwardsExposedLoads) << What;
  EXPECT_EQ(Got.DownwardsExposedStores, Want.DownwardsExposedStores) << What;
  EXPECT_EQ(Got.DynCount, Want.DynCount) << What;
  EXPECT_EQ(Got.Invocations, Want.Invocations) << What;
  EXPECT_EQ(Got.Iterations, Want.Iterations) << What;
  EXPECT_EQ(Got.HasUnmodeled, Want.HasUnmodeled) << What;
}

/// Profiles \p LoopId under both profilers in one bytecode run (the options
/// of profileLoop), expects equal graphs, and returns the paged one.
LoopDepGraph profileAgainstReference(Module &M, unsigned LoopId,
                                     const std::string &What) {
  InterpOptions Opts;
  Opts.NumThreads = 1;
  Opts.SimulateParallel = false;
  Opts.Engine = ExecEngine::Bytecode;
  DepProfiler Paged(LoopId);
  ReferenceDepProfiler Ref(LoopId);
  TeeObserver Tee({&Paged, &Ref});
  Interp I(M, Opts);
  I.setObserver(&Tee);
  RunResult R = I.run();
  EXPECT_TRUE(R.ok()) << What << ": " << R.TrapMessage;
  LoopDepGraph G = Paged.takeGraph();
  expectSameGraph(G, Ref.takeGraph(), What);
  return G;
}

/// Every shipped program: the Table 4 kernels and the reduction kernels.
std::vector<const char *> profiledWorkloads() {
  std::vector<const char *> Names;
  for (const WorkloadInfo &W : allWorkloads())
    Names.push_back(W.Name);
  for (const WorkloadInfo &W : reductionWorkloads())
    Names.push_back(W.Name);
  return Names;
}

TEST(ProfilerEquivalence, CoversThirteenCandidateLoops) {
  size_t Loops = 0;
  for (const char *Name : profiledWorkloads()) {
    std::unique_ptr<Module> M =
        parseMiniCOrDie(findWorkload(Name)->Source, Name);
    Loops += CompilationSession(*M).candidateLoops().size();
  }
  EXPECT_EQ(Loops, 13u);
}

class ProfilerEquivalence : public ::testing::TestWithParam<const char *> {};

TEST_P(ProfilerEquivalence, MatchesByteMapProfiler) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  std::vector<unsigned> Loops = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Loops.size(), W->NumCandidates) << W->Name;
  for (unsigned LoopId : Loops) {
    LoopDepGraph G = profileAgainstReference(
        *M, LoopId, std::string(W->Name) + " loop " + std::to_string(LoopId));
    EXPECT_FALSE(G.Edges.empty()) << W->Name;
    EXPECT_GT(G.Iterations, 0u) << W->Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ProfilerEquivalence,
                         ::testing::ValuesIn(profiledWorkloads()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (C == '-' || C == '.')
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// The paged shadow's own paths, each checked against the reference too.
//===----------------------------------------------------------------------===//

/// Feeds the same synthetic event stream to both profilers. Addresses need
/// not be real memory: the profilers only key shadow state by them.
struct SyntheticRun {
  static constexpr unsigned Loop = 7;
  DepProfiler Paged{Loop};
  ReferenceDepProfiler Ref{Loop};
  TeeObserver Tee{{&Paged, &Ref}};

  LoopDepGraph finish() {
    LoopDepGraph G = Paged.takeGraph();
    expectSameGraph(G, Ref.takeGraph(), "synthetic run");
    return G;
  }
};

/// Far above any 2^k page boundary up to 1 MiB, then 2 bytes below one.
constexpr uint64_t PageEdge = uint64_t(1) << 40;

TEST(Profiler, AccessStraddlingShadowPageBoundary) {
  SyntheticRun R;
  R.Tee.onLoopEnter(SyntheticRun::Loop);
  R.Tee.onLoopIter(SyntheticRun::Loop, 0);
  R.Tee.onStore(1, PageEdge - 2, 4);
  R.Tee.onLoad(2, PageEdge - 1, 2); // covered on both sides of the edge
  R.Tee.onLoopIter(SyntheticRun::Loop, 1);
  R.Tee.onLoad(3, PageEdge - 4, 8); // half fresh, half last iteration's
  R.Tee.onStore(4, PageEdge - 2, 4);
  R.Tee.onLoopExit(SyntheticRun::Loop);
  R.Tee.onLoad(5, PageEdge + 1, 1);
  LoopDepGraph G = R.finish();
  EXPECT_TRUE(G.hasEdge(1, 2, DepKind::Flow, /*Carried=*/false));
  EXPECT_TRUE(G.hasEdge(1, 3, DepKind::Flow, /*Carried=*/true));
  EXPECT_TRUE(G.hasEdge(1, 4, DepKind::Output, /*Carried=*/true));
  EXPECT_TRUE(G.hasEdge(2, 4, DepKind::Anti, /*Carried=*/true));
  EXPECT_TRUE(G.hasEdge(3, 4, DepKind::Anti, /*Carried=*/false));
  EXPECT_EQ(G.UpwardsExposedLoads, std::set<AccessId>{3});
  EXPECT_EQ(G.DownwardsExposedStores, std::set<AccessId>{4});
}

TEST(Profiler, HalfWordStoreForcesPerByteWalk) {
  SyntheticRun R;
  uint64_t Word = PageEdge + 64;
  R.Tee.onLoopEnter(SyntheticRun::Loop);
  R.Tee.onLoopIter(SyntheticRun::Loop, 0);
  R.Tee.onStore(1, Word, 8);
  R.Tee.onLoopIter(SyntheticRun::Loop, 1);
  R.Tee.onStore(2, Word, 4); // the word's bytes now disagree
  R.Tee.onLoad(3, Word, 8);
  R.Tee.onLoopExit(SyntheticRun::Loop);
  LoopDepGraph G = R.finish();
  EXPECT_TRUE(G.hasEdge(2, 3, DepKind::Flow, /*Carried=*/false));
  EXPECT_TRUE(G.hasEdge(1, 3, DepKind::Flow, /*Carried=*/true));
  EXPECT_TRUE(G.hasEdge(1, 2, DepKind::Output, /*Carried=*/true));
  EXPECT_EQ(G.Edges.size(), 3u) << G.str();
  EXPECT_TRUE(G.UpwardsExposedLoads.empty());
}

TEST(Profiler, ReaderSlotsOverflowDropsLaterReaders) {
  SyntheticRun R;
  uint64_t Addr = PageEdge + 128;
  R.Tee.onLoopEnter(SyntheticRun::Loop);
  R.Tee.onLoopIter(SyntheticRun::Loop, 0);
  R.Tee.onStore(1, Addr, 4);
  R.Tee.onLoopIter(SyntheticRun::Loop, 1);
  for (AccessId Reader = 2; Reader != 8; ++Reader) // six distinct readers
    R.Tee.onLoad(Reader, Addr, 4);
  R.Tee.onLoopIter(SyntheticRun::Loop, 2);
  R.Tee.onStore(8, Addr, 4);
  R.Tee.onLoopExit(SyntheticRun::Loop);
  LoopDepGraph G = R.finish();
  // Only the first four readers fit a cell; the later two leave no anti
  // edge, exactly as in the byte-map profiler.
  for (AccessId Reader = 2; Reader != 6; ++Reader)
    EXPECT_TRUE(G.hasEdge(Reader, 8, DepKind::Anti, /*Carried=*/true))
        << Reader;
  EXPECT_FALSE(G.hasEdge(6, 8, DepKind::Anti, /*Carried=*/true));
  EXPECT_FALSE(G.hasEdge(7, 8, DepKind::Anti, /*Carried=*/true));
}

TEST(Profiler, StoreAfterLoopHidesInLoopStore) {
  SyntheticRun R;
  uint64_t Addr = PageEdge + 256;
  R.Tee.onLoopEnter(SyntheticRun::Loop);
  R.Tee.onLoopIter(SyntheticRun::Loop, 0);
  R.Tee.onStore(1, Addr, 4);
  R.Tee.onStore(2, Addr + 4, 4);
  R.Tee.onLoopExit(SyntheticRun::Loop);
  R.Tee.onStore(3, Addr, 4); // overwrites store 1's bytes outside the loop
  R.Tee.onLoad(4, Addr, 8);
  LoopDepGraph G = R.finish();
  EXPECT_EQ(G.DownwardsExposedStores, std::set<AccessId>{2});
}

/// True when some loop-carried edge touches an access whose location is not
/// a plain variable, i.e. one through a pointer into the heap.
bool hasCarriedHeapEdge(const ProfiledProgram &P) {
  for (const DepEdge &E : P.Graph.Edges)
    if (E.Carried && (!isa<VarRefExpr>(P.Numbering.access(E.Src).location()) ||
                      !isa<VarRefExpr>(P.Numbering.access(E.Dst).location())))
      return true;
  return false;
}

ProfiledProgram profileCandidateAgainstReference(const std::string &Src) {
  ProfiledProgram P = profileCandidate(Src);
  profileAgainstReference(*P.M, P.TargetLoopId, "test program");
  return P;
}

TEST(Profiler, ReallocAndAddressReuseCreateNoCarriedDeps) {
  ProfiledProgram P = profileCandidateAgainstReference(R"(
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 12; i++) {
        int* a = malloc(4 * sizeof(int));
        a[0] = i;
        a = realloc(a, 64 * sizeof(int));
        a[40] = a[0] + 1;
        acc ^= a[40];
        free(a);
        int* b = malloc(64 * sizeof(int));
        b[40] = acc;
        acc ^= b[40];
        free(b);
        int* big = malloc(20000 * sizeof(int)); // spans whole shadow pages
        big[12345] = i;
        acc ^= big[12345];
        free(big);
      }
      print_int(acc);
      return 0;
    }
  )");
  EXPECT_FALSE(hasCarriedHeapEdge(P)) << P.Graph.str();
  EXPECT_TRUE(P.Graph.HasUnmodeled); // realloc's copy is a bulk access
}

TEST(Profiler, CallocOfManyPagesInsideLoop) {
  ProfiledProgram P = profileCandidateAgainstReference(R"(
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 4; i++) {
        int* big = calloc(20000, sizeof(int));
        big[0] = i;
        big[19999] = big[0] + big[10000];
        acc ^= big[19999];
        free(big);
      }
      print_int(acc);
      return 0;
    }
  )");
  EXPECT_FALSE(hasCarriedHeapEdge(P)) << P.Graph.str();
  EXPECT_FALSE(P.Graph.HasUnmodeled);
}

} // namespace
