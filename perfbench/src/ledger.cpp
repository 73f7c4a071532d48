// The per-layer ledger. Replays a workload's single-thread op stream through
// stacked tiers built only from the layers' public constructors and calls,
// bottom up:
//   RandomizedPartition  twelve per-class partitions over one MmapRegion
//   DieHardHeap          adds size routing and the LargeObjectManager
//   ShardedHeap          K=0: shard routing, sidecars, overflow, sweeper
//   ThreadCache          the ShardedHeap the shim builds by default (K=32)
// (the shim tier itself runs in pb_load under LD_PRELOAD). A layer's self
// cost is its tier's per-op cost minus the tier below's on the same stream.
// Two multi-threaded runs of the whole workload then time what only
// concurrency exercises: remote frees and explicit sidecar drains at K=0,
// cache flushes and sweeper passes with the shim's defaults.
//
//   pb_ledger <workload> <seed> <reps> <spans.csv|->
//
// Prints one JSON object line per tier and repetition, then one per
// multi-threaded run.
#include "Trace.h"
#include "Workloads.h"

#include "core/DieHardHeap.h"
#include "core/RandomizedPartition.h"
#include "core/ShardedHeap.h"
#include "core/SizeClass.h"
#include "support/MmapRegion.h"

#include <cstdlib>
#include <memory>

#include <sys/mman.h>
#include <unistd.h>

using namespace pb;
using diehard::DieHardHeap;
using diehard::DieHardOptions;
using diehard::MmapRegion;
using diehard::RandomizedPartition;
using diehard::ShardedHeap;
using diehard::ShardedHeapOptions;
using diehard::SizeClass;

namespace {

constexpr int NumClasses = SizeClass::NumClasses;

/// Tier 1: one RandomizedPartition per size class over an MmapRegion with
/// DieHardHeap's default geometry. Large requests, which no partition
/// serves, go to the C library; realloc is allocate, copy, free.
struct PartitionTier {
  size_t PartSize;
  MmapRegion Region;
  RandomizedPartition Parts[NumClasses];
  double AnalyticProbes = 0;
  uint64_t SmallAllocs = 0;

  explicit PartitionTier(uint64_t Seed)
      : PartSize(partitionBytes()), Region(PartSize * NumClasses) {
    char *Base = static_cast<char *>(Region.base());
    for (int C = 0; C < NumClasses; ++C) {
      size_t Bytes = SizeClass::classToSize(C);
      Parts[C].init(Base + size_t(C) * PartSize, Bytes, PartSize / Bytes,
                    DieHardOptions().M, mix64(Seed + uint64_t(C)), false,
                    false);
    }
  }
  static size_t partitionBytes() {
    size_t S = DieHardOptions().HeapSize / NumClasses;
    return S - S % SizeClass::MaxObjectSize;
  }

  /// Accumulates the analytic expected probe count 1/(1-f) at the fill f
  /// the next allocation sees.
  void before(size_t S) {
    if (!SizeClass::isSmall(S))
      return;
    const RandomizedPartition &P = Parts[SizeClass::sizeToClass(S)];
    AnalyticProbes +=
        1.0 / (1.0 - static_cast<double>(P.live()) /
                         static_cast<double>(P.slots()));
    ++SmallAllocs;
  }
  bool isRemote(void *) const { return false; }
  void *alloc(size_t S) {
    return SizeClass::isSmall(S) ? Parts[SizeClass::sizeToClass(S)].allocate()
                                 : std::malloc(S);
  }
  int classOf(void *P) const {
    if (!Region.contains(P))
      return -1;
    return static_cast<int>((static_cast<char *>(P) -
                             static_cast<char *>(Region.base())) /
                            PartSize);
  }
  void release(void *P) {
    int C = classOf(P);
    if (C < 0)
      std::free(P);
    else
      Parts[C].deallocate(P);
  }
  void *grow(void *P, size_t Old, size_t New) {
    void *Q = alloc(New);
    if (Q == nullptr)
      return nullptr;
    int C = classOf(P);
    size_t Usable = C < 0 ? Old : SizeClass::classToSize(C);
    std::memcpy(Q, P, std::min(Usable, New));
    release(P);
    return Q;
  }
  uint64_t probes() const {
    uint64_t N = 0;
    for (const RandomizedPartition &P : Parts)
      N += P.stats().Probes;
    return N;
  }
  uint64_t allocations() const {
    uint64_t N = 0;
    for (const RandomizedPartition &P : Parts)
      N += P.stats().Allocations;
    return N;
  }
  /// Resident KB of the partitions' region (pages the stream touched).
  uint64_t touchedKb() const {
    size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    size_t Pages = (Region.size() + Page - 1) / Page;
    std::vector<unsigned char> Vec(Pages);
    if (::mincore(Region.base(), Region.size(), Vec.data()) != 0)
      return 0;
    uint64_t Resident = 0;
    for (unsigned char V : Vec)
      Resident += V & 1;
    return Resident * Page / 1024;
  }
};

/// Tier 2: DieHardHeap.
struct HeapTier {
  DieHardHeap H;
  explicit HeapTier(uint64_t Seed) : H(options(Seed)) {}
  static DieHardOptions options(uint64_t Seed) {
    DieHardOptions O;
    O.Seed = Seed;
    return O;
  }
  void before(size_t) {}
  bool isRemote(void *) const { return false; }
  void *alloc(size_t S) { return H.allocate(S); }
  void release(void *P) { H.deallocate(P); }
  void *grow(void *P, size_t, size_t New) { return H.reallocate(P, New); }
};

/// The options the shim builds its heap from when no DIEHARD_* variable is
/// set except those the workload's run sets (see run.py).
ShardedHeapOptions shimOptions(uint64_t Seed, Workload W) {
  ShardedHeapOptions O;
  O.Heap.Seed = Seed;
  O.ThreadCacheSlots = 32;
  O.Sweeper = W == Workload::Phases;
  O.Heap.Meshing = W == Workload::Phases;
  return O;
}

/// Tiers 3 and 4: ShardedHeap at K=0 or with the shim's options. A free is
/// remote when another shard than the caller's home shard owns it.
struct ShardedTier {
  ShardedHeap H;
  explicit ShardedTier(const ShardedHeapOptions &O) : H(O) {}
  void before(size_t) {}
  bool isRemote(void *P) const {
    size_t S = H.shardIndexOf(P);
    return S < H.numShards() && S != H.homeShardIndex();
  }
  void *alloc(size_t S) { return H.allocate(S); }
  void release(void *P) { H.deallocate(P); }
  void *grow(void *P, size_t, size_t New) { return H.reallocate(P, New); }
};

/// The shim's options with the thread cache off, so the ThreadCache tier
/// differs from this one by the cache alone; on phases the sweeper and the
/// meshable backing count toward ShardedHeap.
ShardedHeapOptions kZero(uint64_t Seed, Workload W) {
  ShardedHeapOptions O = shimOptions(Seed, W);
  O.ThreadCacheSlots = 0;
  return O;
}

struct Timing {
  std::vector<uint64_t> Ns;
  std::vector<uint64_t> Work;
  double mean() const {
    if (Ns.empty())
      return 0;
    double S = 0;
    for (uint64_t V : Ns)
      S += static_cast<double>(V);
    return S / static_cast<double>(Ns.size());
  }
  uint64_t work() const {
    uint64_t S = 0;
    for (uint64_t V : Work)
      S += V;
    return S;
  }
};

/// Traced replay of the single-thread stream through one fresh tier.
template <class Tier, class Extra>
void replayTier(const char *Name, int Rep, const Params &P, uint64_t Seed,
                Tier &T, double TimerNs, const char *SpansPath, Extra AddExtra) {
  NullEnv Null;
  Tally Expect = replaySingle(Null, P, Seed, [] {});
  SpanLog Log(Expect.ops());
  TracedEnv<Tier> E{&T, &Log};
  uint64_t F0 = minorFaults();
  uint64_t W0 = nowNs();
  Tally Got = replaySingle(E, P, Seed, [] {});
  uint64_t W1 = nowNs();
  uint64_t Faults = minorFaults() - F0;
  JsonLine J;
  J.str("tier", Name).u64("rep", static_cast<uint64_t>(Rep));
  summarizeSpans(Log, TimerNs, J);
  J.num("wall_ns_per_op",
        static_cast<double>(W1 - W0) / static_cast<double>(Got.ops()))
      .u64("faults", Faults)
      .u64("oracle_expected", Expect.Expected)
      .u64("mallocs", Got.Mallocs)
      .u64("frees", Got.Frees)
      .u64("reallocs", Got.Reallocs)
      .u64("ops", Got.ops())
      .u64("failed", Got.Failed)
      .u64("bad_tags", Got.BadTags)
      .u64("expected", Got.Expected)
      .u64("observed", Got.Observed);
  AddExtra(J);
  std::printf("%s\n", J.done().c_str());
  std::fflush(stdout);
  if (Rep == 0 && std::strcmp(SpansPath, "-") != 0)
    writeSpans(SpansPath, Name, Rep, Log);
}

/// Traced multi-threaded run of the whole workload through a ShardedHeap.
/// \p Periodic runs on each worker before every 4096th allocation and
/// \p Idle during the phases idle phase.
template <class PeriodicFn, class IdleFn>
void runMt(const char *Name, const Params &P, uint64_t Seed,
           const ShardedHeapOptions &O, double TimerNs, PeriodicFn Periodic,
           IdleFn Idle) {
  ShardedTier T(O);
  std::vector<std::unique_ptr<SpanLog>> Logs;
  for (unsigned I = 0; I < P.Threads; ++I)
    Logs.push_back(std::make_unique<SpanLog>(0));
  std::vector<Timing> Flush(P.Threads), Drain(P.Threads);

  struct MtEnv : TracedEnv<ShardedTier> {
    PeriodicFn *Hook;
    Timing *Drains;
    uint32_t N = 0;
    void *alloc(size_t S, uint64_t Op) {
      if (++N % 4096 == 0)
        (*Hook)(*B, *Drains);
      return TracedEnv<ShardedTier>::alloc(S, Op);
    }
  };

  std::vector<Tally> Tallies;
  Timing Sweeps;
  RunTimes Times = runThreads<MtEnv>(
      P, Seed,
      [&](unsigned Th) {
        MtEnv E;
        E.B = &T;
        E.Log = Logs[Th].get();
        E.Hook = &Periodic;
        E.Drains = &Drain[Th];
        return E;
      },
      Tallies, [&] { Idle(T, Sweeps); },
      [&](unsigned Th, MtEnv &) {
        uint64_t T0 = nowNs();
        T.H.flushThreadCache();
        Flush[Th].Ns.push_back(nowNs() - T0);
      });
  Tally Total;
  Timing Flushes, Drains;
  double RemoteSum = 0;
  uint64_t Remote = 0;
  for (unsigned I = 0; I < P.Threads; ++I) {
    Total.add(Tallies[I]);
    Flushes.Ns.insert(Flushes.Ns.end(), Flush[I].Ns.begin(), Flush[I].Ns.end());
    Drains.Ns.insert(Drains.Ns.end(), Drain[I].Ns.begin(), Drain[I].Ns.end());
    Drains.Work.insert(Drains.Work.end(), Drain[I].Work.begin(),
                       Drain[I].Work.end());
    RemoteSum += Logs[I]->meanNs(KRemoteFree) *
                 static_cast<double>(Logs[I]->count(KRemoteFree));
    Remote += Logs[I]->count(KRemoteFree);
  }
  diehard::DieHardStats S = T.H.stats();
  JsonLine J;
  J.str("tier", Name)
      .u64("ops", Total.ops())
      .u64("failed", Total.Failed)
      .u64("bad_tags", Total.BadTags)
      .u64("expected", Total.Expected)
      .u64("observed", Total.Observed)
      .u64("timed_ns", Times.TimedNs)
      .u64("remote_free_calls", Remote)
      .num("remote_free_ns",
           Remote ? RemoteSum / static_cast<double>(Remote) - TimerNs : 0)
      .u64("drain_calls", Drains.Ns.size())
      .u64("drained_entries", Drains.work())
      .num("drain_ns", Drains.mean())
      .u64("flush_calls", Flushes.Ns.size())
      .num("flush_ns", Flushes.mean())
      .u64("sweep_calls", Sweeps.Ns.size())
      .num("sweep_pass_ns", Sweeps.mean())
      .u64("remote_frees", S.RemoteFrees)
      .u64("sidecar_drains", S.SidecarDrains)
      .u64("cache_refills", S.CacheRefills)
      .u64("cache_flushes", S.CacheFlushes)
      .u64("pages_returned", S.PagesReturned)
      .u64("pages_meshed", S.PagesMeshed)
      .u64("aged_caches", S.AgedCaches)
      .u64("cached_slots_end", S.CachedSlots)
      .u64("heap_failed", S.FailedAllocations)
      .u64("heap_ignored_frees", S.IgnoredFrees);
  std::printf("%s\n", J.done().c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Workload W;
  if (Argc != 5 || !parseWorkload(Argv[1], W)) {
    std::fprintf(stderr, "usage: pb_ledger <workload> <seed> <reps> "
                         "<spans.csv|->\n");
    return 2;
  }
  uint64_t Seed = std::strtoull(Argv[2], nullptr, 10);
  // The heap seed run.py passes the shim as DIEHARD_SEED for this stream.
  uint64_t HeapSeed = mix64(Seed) | 1;
  int Reps = std::atoi(Argv[3]);
  const char *Spans = Argv[4];
  Params Full = Params::of(W);
  Params P = Full.single();
  double TimerNs = timerCostNs();
  std::printf("{\"tier\": \"timer\", \"timer_ns\": %.17g}\n", TimerNs);

  auto NoExtra = [](JsonLine &) {};
  for (int Rep = 0; Rep < Reps; ++Rep) {
    {
      PartitionTier T(HeapSeed);
      replayTier("RandomizedPartition", Rep, P, Seed, T, TimerNs, Spans,
                 [&](JsonLine &J) {
                   double N = static_cast<double>(T.SmallAllocs);
                   J.num("probes_per_alloc",
                         static_cast<double>(T.probes()) /
                             static_cast<double>(T.allocations()))
                       .num("probes_analytic", N ? T.AnalyticProbes / N : 0)
                       .u64("touched_kb", T.touchedKb());
                 });
    }
    {
      HeapTier T(HeapSeed);
      replayTier("DieHardHeap", Rep, P, Seed, T, TimerNs, Spans, NoExtra);
    }
    {
      ShardedTier T(kZero(HeapSeed, W));
      replayTier("ShardedHeap", Rep, P, Seed, T, TimerNs, Spans, NoExtra);
    }
    {
      ShardedTier T(shimOptions(HeapSeed, W));
      replayTier("ThreadCache", Rep, P, Seed, T, TimerNs, Spans, NoExtra);
    }
  }

  // K=0: remote frees take the sidecar push directly; every 4096th
  // allocation of each worker first times an explicit sidecar drain.
  runMt(
      "ShardedHeap.mt", Full, Seed, kZero(HeapSeed, W), TimerNs,
      [](ShardedTier &T, Timing &D) {
        uint64_t T0 = nowNs();
        size_t N = T.H.drainRemoteFrees();
        D.Ns.push_back(nowNs() - T0);
        D.Work.push_back(N);
      },
      [](ShardedTier &, Timing &) {});
  // The shim's options with the background pass period pushed out of the
  // way: the idle phase times six synchronous sweeper passes instead.
  ShardedHeapOptions O = shimOptions(HeapSeed, W);
  O.SweepIntervalMs = 3600 * 1000;
  runMt(
      "ThreadCache.mt", Full, Seed, O, TimerNs, [](ShardedTier &, Timing &) {},
      [](ShardedTier &T, Timing &S) {
        for (int I = 0; I < 6; ++I) {
          uint64_t T0 = nowNs();
          T.H.sweepNow();
          S.Ns.push_back(nowNs() - T0);
        }
      });
  return 0;
}
