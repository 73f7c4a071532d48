// The three workloads as op streams over an abstract allocator, plus the
// drivers that run them: the multi-threaded closed loop (every thread issues
// its next call when the last one returns) and the single-thread stream the
// per-layer ledger replays through each tier.
//
// A workload only ever talks to a per-thread Env:
//   void *alloc(size_t Size, uint64_t Op)
//   void release(void *P, size_t Size, uint64_t Op)
//   void *grow(void *P, size_t OldSize, size_t NewSize, uint64_t Op)
//   static constexpr bool Touch   // false: pointers are fake, never read
// Every decision comes from RNG streams keyed by (seed, thread, phase), never
// from an allocator result, so the same seed gives the same op stream under
// every allocator; the oracle replays it with a null Env.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <immintrin.h>
#include <pthread.h>

namespace pb {

enum class Workload { Server, Handoff, Phases };

inline bool parseWorkload(const std::string &Name, Workload &Out) {
  if (Name == "server")
    Out = Workload::Server;
  else if (Name == "handoff")
    Out = Workload::Handoff;
  else if (Name == "phases")
    Out = Workload::Phases;
  else
    return false;
  return true;
}

/// Fixed work of one trial. A run repeats trials, each in a fresh process,
/// until its time is up, so every per-trial figure (RSS above all, which
/// follows the number of allocations made) is independent of speed.
struct Params {
  Workload W = Workload::Server;
  unsigned Threads = 4;
  // server: larson-style churn over per-thread tables that rotate each round.
  unsigned TableSlots = 256;
  unsigned Rounds = 2;
  unsigned ReplacesPerRound = 25600; // ~1% of frees cross threads
  // handoff: producer/consumer pairs passing batches through an SPSC ring.
  unsigned Batches = 2000;
  unsigned BatchSize = 64;
  unsigned QueueDepth = 32;
  // phases: ramp, thin to 1 in KeepEvery, churn the holes, idle, free.
  unsigned RampObjects = 4000;
  unsigned ChurnSteps = 40000;
  unsigned KeepEvery = 16;

  static Params of(Workload W) {
    Params P;
    P.W = W;
    return P;
  }
  /// The same workload with one thread (the ledger's single-thread stream).
  /// Shortened so every tier's spans fit in memory and on disk.
  Params single() const {
    Params P = *this;
    P.Threads = W == Workload::Handoff ? 2 : 1;
    P.Rounds = 2;
    P.Batches = Batches / 4;
    return P;
  }
};

/// Per-thread outcome; the run's checksum and accounting fold these.
struct Tally {
  uint64_t Mallocs = 0, Frees = 0, Reallocs = 0;
  uint64_t Failed = 0;   ///< allocations that returned null
  uint64_t BadTags = 0;  ///< objects whose tag did not survive
  uint64_t Expected = 0; ///< sum of tags of objects allocated
  uint64_t Observed = 0; ///< sum of tags read back at free
  uint64_t ops() const { return Mallocs + Frees + Reallocs; }
  void add(const Tally &O) {
    Mallocs += O.Mallocs;
    Frees += O.Frees;
    Reallocs += O.Reallocs;
    Failed += O.Failed;
    BadTags += O.BadTags;
    Expected += O.Expected;
    Observed += O.Observed;
  }
};

inline uint64_t opId(unsigned Thread, uint64_t Seq) {
  return (uint64_t(Thread) << 40) | Seq;
}

/// One object the harness holds: pointer, requested size and tag.
struct Obj {
  void *P = nullptr;
  uint32_t Size = 0;
  uint64_t Tag = 0;
};

/// Allocates and tags one object into \p O (left empty on failure).
template <class E>
void makeObj(E &Env, Tally &T, Obj &O, size_t Size, uint64_t Tag, uint64_t Op) {
  void *P = Env.alloc(Size, Op);
  ++T.Mallocs;
  if (P == nullptr) {
    ++T.Failed;
    O = Obj();
    return;
  }
  if constexpr (E::Touch)
    writeTag(P, Size, Tag);
  T.Expected += Tag;
  O = {P, static_cast<uint32_t>(Size), Tag};
}

/// Checks and frees \p O, leaving it empty. No-op on an empty slot.
template <class E> void dropObj(E &Env, Tally &T, Obj &O, uint64_t Op) {
  if (O.P == nullptr)
    return;
  if constexpr (E::Touch) {
    if (!checkTag(O.P, O.Size, O.Tag))
      ++T.BadTags;
    uint64_t Head;
    std::memcpy(&Head, O.P, 8);
    T.Observed += Head;
  } else {
    T.Observed += O.Tag;
  }
  Env.release(O.P, O.Size, Op);
  ++T.Frees;
  O = Obj();
}

// --- server -----------------------------------------------------------------

struct ServerTable {
  std::vector<Obj> Slots;
};

inline size_t serverSize(Rng &R) { return 8 + R.below(1017); } // 8..1024 B

/// Thread \p Th fills its first table.
template <class E>
void serverFill(E &Env, const Params &P, uint64_t Seed, unsigned Th,
                ServerTable &Tab, uint64_t &Seq, Tally &T) {
  Rng R(Seed, 1, Th);
  Tab.Slots.assign(P.TableSlots, Obj());
  for (Obj &O : Tab.Slots) {
    makeObj(Env, T, O, serverSize(R), objectTag(Seed, Th, Seq), opId(Th, Seq));
    ++Seq;
  }
}

/// One round of thread \p Th on whichever table it holds this round.
template <class E>
void serverRound(E &Env, const Params &P, uint64_t Seed, unsigned Th,
                 unsigned Round, ServerTable &Tab, uint64_t &Seq, Tally &T) {
  Rng R(Seed, 2, (uint64_t(Th) << 32) | Round);
  for (unsigned I = 0; I < P.ReplacesPerRound; ++I) {
    Obj &O = Tab.Slots[R.below(P.TableSlots)];
    uint64_t Op = opId(Th, Seq);
    dropObj(Env, T, O, Op);
    makeObj(Env, T, O, serverSize(R), objectTag(Seed, Th, Seq), Op);
    ++Seq;
  }
}

template <class E>
void serverDrain(E &Env, unsigned Th, ServerTable &Tab, uint64_t &Seq,
                 Tally &T) {
  for (Obj &O : Tab.Slots)
    dropObj(Env, T, O, opId(Th, Seq++));
}

// --- handoff ----------------------------------------------------------------

inline size_t handoffSize(Rng &R) { return 8 + R.below(249); } // 8..256 B

/// Producer \p Pair allocates batch \p B into \p Out.
template <class E>
void handoffProduce(E &Env, const Params &P, uint64_t Seed, unsigned Pair,
                    unsigned B, Obj *Out, Tally &T) {
  Rng R(Seed, 3, (uint64_t(Pair) << 32) | B);
  for (unsigned J = 0; J < P.BatchSize; ++J) {
    uint64_t Seq = uint64_t(B) * P.BatchSize + J;
    makeObj(Env, T, Out[J], handoffSize(R), objectTag(Seed, Pair, Seq),
            opId(Pair, Seq));
  }
}

/// Consumer of pair \p Pair verifies and frees batch \p B.
template <class E>
void handoffConsume(E &Env, const Params &P, unsigned Pair, unsigned B,
                    Obj *In, Tally &T) {
  for (unsigned J = 0; J < P.BatchSize; ++J)
    dropObj(Env, T, In[J], opId(Pair, uint64_t(B) * P.BatchSize + J));
}

/// Single-producer single-consumer ring of whole batches.
class BatchRing {
public:
  BatchRing(unsigned NumBatches, unsigned BatchSize)
      : Depth(NumBatches), Batch(BatchSize),
        Slots(size_t(NumBatches) * BatchSize) {}

  /// Slot for batch \p B once the consumer has released it; spins, adding
  /// the time spent waiting to \p WaitNs.
  Obj *acquireWrite(uint64_t B, uint64_t &WaitNs) {
    if (B - Tail.load(std::memory_order_acquire) >= Depth) {
      uint64_t T0 = nowNs();
      while (B - Tail.load(std::memory_order_acquire) >= Depth)
        _mm_pause();
      WaitNs += nowNs() - T0;
    }
    return &Slots[(B % Depth) * Batch];
  }
  void publish(uint64_t B) { Head.store(B + 1, std::memory_order_release); }

  Obj *acquireRead(uint64_t B, uint64_t &WaitNs) {
    if (Head.load(std::memory_order_acquire) <= B) {
      uint64_t T0 = nowNs();
      while (Head.load(std::memory_order_acquire) <= B)
        _mm_pause();
      WaitNs += nowNs() - T0;
    }
    return &Slots[(B % Depth) * Batch];
  }
  void release(uint64_t B) { Tail.store(B + 1, std::memory_order_release); }

private:
  const uint64_t Depth, Batch;
  std::vector<Obj> Slots;
  alignas(64) std::atomic<uint64_t> Head{0};
  alignas(64) std::atomic<uint64_t> Tail{0};
};

// --- phases -----------------------------------------------------------------

/// Log-spread size from 16 B to ~20 KB: about 3% of requests pass the
/// 16 KB small-object limit and go to the large-object path.
inline size_t phasesSize(Rng &R) {
  return static_cast<size_t>(16.0 * std::exp2(R.unit() * 10.3));
}

struct PhasesState {
  std::vector<Obj> Slots;
  uint64_t Seq = 0;
};

/// Ramp to RampObjects live objects; one step in eight also grows a random
/// earlier object with realloc.
template <class E>
void phasesRamp(E &Env, const Params &P, uint64_t Seed, unsigned Th,
                PhasesState &S, Tally &T) {
  Rng R(Seed, 4, Th);
  S.Slots.assign(P.RampObjects, Obj());
  for (unsigned I = 0; I < P.RampObjects; ++I) {
    makeObj(Env, T, S.Slots[I], phasesSize(R), objectTag(Seed, Th, S.Seq),
            opId(Th, S.Seq));
    ++S.Seq;
    if (I == 0 || R.below(8) != 0)
      continue;
    Obj &G = S.Slots[R.below(I)];
    size_t NewSize = std::min<size_t>(size_t(G.Size) * 2, 64 << 10);
    if (G.P == nullptr)
      continue;
    void *Q = Env.grow(G.P, G.Size, NewSize, opId(Th, S.Seq++));
    ++T.Reallocs;
    if (Q == nullptr) {
      ++T.Failed;
      continue;
    }
    G.P = Q;
    G.Size = static_cast<uint32_t>(NewSize);
    if constexpr (E::Touch)
      writeTag(Q, NewSize, G.Tag); // re-write the tail at the new end
  }
}

/// Frees every object but one in KeepEvery.
template <class E>
void phasesThin(E &Env, const Params &P, unsigned Th, PhasesState &S,
                Tally &T) {
  for (unsigned I = 0; I < P.RampObjects; ++I)
    if (I % P.KeepEvery != 0)
      dropObj(Env, T, S.Slots[I], opId(Th, S.Seq++));
}

/// Allocates into and frees from the holes, then empties them again.
template <class E>
void phasesChurn(E &Env, const Params &P, uint64_t Seed, unsigned Th,
                 PhasesState &S, Tally &T) {
  Rng R(Seed, 5, Th);
  for (unsigned I = 0; I < P.ChurnSteps; ++I) {
    uint64_t J = R.below(P.RampObjects);
    if (J % P.KeepEvery == 0)
      ++J; // survivors stay put
    if (J >= P.RampObjects)
      J = 1;
    Obj &O = S.Slots[J];
    if (O.P == nullptr)
      makeObj(Env, T, O, phasesSize(R), objectTag(Seed, Th, S.Seq),
              opId(Th, S.Seq));
    else
      dropObj(Env, T, O, opId(Th, S.Seq));
    ++S.Seq;
  }
  phasesThin(Env, P, Th, S, T);
}

template <class E>
void phasesFinal(E &Env, unsigned Th, PhasesState &S, Tally &T) {
  for (Obj &O : S.Slots)
    dropObj(Env, T, O, opId(Th, S.Seq++));
}

// --- drivers ----------------------------------------------------------------

/// Busy-free barrier over pthreads.
class Barrier {
public:
  explicit Barrier(unsigned N) { pthread_barrier_init(&B, nullptr, N); }
  ~Barrier() { pthread_barrier_destroy(&B); }
  Barrier(const Barrier &) = delete;
  Barrier &operator=(const Barrier &) = delete;
  void wait() { pthread_barrier_wait(&B); }

private:
  pthread_barrier_t B;
};

/// What a multi-threaded run measured, beside the per-thread tallies.
struct RunTimes {
  uint64_t TimedNs = 0;     ///< wall time of the timed phases (idle excluded)
  uint64_t IdleNs = 0;      ///< phases: the idle phase
  uint64_t QueueWaitNs = 0; ///< handoff: time spent waiting on the rings
  uint64_t ThreadNs = 0;    ///< handoff: summed thread lifetimes
};

/// Runs the workload on Params::Threads threads (handoff: Threads/2 pairs),
/// each with the Env \p MakeEnv(thread) returns. \p Idle runs on the
/// calling thread while the phases workers sit idle with their survivors
/// live. \p Done(thread, env) runs on each worker before it exits, so
/// per-thread recorders can be harvested while the thread still exists.
template <class E, class MakeEnvFn, class IdleFn, class DoneFn>
RunTimes runThreads(const Params &P, uint64_t Seed, MakeEnvFn MakeEnv,
                    std::vector<Tally> &Tallies, IdleFn Idle, DoneFn Done) {
  unsigned N = P.Threads;
  Tallies.assign(N, Tally());
  RunTimes Times;
  Barrier Start(N + 1), Stop(N + 1), Resume(N + 1);
  std::vector<std::unique_ptr<BatchRing>> Rings;
  if (P.W == Workload::Handoff)
    for (unsigned I = 0; I < N / 2; ++I)
      Rings.push_back(std::make_unique<BatchRing>(P.QueueDepth, P.BatchSize));
  std::vector<ServerTable> Tables(P.W == Workload::Server ? N : 0);
  std::vector<uint64_t> WaitNs(N, 0), LifeNs(N, 0);

  auto Body = [&](unsigned Th) {
    E Env = MakeEnv(Th);
    Tally &T = Tallies[Th];
    uint64_t Seq = 0;
    PhasesState PS;
    Start.wait();
    uint64_t Born = nowNs();
    switch (P.W) {
    case Workload::Server:
      serverFill(Env, P, Seed, Th, Tables[Th], Seq, T);
      for (unsigned Rd = 0; Rd < P.Rounds; ++Rd) {
        Start.wait(); // tables rotate: round Rd uses table (Th + Rd) % N
        serverRound(Env, P, Seed, Th, Rd, Tables[(Th + Rd) % N], Seq, T);
        Stop.wait();
      }
      serverDrain(Env, Th, Tables[(Th + P.Rounds - 1) % N], Seq, T);
      break;
    case Workload::Handoff: {
      BatchRing &Ring = *Rings[Th / 2];
      unsigned Pair = Th / 2;
      for (unsigned B = 0; B < P.Batches; ++B) {
        if (Th % 2 == 0) {
          Obj *Slot = Ring.acquireWrite(B, WaitNs[Th]);
          handoffProduce(Env, P, Seed, Pair, B, Slot, T);
          Ring.publish(B);
        } else {
          Obj *Slot = Ring.acquireRead(B, WaitNs[Th]);
          handoffConsume(Env, P, Pair, B, Slot, T);
          Ring.release(B);
        }
      }
      break;
    }
    case Workload::Phases:
      phasesRamp(Env, P, Seed, Th, PS, T);
      phasesThin(Env, P, Th, PS, T);
      phasesChurn(Env, P, Seed, Th, PS, T);
      Stop.wait();   // idle: survivors stay live
      Resume.wait(); // until the caller has measured the idle heap
      phasesFinal(Env, Th, PS, T);
      break;
    }
    LifeNs[Th] = nowNs() - Born;
    Done(Th, Env);
    Stop.wait();
  };

  std::vector<std::thread> Workers;
  for (unsigned Th = 0; Th < N; ++Th)
    Workers.emplace_back(Body, Th);
  Start.wait();
  uint64_t T0 = nowNs();
  if (P.W == Workload::Server) {
    for (unsigned Rd = 0; Rd < P.Rounds; ++Rd) {
      Start.wait();
      Stop.wait();
    }
  } else if (P.W == Workload::Phases) {
    Stop.wait();
    uint64_t I0 = nowNs();
    Idle();
    Times.IdleNs = nowNs() - I0;
    Resume.wait();
  }
  Stop.wait();
  Times.TimedNs = nowNs() - T0 - Times.IdleNs;
  for (std::thread &W : Workers)
    W.join();
  for (unsigned Th = 0; Th < N; ++Th) {
    Times.QueueWaitNs += WaitNs[Th];
    Times.ThreadNs += LifeNs[Th];
  }
  return Times;
}

/// The single-thread stream of a workload, replayed on the calling thread:
/// server thread 0 on its own table, handoff pair 0 producing a batch and
/// consuming it at once, phases thread 0 with \p Idle between churn and
/// the final frees.
template <class E, class IdleFn>
Tally replaySingle(E &Env, const Params &P, uint64_t Seed, IdleFn Idle) {
  Tally T;
  uint64_t Seq = 0;
  switch (P.W) {
  case Workload::Server: {
    ServerTable Tab;
    serverFill(Env, P, Seed, 0, Tab, Seq, T);
    for (unsigned Rd = 0; Rd < P.Rounds; ++Rd)
      serverRound(Env, P, Seed, 0, Rd, Tab, Seq, T);
    serverDrain(Env, 0, Tab, Seq, T);
    break;
  }
  case Workload::Handoff: {
    std::vector<Obj> Batch(P.BatchSize);
    for (unsigned B = 0; B < P.Batches; ++B) {
      handoffProduce(Env, P, Seed, 0, B, Batch.data(), T);
      handoffConsume(Env, P, 0, B, Batch.data(), T);
    }
    break;
  }
  case Workload::Phases: {
    PhasesState PS;
    phasesRamp(Env, P, Seed, 0, PS, T);
    phasesThin(Env, P, 0, PS, T);
    phasesChurn(Env, P, Seed, 0, PS, T);
    Idle();
    phasesFinal(Env, 0, PS, T);
    break;
  }
  }
  return T;
}

/// Env with fake pointers: the oracle's allocator-free replay.
struct NullEnv {
  static constexpr bool Touch = false;
  uint64_t Next = 16;
  void *alloc(size_t, uint64_t) {
    Next += 16;
    return reinterpret_cast<void *>(Next);
  }
  void release(void *, size_t, uint64_t) {}
  void *grow(void *P, size_t, size_t, uint64_t) { return P; }
};

/// The oracle: the whole multi-threaded op stream replayed in a fixed order
/// with no allocator. Threads touch disjoint state except through the
/// server's table rotation and the handoff rings, whose order the workload
/// fixes, so this sequential order yields the same per-thread streams.
inline Tally oracle(const Params &P, uint64_t Seed) {
  NullEnv Env;
  Tally Total;
  switch (P.W) {
  case Workload::Server: {
    std::vector<ServerTable> Tables(P.Threads);
    std::vector<uint64_t> Seq(P.Threads, 0);
    for (unsigned Th = 0; Th < P.Threads; ++Th)
      serverFill(Env, P, Seed, Th, Tables[Th], Seq[Th], Total);
    for (unsigned Rd = 0; Rd < P.Rounds; ++Rd)
      for (unsigned Th = 0; Th < P.Threads; ++Th)
        serverRound(Env, P, Seed, Th, Rd, Tables[(Th + Rd) % P.Threads],
                    Seq[Th], Total);
    for (unsigned Th = 0; Th < P.Threads; ++Th)
      serverDrain(Env, Th, Tables[(Th + P.Rounds - 1) % P.Threads], Seq[Th],
                  Total);
    break;
  }
  case Workload::Handoff: {
    std::vector<Obj> Batch(P.BatchSize);
    for (unsigned Pair = 0; Pair < P.Threads / 2; ++Pair)
      for (unsigned B = 0; B < P.Batches; ++B) {
        handoffProduce(Env, P, Seed, Pair, B, Batch.data(), Total);
        handoffConsume(Env, P, Pair, B, Batch.data(), Total);
      }
    break;
  }
  case Workload::Phases:
    for (unsigned Th = 0; Th < P.Threads; ++Th) {
      PhasesState PS;
      phasesRamp(Env, P, Seed, Th, PS, Total);
      phasesThin(Env, P, Th, PS, Total);
      phasesChurn(Env, P, Seed, Th, PS, Total);
      phasesFinal(Env, Th, PS, Total);
    }
    break;
  }
  return Total;
}

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
