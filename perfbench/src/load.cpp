// Load generator. Links no DieHard code: it calls malloc/free/realloc, and
// the run script puts libdiehard.so under it with LD_PRELOAD.
//
//   pb_load run <workload> <seed> <spawn_ns>     one timed trial, 4 threads
//   pb_load replay <workload> <seed> <traced> <spans.csv|->
//                                                the ledger's shim tier
//   pb_load oracle <workload> <seed>             checksum with no allocator
//   pb_load selftest                             histogram error bound
//
// Each mode prints one JSON object line on stdout.
#include "Trace.h"
#include "Workloads.h"

#include <cstdlib>

#include <dlfcn.h>
#include <fcntl.h>
#include <unistd.h>

using namespace pb;

namespace {

/// Resident set in KB from /proc/self/statm, read without allocating.
uint64_t residentKb() {
  int Fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return 0;
  char Buf[128] = {};
  ssize_t N = ::read(Fd, Buf, sizeof(Buf) - 1);
  ::close(Fd);
  if (N <= 0)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  if (std::sscanf(Buf, "%llu %llu", &Size, &Resident) != 2)
    return 0;
  return Resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)) / 1024;
}

/// A size_t-returning shim hook, or null when the allocator lacks it.
using Hook = size_t (*)();
Hook hook(const char *Name) {
  return reinterpret_cast<Hook>(::dlsym(RTLD_DEFAULT, Name));
}

/// Times one call in SampleEvery into per-thread histograms.
constexpr uint32_t SampleEvery = 16;

struct SampledEnv {
  static constexpr bool Touch = true;
  Histogram *Mal = nullptr, *Fre = nullptr;
  uint32_t MTick = 0, FTick = 0; // per kind: server alternates free, malloc

  void *alloc(size_t S, uint64_t) {
    if (++MTick % SampleEvery != 0)
      return std::malloc(S);
    uint64_t T0 = nowNs();
    void *P = std::malloc(S);
    Mal->record(nowNs() - T0);
    return P;
  }
  void release(void *P, size_t, uint64_t) {
    if (++FTick % SampleEvery != 0)
      return std::free(P);
    uint64_t T0 = nowNs();
    std::free(P);
    Fre->record(nowNs() - T0);
  }
  void *grow(void *P, size_t, size_t New, uint64_t) {
    if (++MTick % SampleEvery != 0)
      return std::realloc(P, New);
    uint64_t T0 = nowNs();
    void *Q = std::realloc(P, New);
    Mal->record(nowNs() - T0);
    return Q;
  }
};

struct LibcBackend {
  void before(size_t) {}
  bool isRemote(void *) const { return false; }
  void *alloc(size_t S) { return std::malloc(S); }
  void release(void *P) { std::free(P); }
  void *grow(void *P, size_t, size_t New) { return std::realloc(P, New); }
};

void tallyJson(const Tally &T, JsonLine &J) {
  J.u64("mallocs", T.Mallocs)
      .u64("frees", T.Frees)
      .u64("reallocs", T.Reallocs)
      .u64("ops", T.ops())
      .u64("failed", T.Failed)
      .u64("bad_tags", T.BadTags)
      .u64("expected", T.Expected)
      .u64("observed", T.Observed);
}

/// Waits, on the idle phases workers' behalf, for three sweeper passes (a
/// quiet cache ages on the second pass after its last operation; the third
/// covers a pass already under way), then reads the idle heap.
void idlePhase(uint64_t &IdleRssKb, uint64_t &IdlePasses) {
  Hook Passes = hook("diehard_sweep_passes");
  if (Passes == nullptr) {
    ::usleep(400000);
  } else {
    size_t Start = Passes();
    uint64_t Deadline = nowNs() + 5000000000ULL;
    while (Passes() < Start + 3 && nowNs() < Deadline)
      ::usleep(2000);
    IdlePasses = Passes() - Start;
  }
  IdleRssKb = residentKb();
}

int runTrial(const Params &P, uint64_t Seed, uint64_t SpawnNs) {
  // The process's first workload operation: loader, shim and heap set-up
  // are behind us once it returns.
  uint64_t F0 = nowNs();
  void *First = std::malloc(64);
  uint64_t FirstOpNs = nowNs();
  std::free(First);

  std::vector<Histogram> Mal(P.Threads), Fre(P.Threads);
  std::vector<Tally> Tallies;
  uint64_t IdleRssKb = 0, IdlePasses = 0, CachedIdle = 0;
  Hook Cached = hook("diehard_cached_slots");
  RunTimes Times = runThreads<SampledEnv>(
      P, Seed,
      [&](unsigned Th) {
        SampledEnv E;
        E.Mal = &Mal[Th];
        E.Fre = &Fre[Th];
        return E;
      },
      Tallies,
      [&] {
        idlePhase(IdleRssKb, IdlePasses);
        if (Cached != nullptr)
          CachedIdle = Cached();
      },
      [](unsigned, SampledEnv &) {});
  if (P.W != Workload::Phases) {
    IdleRssKb = residentKb(); // after the final drain, workers joined
    if (Cached != nullptr)
      CachedIdle = Cached();
  }

  Tally Total;
  Histogram M, F;
  for (unsigned Th = 0; Th < P.Threads; ++Th) {
    Total.add(Tallies[Th]);
    M.merge(Mal[Th]);
    F.merge(Fre[Th]);
  }
  JsonLine J;
  tallyJson(Total, J);
  J.u64("timed_ns", Times.TimedNs)
      .u64("idle_ns", Times.IdleNs)
      .u64("queue_wait_ns", Times.QueueWaitNs)
      .u64("thread_ns", Times.ThreadNs)
      .num("malloc_p50_ns", M.quantile(0.5))
      .num("malloc_p99_ns", M.quantile(0.99))
      .u64("malloc_samples", M.count())
      .num("free_p50_ns", F.quantile(0.5))
      .num("free_p99_ns", F.quantile(0.99))
      .u64("free_samples", F.count())
      .u64("idle_rss_kb", IdleRssKb)
      .u64("idle_sweeps", IdlePasses)
      .u64("cached_slots_idle", CachedIdle)
      .num("setup_ns", static_cast<double>(FirstOpNs - SpawnNs))
      .u64("first_malloc_ns", FirstOpNs - F0);
  std::printf("%s\n", J.done().c_str());
  return 0;
}

int runReplay(const Params &Full, uint64_t Seed, bool Traced,
              const char *SpansPath) {
  uint64_t F0 = nowNs();
  void *First = std::malloc(64);
  uint64_t FirstMallocNs = nowNs() - F0;
  std::free(First);

  Params P = Full.single();
  NullEnv Null;
  Tally Expect = replaySingle(Null, P, Seed, [] {});
  LibcBackend B;
  JsonLine J;
  J.str("tier", "interpose").u64("traced", Traced);
  Tally T;
  uint64_t Faults0 = minorFaults();
  uint64_t W0 = 0, W1 = 0;
  if (Traced) {
    SpanLog Log(Expect.ops()); // allocated and faulted before timing
    double Timer = timerCostNs();
    TracedEnv<LibcBackend> E{&B, &Log};
    W0 = nowNs();
    T = replaySingle(E, P, Seed, [] {});
    W1 = nowNs();
    summarizeSpans(Log, Timer, J);
    J.num("timer_ns", Timer);
    if (std::strcmp(SpansPath, "-") != 0)
      writeSpans(SpansPath, "interpose", 0, Log);
  } else {
    PlainEnv<LibcBackend> E{&B};
    W0 = nowNs();
    T = replaySingle(E, P, Seed, [] {});
    W1 = nowNs();
  }
  J.num("wall_ns_per_op",
        static_cast<double>(W1 - W0) / static_cast<double>(T.ops()))
      .u64("faults", minorFaults() - Faults0)
      .u64("first_malloc_ns", FirstMallocNs)
      .u64("oracle_expected", Expect.Expected);
  tallyJson(T, J);
  std::printf("%s\n", J.done().c_str());
  return 0;
}

int runOracle(const Params &P, uint64_t Seed) {
  JsonLine J;
  tallyJson(oracle(P, Seed), J);
  std::printf("%s\n", J.done().c_str());
  return 0;
}

/// Every value's reported bucket midpoint is within 1/128 of it.
int selfTest() {
  double Worst = 0;
  for (uint64_t V = 1; V < (uint64_t(1) << 34); V += 1 + V / 997) {
    uint64_t Low, Width;
    Histogram::bucketRange(Histogram::bucketOf(V), Low, Width);
    if (V < Low || V >= Low + Width) {
      std::printf("{\"ok\": false, \"value\": %llu}\n",
                  static_cast<unsigned long long>(V));
      return 1;
    }
    double Mid = static_cast<double>(Low) + static_cast<double>(Width - 1) / 2;
    Worst = std::max(Worst, std::abs(Mid - static_cast<double>(V)) /
                                static_cast<double>(V));
  }
  Histogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V * 100);
  JsonLine J;
  J.num("worst_relative_error", Worst)
      .num("p50", H.quantile(0.5))
      .num("p99", H.quantile(0.99))
      .raw("ok", Worst <= 1.0 / 128 ? "true" : "false");
  std::printf("%s\n", J.done().c_str());
  return Worst <= 1.0 / 128 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr, "usage: pb_load run|replay|oracle|selftest ...\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "selftest") == 0)
    return selfTest();
  Workload W;
  if (Argc < 4 || !parseWorkload(Argv[2], W))
    return usage();
  Params P = Params::of(W);
  uint64_t Seed = std::strtoull(Argv[3], nullptr, 10);
  if (std::strcmp(Argv[1], "run") == 0 && Argc == 5)
    return runTrial(P, Seed, std::strtoull(Argv[4], nullptr, 10));
  if (std::strcmp(Argv[1], "replay") == 0 && Argc == 6)
    return runReplay(P, Seed, Argv[4][0] == '1', Argv[5]);
  if (std::strcmp(Argv[1], "oracle") == 0)
    return runOracle(P, Seed);
  return usage();
}
