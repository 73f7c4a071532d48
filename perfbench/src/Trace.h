// Spans for the traced replays. One span per timed allocator call; the spans
// of one workload op (a server replace is a free plus a malloc) share its op
// id. Spans live in a preallocated, pre-faulted array, so recording neither
// allocates nor page-faults inside the replay, and are written out after it.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Common.h"

#include <sys/resource.h>

namespace pb {

enum SpanKind : uint8_t { KMalloc, KFree, KRealloc, KRemoteFree };

inline const char *kindName(uint8_t K) {
  static const char *Names[] = {"malloc", "free", "realloc", "remote_free"};
  return K < 4 ? Names[K] : "?";
}

struct Span {
  uint64_t Op = 0;
  uint64_t Start = 0;
  uint32_t Dur = 0;
  uint32_t Size = 0;
  uint8_t Kind = 0;
};

/// Fixed-capacity span store; calls beyond the capacity are not recorded.
class SpanLog {
public:
  explicit SpanLog(size_t Capacity) : Spans(Capacity) {}
  void add(const Span &S) {
    SumNs[S.Kind] += S.Dur;
    ++Count[S.Kind];
    if (Used < Spans.size())
      Spans[Used++] = S;
  }
  /// Mean span of kind \p K over every call, stored or not; 0 if none.
  double meanNs(uint8_t K) const {
    return Count[K] ? static_cast<double>(SumNs[K]) / Count[K] : 0;
  }
  uint64_t count(uint8_t K) const { return Count[K]; }
  size_t size() const { return Used; }
  const Span &operator[](size_t I) const { return Spans[I]; }

private:
  std::vector<Span> Spans;
  size_t Used = 0;
  uint64_t SumNs[4] = {};
  uint64_t Count[4] = {};
};

/// Cost of one back-to-back nowNs() pair: the floor of every span.
inline double timerCostNs() {
  std::vector<uint32_t> D(20001);
  for (uint32_t &V : D) {
    uint64_t A = nowNs();
    V = static_cast<uint32_t>(nowNs() - A);
  }
  return exactQuantile(D, 0.5);
}

inline uint64_t minorFaults() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_minflt);
}

/// Times every call of a Backend into a SpanLog. The backend's before()
/// and isRemote() run outside the span.
template <class Backend> struct TracedEnv {
  static constexpr bool Touch = true;
  Backend *B;
  SpanLog *Log;

  void *alloc(size_t S, uint64_t Op) {
    B->before(S);
    uint64_t T0 = nowNs();
    void *P = B->alloc(S);
    uint64_t T1 = nowNs();
    Log->add({Op, T0, static_cast<uint32_t>(T1 - T0),
              static_cast<uint32_t>(S), KMalloc});
    return P;
  }
  void release(void *P, size_t S, uint64_t Op) {
    uint8_t K = B->isRemote(P) ? KRemoteFree : KFree;
    uint64_t T0 = nowNs();
    B->release(P);
    uint64_t T1 = nowNs();
    Log->add({Op, T0, static_cast<uint32_t>(T1 - T0),
              static_cast<uint32_t>(S), K});
  }
  void *grow(void *P, size_t Old, size_t New, uint64_t Op) {
    B->before(New);
    uint64_t T0 = nowNs();
    void *Q = B->grow(P, Old, New);
    uint64_t T1 = nowNs();
    Log->add({Op, T0, static_cast<uint32_t>(T1 - T0),
              static_cast<uint32_t>(New), KRealloc});
    return Q;
  }
};

/// The same calls with no timing: the untraced side of the overhead ratio.
template <class Backend> struct PlainEnv {
  static constexpr bool Touch = true;
  Backend *B;
  void *alloc(size_t S, uint64_t) { return B->alloc(S); }
  void release(void *P, size_t, uint64_t) { B->release(P); }
  void *grow(void *P, size_t Old, size_t New, uint64_t) {
    return B->grow(P, Old, New);
  }
};

/// Per-kind cost summary of one traced replay, as a JSON fragment.
inline void summarizeSpans(const SpanLog &Log, double TimerNs, JsonLine &J) {
  std::vector<uint32_t> Mal, Fre;
  double Sum = 0, LargeSum = 0, ReallocSum = 0, RemoteSum = 0;
  uint64_t Large = 0, Reallocs = 0, Remote = 0;
  Mal.reserve(Log.size());
  Fre.reserve(Log.size());
  for (size_t I = 0; I < Log.size(); ++I) {
    const Span &S = Log[I];
    Sum += S.Dur;
    if (S.Size > 16384) {
      LargeSum += S.Dur;
      ++Large;
    }
    if (S.Kind == KMalloc || S.Kind == KRealloc)
      Mal.push_back(S.Dur);
    else
      Fre.push_back(S.Dur);
    if (S.Kind == KRealloc) {
      ReallocSum += S.Dur;
      ++Reallocs;
    }
    if (S.Kind == KRemoteFree) {
      RemoteSum += S.Dur;
      ++Remote;
    }
  }
  double N = Log.size() ? static_cast<double>(Log.size()) : 1;
  auto Mean = [&](double S, uint64_t C) {
    return C ? S / static_cast<double>(C) - TimerNs : 0.0;
  };
  J.u64("calls", Log.size())
      .num("ns_per_op", Sum / N - TimerNs)
      .num("malloc_p50_ns", exactQuantile(Mal, 0.5))
      .num("malloc_p99_ns", exactQuantile(Mal, 0.99))
      .num("free_p50_ns", exactQuantile(Fre, 0.5))
      .num("free_p99_ns", exactQuantile(Fre, 0.99))
      .u64("large_calls", Large)
      .num("large_ns", Mean(LargeSum, Large))
      .u64("realloc_calls", Reallocs)
      .num("realloc_ns", Mean(ReallocSum, Reallocs))
      .u64("remote_frees", Remote)
      .num("remote_free_ns", Mean(RemoteSum, Remote));
}

/// Appends the spans as CSV rows: tier,rep,op,kind,start_ns,dur_ns,size.
inline void writeSpans(const char *Path, const char *Tier, int Rep,
                       const SpanLog &Log) {
  FILE *F = std::fopen(Path, "a");
  if (F == nullptr)
    return;
  uint64_t Base = Log.size() ? Log[0].Start : 0;
  for (size_t I = 0; I < Log.size(); ++I) {
    const Span &S = Log[I];
    std::fprintf(F, "%s,%d,%llx,%s,%llu,%u,%u\n", Tier, Rep,
                 static_cast<unsigned long long>(S.Op), kindName(S.Kind),
                 static_cast<unsigned long long>(S.Start - Base), S.Dur,
                 S.Size);
  }
  std::fclose(F);
}

} // namespace pb

#endif // PERFBENCH_TRACE_H
