// Shared plumbing for the benchmark programs: a seedable RNG, the clock, the
// object tags the correctness oracle sums, a latency histogram and a tiny
// JSON line writer. Depends on nothing from the repository, so the load
// generator stays a plain libc program when it runs under LD_PRELOAD.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <time.h>

namespace pb {

inline uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// SplitMix64 stream. Every stream is derived from (seed, purpose, index)
/// so a thread's op sequence never depends on scheduling.
class Rng {
public:
  Rng(uint64_t Seed, uint64_t A = 0, uint64_t B = 0)
      : State(mix64(Seed ^ mix64(A * 0x100000001B3ULL + B))) {}
  uint64_t next() { return mix64(State += 0x9E3779B97F4A7C15ULL); }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) {
    return static_cast<uint64_t>((static_cast<__uint128_t>(next()) * N) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

inline uint64_t nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// The content tag of one object: written as the head word (and, negated,
/// the tail word) when it is allocated, read back and checked when it is
/// freed. The oracle's checksum is the sum of the tags of every object the
/// op stream allocates.
inline uint64_t objectTag(uint64_t Seed, uint64_t Thread, uint64_t Seq) {
  return mix64(Seed ^ (Thread << 56) ^ mix64(Seq)) | 1;
}

inline void writeTag(void *P, size_t Size, uint64_t Tag) {
  std::memcpy(P, &Tag, 8);
  if (Size >= 16) {
    uint64_t Tail = ~Tag;
    std::memcpy(static_cast<char *>(P) + Size - 8, &Tail, 8);
  }
}

/// True when \p P still holds \p Tag at its head and tail.
inline bool checkTag(const void *P, size_t Size, uint64_t Tag) {
  uint64_t Head;
  std::memcpy(&Head, P, 8);
  if (Head != Tag)
    return false;
  if (Size >= 16) {
    uint64_t Tail;
    std::memcpy(&Tail, static_cast<const char *>(P) + Size - 8, 8);
    return Tail == ~Tag;
  }
  return true;
}

/// Log-linear latency histogram: values below 128 ns are exact, larger ones
/// fall into 64 buckets per power of two, so a reported percentile (the
/// bucket midpoint) is within 1/128 (0.8%) of a recorded value.
class Histogram {
public:
  static constexpr int SubBits = 6;
  static constexpr uint64_t Linear = uint64_t(2) << SubBits; // 128
  static constexpr int MaxExp = 44;                          // ~4.9 hours
  static constexpr size_t NumBuckets =
      Linear + static_cast<size_t>(MaxExp - SubBits) * (size_t(1) << SubBits);

  Histogram() : Counts(NumBuckets, 0) {}

  static size_t bucketOf(uint64_t V) {
    if (V < Linear)
      return static_cast<size_t>(V);
    int E = std::bit_width(V) - 1; // >= SubBits + 1
    if (E >= MaxExp)
      return NumBuckets - 1;
    uint64_t Sub = (V >> (E - SubBits)) & ((uint64_t(1) << SubBits) - 1);
    return Linear + static_cast<size_t>(E - SubBits - 1) * (1u << SubBits) +
           static_cast<size_t>(Sub);
  }

  /// Lowest value and width of bucket \p B.
  static void bucketRange(size_t B, uint64_t &Low, uint64_t &Width) {
    if (B < Linear) {
      Low = B;
      Width = 1;
      return;
    }
    size_t Off = B - Linear;
    int E = static_cast<int>(Off >> SubBits) + SubBits + 1;
    uint64_t Sub = Off & ((size_t(1) << SubBits) - 1);
    Width = uint64_t(1) << (E - SubBits);
    Low = (uint64_t(1) << E) + Sub * Width;
  }

  void record(uint64_t V) {
    ++Counts[bucketOf(V)];
    ++Total;
  }
  void merge(const Histogram &O) {
    for (size_t I = 0; I < NumBuckets; ++I)
      Counts[I] += O.Counts[I];
    Total += O.Total;
  }
  uint64_t count() const { return Total; }

  /// The \p Q quantile (0 < Q <= 1) as a bucket midpoint; 0 when empty.
  double quantile(double Q) const {
    if (Total == 0)
      return 0;
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
    if (Rank < 1)
      Rank = 1;
    uint64_t Seen = 0;
    for (size_t B = 0; B < NumBuckets; ++B) {
      Seen += Counts[B];
      if (Seen >= Rank) {
        uint64_t Low, Width;
        bucketRange(B, Low, Width);
        return static_cast<double>(Low) + static_cast<double>(Width - 1) / 2;
      }
    }
    return 0;
  }

private:
  std::vector<uint64_t> Counts;
  uint64_t Total = 0;
};

/// Exact quantile of a sample vector (sorted in place); 0 when empty.
inline double exactQuantile(std::vector<uint32_t> &V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(V.size()));
  if (Rank >= V.size())
    Rank = V.size() - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<long>(Rank), V.end());
  return V[Rank];
}

/// Builds one flat JSON object line: {"k": v, ...}.
class JsonLine {
public:
  JsonLine &num(const char *Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return raw(Key, Buf);
  }
  JsonLine &u64(const char *Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  JsonLine &str(const char *Key, const std::string &V) {
    return raw(Key, "\"" + V + "\"");
  }
  JsonLine &raw(const char *Key, const std::string &V) {
    Text += Text.empty() ? "{" : ", ";
    Text += "\"" + std::string(Key) + "\": " + V;
    return *this;
  }
  std::string done() const { return Text + "}"; }

private:
  std::string Text;
};

} // namespace pb

#endif // PERFBENCH_COMMON_H
