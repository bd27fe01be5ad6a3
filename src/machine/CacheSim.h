//===- CacheSim.h - Multi-level cache simulator -----------------*- C++ -*-===//
///
/// \file
/// A set-associative, LRU, multi-level cache hierarchy simulator. This is
/// the performance substrate that replaces the paper's Xeon testbed: the
/// evaluator feeds it every array access of a program variant, and the
/// returned latencies make locality transformations (tiling, interchange,
/// layout selection) measurably change a variant's cost, which is what the
/// empirical search needs.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_MACHINE_CACHESIM_H
#define LOCUS_MACHINE_CACHESIM_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace locus {
namespace machine {

/// Configuration of one cache level.
struct CacheLevelConfig {
  std::string Name;
  uint64_t SizeBytes = 32 * 1024;
  int Assoc = 8;
  int LineBytes = 64;
  int HitLatency = 4; ///< cycles
};

/// Whole-machine description.
struct MachineConfig {
  std::vector<CacheLevelConfig> Levels;
  int MemLatency = 200;          ///< cycles for a miss in the last level
  int Cores = 10;                ///< physical cores available to OpenMP
  int VectorWidthDoubles = 4;    ///< AVX2: 4 doubles
  double ArithCost = 1.0;        ///< cycles per scalar arithmetic op
  double LoopOverhead = 2.0;     ///< cycles per loop iteration (inc+branch)
  double ParallelSpawnOverhead = 3000.0; ///< cycles to fork/join a region
  double DynamicChunkOverhead = 150.0;   ///< cycles to grab one dynamic chunk

  /// The evaluation machine of the paper: 10-core Xeon E5-2660 v3
  /// (32 KB L1d, 256 KB L2 private, 25 MB L3 shared).
  static MachineConfig xeonE5v3();

  /// The Xeon with caches scaled down by \p Factor. Benchmarks use this to
  /// run the paper's experiments on reduced problem sizes while keeping the
  /// same cache-pressure regime (working set : cache ratio).
  static MachineConfig xeonE5v3Scaled(int Factor);

  /// A small machine for fast unit tests (tiny caches so locality effects
  /// show up at tiny problem sizes).
  static MachineConfig tiny();
};

/// Per-level hit/miss counters.
struct CacheLevelStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The cache hierarchy. Levels are checked in order; a miss in level i
/// consults level i+1; a miss everywhere costs MemLatency. All levels are
/// filled on the way back (inclusive hierarchy).
///
/// Storage is one anonymous mapping whose pages stay unbacked until a set
/// is first used, and reset() is O(1): every set carries the epoch it was
/// last written in, and a set from an older epoch reads as empty and is
/// cleared the first time it is touched. So a simulator is cheap to reuse
/// across runs, and its resident size follows the sets a program touches
/// rather than the modeled cache size.
class CacheSim {
public:
  explicit CacheSim(const MachineConfig &Config);
  ~CacheSim();
  CacheSim(const CacheSim &) = delete;
  CacheSim &operator=(const CacheSim &) = delete;

  /// The calling thread's simulator for \p Config's hierarchy, reset. It is
  /// reused while consecutive calls on the thread ask for the same shape and
  /// rebuilt when the shape changes; it lives until the thread exits.
  static CacheSim &forThread(const MachineConfig &Config);

  /// Simulates one access; returns its latency in cycles. An L1 hit in the
  /// set's most recently used way returns without the associative scan.
  int access(uint64_t Address, bool IsWrite) {
    (void)IsWrite; // write-allocate, write-back: same path as reads
    if (!Levels.empty()) {
      Level &L = Levels[0];
      uint64_t Line = Address >> L.LineShift;
      uint64_t Set = Line & L.SetMask;
      if (L.Epochs[Set] == Epoch) {
        uint64_t Idx = Set * L.Assoc + L.Mru[Set];
        if (L.Tags[Idx] == Line + 1) {
          L.Stamps[Idx] = ++Clock;
          ++Stats[0].Hits;
          return L.HitLatency;
        }
      }
    }
    return accessSlow(Address);
  }

  /// Drops all cached lines and statistics.
  void reset();

  const std::vector<CacheLevelStats> &stats() const { return Stats; }

private:
  /// One level's geometry and its views into the mapping.
  struct Level {
    int LineShift = 6;
    uint64_t SetMask = 0; ///< NumSets - 1; NumSets is a power of two
    uint64_t Assoc = 8;
    int HitLatency = 4;
    /// Tags, NumSets x Assoc; 0 means empty (tag values are offset by 1).
    uint64_t *Tags = nullptr;
    /// LRU stamps parallel to Tags.
    uint64_t *Stamps = nullptr;
    /// Per set: the epoch its ways were last valid in.
    uint16_t *Epochs = nullptr;
    /// Per set: the way hit or filled last.
    uint32_t *Mru = nullptr;

    bool sameShape(const Level &O) const {
      return LineShift == O.LineShift && SetMask == O.SetMask &&
             Assoc == O.Assoc && HitLatency == O.HitLatency;
    }
  };

  static std::vector<Level> geometry(const MachineConfig &Config);
  bool models(const MachineConfig &Config) const;
  int accessSlow(uint64_t Address);

  std::vector<Level> Levels;
  std::vector<CacheLevelStats> Stats;
  int MemLatency;
  uint64_t Clock = 0;
  /// Starts at 1 so the zero pages of a fresh mapping read as stale.
  uint16_t Epoch = 1;
  void *Map = nullptr;
  size_t MapBytes = 0;
};

} // namespace machine
} // namespace locus

#endif // LOCUS_MACHINE_CACHESIM_H
