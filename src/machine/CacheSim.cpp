//===- CacheSim.cpp - Multi-level cache simulator ----------------------------===//

#include "src/machine/CacheSim.h"

#include <algorithm>
#include <memory>
#include <new>

#include <sys/mman.h>

namespace locus {
namespace machine {

MachineConfig MachineConfig::xeonE5v3() {
  MachineConfig M;
  M.Levels = {
      CacheLevelConfig{"L1d", 32 * 1024, 8, 64, 4},
      CacheLevelConfig{"L2", 256 * 1024, 8, 64, 12},
      CacheLevelConfig{"L3", 25 * 1024 * 1024, 20, 64, 36},
  };
  M.MemLatency = 220;
  M.Cores = 10;
  M.VectorWidthDoubles = 4;
  return M;
}

MachineConfig MachineConfig::xeonE5v3Scaled(int Factor) {
  MachineConfig M = xeonE5v3();
  for (CacheLevelConfig &L : M.Levels) {
    L.SizeBytes = std::max<uint64_t>(512, L.SizeBytes / static_cast<uint64_t>(Factor));
    L.Assoc = std::max(2, L.Assoc / 2);
  }
  return M;
}

MachineConfig MachineConfig::tiny() {
  MachineConfig M;
  M.Levels = {
      CacheLevelConfig{"L1d", 1024, 2, 64, 2},
      CacheLevelConfig{"L2", 8 * 1024, 4, 64, 10},
  };
  M.MemLatency = 100;
  M.Cores = 4;
  M.VectorWidthDoubles = 4;
  M.ParallelSpawnOverhead = 500.0;
  return M;
}

namespace {

int log2Floor(uint64_t X) {
  int L = 0;
  while (X > 1) {
    X >>= 1;
    ++L;
  }
  return L;
}

size_t alignUp(size_t X) { return (X + 63) & ~size_t(63); }

} // namespace

std::vector<CacheSim::Level> CacheSim::geometry(const MachineConfig &Config) {
  std::vector<Level> Out;
  for (const CacheLevelConfig &LC : Config.Levels) {
    Level L;
    L.LineShift = log2Floor(static_cast<uint64_t>(LC.LineBytes));
    uint64_t Lines = LC.SizeBytes / static_cast<uint64_t>(LC.LineBytes);
    uint64_t Sets = Lines / static_cast<uint64_t>(LC.Assoc);
    if (Sets == 0)
      Sets = 1;
    // Round down to a power of two for cheap indexing.
    uint64_t Pow2 = 1;
    while (Pow2 * 2 <= Sets)
      Pow2 *= 2;
    L.SetMask = Pow2 - 1;
    L.Assoc = static_cast<uint64_t>(LC.Assoc);
    L.HitLatency = LC.HitLatency;
    Out.push_back(L);
  }
  return Out;
}

CacheSim::CacheSim(const MachineConfig &Config)
    : Levels(geometry(Config)), Stats(Levels.size()),
      MemLatency(Config.MemLatency) {
  // One private anonymous mapping holds every level's arrays. Its pages read
  // as zero (epoch 0: stale) and take no memory until a set is first used.
  std::vector<size_t> Offsets;
  for (const Level &L : Levels) {
    size_t Sets = L.SetMask + 1, Ways = Sets * L.Assoc;
    Offsets.push_back(MapBytes);
    MapBytes += alignUp(Ways * sizeof(uint64_t)) * 2 +
                alignUp(Sets * sizeof(uint16_t)) +
                alignUp(Sets * sizeof(uint32_t));
  }
  if (MapBytes == 0)
    return;
  Map = mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Map == MAP_FAILED)
    throw std::bad_alloc();
  for (size_t I = 0; I < Levels.size(); ++I) {
    Level &L = Levels[I];
    size_t Sets = L.SetMask + 1, Ways = Sets * L.Assoc;
    char *P = static_cast<char *>(Map) + Offsets[I];
    L.Tags = reinterpret_cast<uint64_t *>(P);
    P += alignUp(Ways * sizeof(uint64_t));
    L.Stamps = reinterpret_cast<uint64_t *>(P);
    P += alignUp(Ways * sizeof(uint64_t));
    L.Epochs = reinterpret_cast<uint16_t *>(P);
    P += alignUp(Sets * sizeof(uint16_t));
    L.Mru = reinterpret_cast<uint32_t *>(P);
  }
}

CacheSim::~CacheSim() {
  if (Map)
    munmap(Map, MapBytes);
}

bool CacheSim::models(const MachineConfig &Config) const {
  std::vector<Level> Want = geometry(Config);
  if (MemLatency != Config.MemLatency || Want.size() != Levels.size())
    return false;
  for (size_t I = 0; I < Want.size(); ++I)
    if (!Levels[I].sameShape(Want[I]))
      return false;
  return true;
}

CacheSim &CacheSim::forThread(const MachineConfig &Config) {
  thread_local std::unique_ptr<CacheSim> Sim;
  if (Sim && Sim->models(Config))
    Sim->reset();
  else
    Sim = std::make_unique<CacheSim>(Config);
  return *Sim;
}

int CacheSim::accessSlow(uint64_t Address) {
  ++Clock;
  int Latency = 0;
  size_t HitLevel = Levels.size();
  for (size_t I = 0; I < Levels.size(); ++I) {
    Level &L = Levels[I];
    uint64_t Line = Address >> L.LineShift;
    uint64_t Set = Line & L.SetMask;
    uint64_t Tag = Line + 1; // offset so 0 means empty
    uint64_t *Tags = L.Tags + Set * L.Assoc;
    Latency += L.HitLatency;
    if (L.Epochs[Set] != Epoch) {
      // Stale since the last reset: empty, so this is a miss.
      std::fill_n(Tags, L.Assoc, 0);
      L.Epochs[Set] = Epoch;
      L.Mru[Set] = 0;
    } else {
      uint64_t W = 0;
      while (W < L.Assoc && Tags[W] != Tag)
        ++W;
      if (W < L.Assoc) {
        L.Stamps[Set * L.Assoc + W] = Clock;
        L.Mru[Set] = static_cast<uint32_t>(W);
        ++Stats[I].Hits;
        HitLevel = I;
        break;
      }
    }
    ++Stats[I].Misses;
  }
  if (HitLevel == Levels.size())
    Latency += MemLatency;

  // Fill all levels above (and including) the miss point.
  for (size_t I = 0; I < HitLevel; ++I) {
    Level &L = Levels[I];
    uint64_t Line = Address >> L.LineShift;
    uint64_t Set = Line & L.SetMask;
    uint64_t BaseIdx = Set * L.Assoc;
    // Find an empty way or the LRU victim.
    uint64_t VictimIdx = BaseIdx;
    uint64_t OldestStamp = ~0ULL;
    for (uint64_t W = 0; W < L.Assoc; ++W) {
      uint64_t Idx = BaseIdx + W;
      if (L.Tags[Idx] == 0) {
        VictimIdx = Idx;
        break;
      }
      if (L.Stamps[Idx] < OldestStamp) {
        OldestStamp = L.Stamps[Idx];
        VictimIdx = Idx;
      }
    }
    L.Tags[VictimIdx] = Line + 1;
    L.Stamps[VictimIdx] = Clock;
    L.Mru[Set] = static_cast<uint32_t>(VictimIdx - BaseIdx);
  }
  return Latency;
}

void CacheSim::reset() {
  for (CacheLevelStats &S : Stats)
    S = CacheLevelStats{};
  Clock = 0;
  if (++Epoch != 0)
    return;
  // The epoch wrapped: sets last written 65536 resets ago would look
  // current, so mark every set stale explicitly once.
  for (Level &L : Levels)
    std::fill_n(L.Epochs, L.SetMask + 1, 0);
  Epoch = 1;
}

} // namespace machine
} // namespace locus
