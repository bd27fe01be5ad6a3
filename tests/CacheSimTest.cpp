//===- CacheSimTest.cpp - Cache simulator against a reference model -------===//
//
// CacheSim keeps its sets in a lazily mapped array with per-set epochs and
// an MRU fast path. The reference here is the textbook model instead: each
// set is a recency-ordered list of lines, a hit moves its line to the front,
// a fill pushes to the front and evicts from the back. Seeded random and
// strided streams must give the same latency on every access and the same
// per-level hits and misses, on the paper's machines, a direct-mapped
// hierarchy, one whose set counts are not powers of two (both models round
// them down) and one with no cache, across many reset()s and across the
// epoch counter's wraparound. So must the CacheSim::Cursor fast path the
// evaluator uses.
//
//===----------------------------------------------------------------------===//

#include "src/machine/CacheSim.h"
#include "src/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>

namespace locus {
namespace {

using machine::CacheLevelConfig;
using machine::CacheSim;
using machine::MachineConfig;

class ReferenceHierarchy {
public:
  explicit ReferenceHierarchy(const MachineConfig &M)
      : MemLatency(M.MemLatency) {
    for (const CacheLevelConfig &LC : M.Levels) {
      Level L;
      L.LineBytes = static_cast<uint64_t>(LC.LineBytes);
      L.Assoc = static_cast<size_t>(LC.Assoc);
      L.HitLatency = LC.HitLatency;
      uint64_t Sets = std::max<uint64_t>(
          1, LC.SizeBytes / L.LineBytes / static_cast<uint64_t>(LC.Assoc));
      L.NumSets = 1;
      while (L.NumSets * 2 <= Sets)
        L.NumSets *= 2;
      L.Sets.resize(L.NumSets);
      Levels.push_back(std::move(L));
    }
    Stats.resize(Levels.size());
  }

  int access(uint64_t Address) {
    int Latency = 0;
    size_t HitLevel = Levels.size();
    for (size_t I = 0; I < Levels.size(); ++I) {
      Level &L = Levels[I];
      uint64_t Line = Address / L.LineBytes;
      std::deque<uint64_t> &Set = L.Sets[Line % L.NumSets];
      Latency += L.HitLatency;
      auto It = std::find(Set.begin(), Set.end(), Line);
      if (It != Set.end()) {
        Set.erase(It);
        Set.push_front(Line);
        ++Stats[I].Hits;
        HitLevel = I;
        break;
      }
      ++Stats[I].Misses;
    }
    if (HitLevel == Levels.size())
      Latency += MemLatency;
    for (size_t I = 0; I < HitLevel; ++I) {
      Level &L = Levels[I];
      uint64_t Line = Address / L.LineBytes;
      std::deque<uint64_t> &Set = L.Sets[Line % L.NumSets];
      Set.push_front(Line);
      if (Set.size() > L.Assoc)
        Set.pop_back();
    }
    return Latency;
  }

  std::vector<machine::CacheLevelStats> Stats;

private:
  struct Level {
    uint64_t LineBytes = 64;
    size_t Assoc = 1;
    int HitLatency = 0;
    uint64_t NumSets = 1;
    std::vector<std::deque<uint64_t>> Sets;
  };
  std::vector<Level> Levels;
  int MemLatency;
};

MachineConfig directMapped() {
  MachineConfig M = MachineConfig::tiny();
  M.Levels = {CacheLevelConfig{"L1d", 512, 1, 64, 2},
              CacheLevelConfig{"L2", 4096, 1, 64, 9}};
  return M;
}

/// 12 and 96 sets, simulated as 8 and 64.
MachineConfig oddSets() {
  MachineConfig M = MachineConfig::tiny();
  M.Levels = {CacheLevelConfig{"L1d", 3 * 1024, 4, 64, 3},
              CacheLevelConfig{"L2", 36 * 1024, 6, 64, 11}};
  return M;
}

/// No cache at all: every access pays the memory latency.
MachineConfig memoryOnly() {
  MachineConfig M = MachineConfig::tiny();
  M.Levels.clear();
  return M;
}

const std::vector<std::pair<std::string, MachineConfig>> &configs() {
  static const std::vector<std::pair<std::string, MachineConfig>> C = {
      {"tiny", MachineConfig::tiny()},
      {"xeon", MachineConfig::xeonE5v3()},
      {"xeon8", MachineConfig::xeonE5v3Scaled(8)},
      {"direct", directMapped()},
      {"oddsets", oddSets()},
      {"memory-only", memoryOnly()}};
  return C;
}

using Stream = std::function<uint64_t(uint64_t)>;

/// Address streams by name; each maps the access index to an address.
std::vector<std::pair<std::string, Stream>> streams(uint64_t Seed) {
  auto R = std::make_shared<Rng>(Seed);
  return {
      {"random-1MB", [R](uint64_t) { return R->next() % (1u << 20); }},
      {"random-64MB", [R](uint64_t) { return R->next() % (64u << 20); }},
      {"hot-set",
       [R](uint64_t) { return (R->next() % 96) * 64 + R->next() % 64; }},
      {"stride-8", [](uint64_t I) { return 4096 + I * 8; }},
      {"stride-4096", [](uint64_t I) { return (I % 300) * 4096; }},
      {"stride-4160", [](uint64_t I) { return (I * 4160) % (8u << 20); }},
      {"interleaved", [](uint64_t I) {
         // Three dgemm-like streams: row, column and accumulator.
         uint64_t K = I / 3;
         switch (I % 3) {
         case 0:
           return 4096 + K * 8;
         case 1:
           return 1u << 20 | (K % 64) * 512;
         default:
           return 2u << 20 | (K / 64) * 8;
         }
       }},
  };
}

void expectSameStats(const std::vector<machine::CacheLevelStats> &Got,
                     const std::vector<machine::CacheLevelStats> &Want,
                     const std::string &Context) {
  ASSERT_EQ(Got.size(), Want.size()) << Context;
  for (size_t L = 0; L < Want.size(); ++L) {
    EXPECT_EQ(Got[L].Hits, Want[L].Hits) << Context << " L" << L;
    EXPECT_EQ(Got[L].Misses, Want[L].Misses) << Context << " L" << L;
  }
}

/// Runs \p Count accesses of \p S through both models, comparing each
/// latency and the final statistics.
void expectSameRun(CacheSim &Sim, ReferenceHierarchy &Ref, const Stream &S,
                   uint64_t Count, const std::string &Context) {
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t Address = S(I);
    int Want = Ref.access(Address);
    int Got = Sim.access(Address, I % 4 == 3);
    ASSERT_EQ(Got, Want) << Context << " access " << I << " address "
                         << Address;
  }
  expectSameStats(Sim.stats(), Ref.Stats, Context);
}

TEST(CacheSim, HitsAfterFill) {
  MachineConfig M = MachineConfig::tiny();
  CacheSim Cache(M);
  int First = Cache.access(0x1000, false);
  int Second = Cache.access(0x1000, false);
  EXPECT_GT(First, Second);
  EXPECT_EQ(Second, M.Levels[0].HitLatency);
  EXPECT_EQ(Cache.stats()[0].Hits, 1u);
  EXPECT_EQ(Cache.stats()[0].Misses, 1u);
}

TEST(CacheSim, SameLineSharesFill) {
  CacheSim Cache(MachineConfig::tiny());
  Cache.access(0x1000, false);
  int Next = Cache.access(0x1008, false); // same 64-byte line
  EXPECT_EQ(Next, MachineConfig::tiny().Levels[0].HitLatency);
}

TEST(CacheSim, CapacityEviction) {
  MachineConfig M = MachineConfig::tiny(); // 1 KB L1
  CacheSim Cache(M);
  // Touch 4 KB then re-touch the first line: must miss in L1, hit in L2.
  for (uint64_t A = 0; A < 4096; A += 64)
    Cache.access(A, false);
  uint64_t L1MissesBefore = Cache.stats()[0].Misses;
  Cache.access(0, false);
  EXPECT_EQ(Cache.stats()[0].Misses, L1MissesBefore + 1);
  EXPECT_GE(Cache.stats()[1].Hits, 1u);
}

TEST(CacheSim, ResetClearsState) {
  CacheSim Cache(MachineConfig::tiny());
  Cache.access(0x40, false);
  Cache.reset();
  EXPECT_EQ(Cache.stats()[0].Hits, 0u);
  int Latency = Cache.access(0x40, false);
  EXPECT_GT(Latency, MachineConfig::tiny().Levels[0].HitLatency);
}

TEST(CacheSim, MatchesReferenceModelOnEveryStream) {
  for (const auto &[Name, M] : configs())
    for (const auto &[StreamName, S] : streams(17)) {
      CacheSim Sim(M);
      ReferenceHierarchy Ref(M);
      expectSameRun(Sim, Ref, S, 20000, Name + "/" + StreamName);
    }
}

TEST(CacheSim, CursorMatchesAccessAndReference) {
  // The evaluator serves L1 hits from a CacheSim::Cursor. Every stream runs
  // through a cursor, through plain access() on a second simulator and
  // through the reference, with one reset() of all three halfway; each
  // latency and the statistics before the reset and at the end must agree.
  for (const auto &[Name, M] : configs())
    for (const auto &[StreamName, S] : streams(17)) {
      const std::string Context = Name + "/" + StreamName;
      const uint64_t Count = 20000, ResetAt = Count / 2 + 7;
      CacheSim Plain(M), Sim(M);
      ReferenceHierarchy Ref(M);
      auto Cur = std::make_unique<CacheSim::Cursor>(Sim);
      for (uint64_t I = 0; I < Count; ++I) {
        if (I == ResetAt) {
          Cur->writeBack();
          expectSameStats(Sim.stats(), Ref.Stats, Context + " before reset");
          expectSameStats(Plain.stats(), Ref.Stats, Context + " before reset");
          Sim.reset();
          Plain.reset();
          Ref = ReferenceHierarchy(M);
          Cur = std::make_unique<CacheSim::Cursor>(Sim);
        }
        uint64_t Address = S(I);
        int Want = Ref.access(Address);
        ASSERT_EQ(Plain.access(Address, I % 4 == 3), Want)
            << Context << " plain access " << I;
        ASSERT_EQ(Cur->access(Address), Want)
            << Context << " cursor access " << I << " address " << Address;
      }
      Cur->writeBack();
      expectSameStats(Sim.stats(), Ref.Stats, Context);
      expectSameStats(Plain.stats(), Ref.Stats, Context);
    }
}

TEST(CacheSim, ResetRunsMatchFreshReference) {
  // One simulator reused across many runs, each compared with a fresh
  // reference: nothing may leak from one epoch into the next.
  for (const auto &[Name, M] : configs()) {
    CacheSim Sim(M);
    for (int Run = 0; Run < 60; ++Run) {
      Sim.reset();
      ReferenceHierarchy Ref(M);
      auto All = streams(static_cast<uint64_t>(Run));
      const auto &[StreamName, S] = All[static_cast<size_t>(Run) % All.size()];
      expectSameRun(Sim, Ref, S, 1000 + 37 * static_cast<uint64_t>(Run),
                    Name + "/run " + std::to_string(Run) + "/" + StreamName);
    }
  }
}

TEST(CacheSim, EpochWraparoundForgetsOldSets) {
  // A set touched once and then left alone must read as empty after any
  // number of resets, including the 65536 that bring the epoch counter
  // back to the value it was written in.
  MachineConfig M = MachineConfig::tiny();
  int FullMiss = M.MemLatency;
  for (const CacheLevelConfig &L : M.Levels)
    FullMiss += L.HitLatency;
  CacheSim Sim(M);
  const uint64_t Lonely = 0x1000, Busy = 0x2040;
  for (int Run = 0; Run <= 3 * 65536 + 2; ++Run) {
    Sim.reset();
    if (Run % 65536 == 0 || Run % 65536 == 1) {
      ASSERT_EQ(Sim.access(Lonely, false), FullMiss) << "run " << Run;
    }
    ASSERT_EQ(Sim.access(Busy, false), FullMiss) << "run " << Run;
    ASSERT_EQ(Sim.access(Busy + 8, true), M.Levels[0].HitLatency)
        << "run " << Run;
  }
  // And the reference still agrees on a full stream afterwards.
  Sim.reset();
  ReferenceHierarchy Ref(M);
  expectSameRun(Sim, Ref, streams(5)[0].second, 5000, "after wraparound");
}

} // namespace
} // namespace locus
