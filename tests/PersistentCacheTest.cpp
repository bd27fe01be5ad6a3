//===- PersistentCacheTest.cpp - Durable eval-cache tests ---------------------===//
//
// The persistent content-addressed cache: entry codec, warm starts across
// instances, graceful degradation on every store problem (the cache is
// advisory, never load-bearing), the MetricUnstable exclusion, and startup
// compaction of duplicate-heavy stores.
//
//===----------------------------------------------------------------------===//

#include "src/search/PersistentEvalCache.h"
#include "src/support/RecordLog.h"
#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

namespace locus {
namespace {

using search::CacheKey;
using search::EvalOutcome;
using search::PersistentCacheOptions;
using search::PersistentEvalCache;
using search::FailureKind;

struct CacheFixture {
  support::TempDir Dir{"locus-pcache-"};
  std::vector<std::string> Warnings;

  PersistentEvalCache make(bool ReadOnly = false) {
    PersistentCacheOptions Opts;
    Opts.Dir = Dir.path() + "/cache";
    Opts.ReadOnly = ReadOnly;
    return PersistentEvalCache(
        Opts, [this](const std::string &W) { Warnings.push_back(W); });
  }

  std::string storePath() const {
    return PersistentEvalCache::storePath(Dir.path() + "/cache");
  }
};

CacheKey key(uint64_t V) { return CacheKey{V, ~V}; }

TEST(PersistentCache, EntryCodecRoundTrips) {
  CacheKey K{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EvalOutcome Ok = EvalOutcome::success(1234.5);
  std::string E = PersistentEvalCache::encodeEntry(K, "p=1\tq=2", Ok);
  CacheKey K2;
  std::string PK;
  EvalOutcome O2;
  ASSERT_TRUE(PersistentEvalCache::decodeEntry(E, K2, PK, O2));
  EXPECT_EQ(K2, K);
  EXPECT_EQ(PK, "p=1\tq=2"); // tabs in the point key survive escaping
  EXPECT_TRUE(O2.ok());
  EXPECT_DOUBLE_EQ(O2.Metric, 1234.5);

  EvalOutcome Bad = EvalOutcome::fail(FailureKind::RuntimeTrap,
                                      "killed by\nSIGSEGV\tat pc=0");
  E = PersistentEvalCache::encodeEntry(K, "p", Bad);
  EXPECT_EQ(E.find('\n'), std::string::npos); // one record, one line
  ASSERT_TRUE(PersistentEvalCache::decodeEntry(E, K2, PK, O2));
  EXPECT_EQ(O2.Failure, FailureKind::RuntimeTrap);
  EXPECT_EQ(O2.Detail, "killed by\nSIGSEGV\tat pc=0");

  // Strictness: truncated or garbled records must be rejected, not guessed.
  EXPECT_FALSE(PersistentEvalCache::decodeEntry("", K2, PK, O2));
  EXPECT_FALSE(PersistentEvalCache::decodeEntry("nonsense", K2, PK, O2));
  EXPECT_FALSE(PersistentEvalCache::decodeEntry(E.substr(0, E.size() / 2), K2,
                                                PK, O2));
}

TEST(PersistentCache, WarmStartAcrossInstances) {
  CacheFixture F;
  {
    PersistentEvalCache C = F.make();
    EXPECT_FALSE(C.lookup(key(1), "pt1").has_value());
    C.insert(key(1), "pt1", EvalOutcome::success(10.0));
    C.insert(key(2), "pt2",
             EvalOutcome::fail(FailureKind::InvalidPoint, "refused"));
    EXPECT_EQ(C.persistentStats().AppendedEntries, 2u);
  }
  // A second instance (a later run, or another process) starts warm.
  PersistentEvalCache C2 = F.make();
  EXPECT_EQ(C2.persistentStats().LoadedEntries, 2u);
  EXPECT_FALSE(C2.persistentStats().Degraded);
  auto Hit = C2.lookup(key(1), "pt1");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_DOUBLE_EQ(Hit->Metric, 10.0);
  auto Fail = C2.lookup(key(2), "other-point");
  ASSERT_TRUE(Fail.has_value());
  EXPECT_EQ(Fail->Failure, FailureKind::InvalidPoint);
  EXPECT_EQ(C2.stats().DedupSaves, 1u); // different point key, same variant
  EXPECT_TRUE(F.Warnings.empty()) << F.Warnings.front();
}

TEST(PersistentCache, MetricUnstableIsNeverPersisted) {
  CacheFixture F;
  {
    PersistentEvalCache C = F.make();
    C.insert(key(7), "pt",
             EvalOutcome::fail(FailureKind::MetricUnstable, "noisy host"));
    // Not cached at all — a flaky reading must be re-measured (the native
    // evaluator owns within-run retries), never served again.
    EXPECT_FALSE(C.lookup(key(7), "pt").has_value());
    EXPECT_EQ(C.persistentStats().AppendedEntries, 0u);
  }
  // And never immortalized: the next run re-measures too.
  PersistentEvalCache C2 = F.make();
  EXPECT_EQ(C2.persistentStats().LoadedEntries, 0u);
  EXPECT_FALSE(C2.lookup(key(7), "pt").has_value());
}

TEST(PersistentCache, ReadOnlyModeServesButNeverWrites) {
  CacheFixture F;
  {
    PersistentEvalCache Writer = F.make();
    Writer.insert(key(3), "pt", EvalOutcome::success(3.0));
  }
  struct stat Before;
  ASSERT_EQ(::stat(F.storePath().c_str(), &Before), 0);
  PersistentEvalCache RO = F.make(/*ReadOnly=*/true);
  EXPECT_EQ(RO.persistentStats().LoadedEntries, 1u);
  EXPECT_TRUE(RO.lookup(key(3), "pt").has_value());
  RO.insert(key(4), "pt4", EvalOutcome::success(4.0));
  EXPECT_EQ(RO.persistentStats().AppendedEntries, 0u);
  // Served in-memory for this run, absent from the file.
  EXPECT_TRUE(RO.lookup(key(4), "pt4").has_value());
  struct stat After;
  ASSERT_EQ(::stat(F.storePath().c_str(), &After), 0);
  EXPECT_EQ(Before.st_size, After.st_size);
}

TEST(PersistentCache, CorruptStoreSalvagesThePrefixWithAWarning) {
  CacheFixture F;
  {
    PersistentEvalCache C = F.make();
    C.insert(key(1), "p1", EvalOutcome::success(1.0));
    C.insert(key(2), "p2", EvalOutcome::success(2.0));
  }
  // Tear the last frame as a crashed writer would.
  std::string Path = F.storePath();
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  In.close();
  std::string Image = Buf.str();
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      << Image.substr(0, Image.size() - 3);

  PersistentEvalCache C2 = F.make();
  EXPECT_EQ(C2.persistentStats().LoadedEntries, 1u);
  EXPECT_TRUE(C2.persistentStats().RecoveredTornTail);
  EXPECT_FALSE(C2.persistentStats().Degraded);
  EXPECT_TRUE(C2.lookup(key(1), "p1").has_value());
  EXPECT_FALSE(C2.lookup(key(2), "p2").has_value());
  ASSERT_FALSE(F.Warnings.empty());
  EXPECT_NE(F.Warnings[0].find("kept 1 intact entries"), std::string::npos)
      << F.Warnings[0];
  // The salvaged store keeps accepting appends.
  C2.insert(key(9), "p9", EvalOutcome::success(9.0));
  EXPECT_EQ(C2.persistentStats().AppendedEntries, 1u);
}

TEST(PersistentCache, ForeignFileDegradesToInMemory) {
  CacheFixture F;
  std::string Dir = F.Dir.path() + "/cache";
  ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
  std::ofstream(F.storePath()) << "not a record log\n";

  PersistentEvalCache C = F.make();
  EXPECT_TRUE(C.persistentStats().Degraded);
  EXPECT_GE(C.persistentStats().Warnings, 1u);
  ASSERT_FALSE(F.Warnings.empty());
  EXPECT_NE(F.Warnings[0].find("bad magic"), std::string::npos)
      << F.Warnings[0];
  // Degraded means in-memory, not broken: the search keeps its cache.
  C.insert(key(5), "p", EvalOutcome::success(5.0));
  EXPECT_TRUE(C.lookup(key(5), "p").has_value());
  EXPECT_EQ(C.persistentStats().AppendedEntries, 0u);
}

TEST(PersistentCache, UnwritableDirectoryDegradesGracefully) {
  if (::geteuid() == 0)
    GTEST_SKIP() << "root ignores directory permissions";
  CacheFixture F;
  std::string Dir = F.Dir.path() + "/cache";
  ASSERT_EQ(::mkdir(Dir.c_str(), 0555), 0);
  PersistentEvalCache C = F.make();
  EXPECT_TRUE(C.persistentStats().Degraded);
  C.insert(key(1), "p", EvalOutcome::success(1.0));
  EXPECT_TRUE(C.lookup(key(1), "p").has_value());
  ::chmod(Dir.c_str(), 0755);
}

TEST(PersistentCache, DuplicateHeavyStoreIsCompactedAtStartup) {
  CacheFixture F;
  {
    PersistentEvalCache C = F.make();
    C.insert(key(42), "pt", EvalOutcome::success(42.0));
  }
  // Simulate many racing processes re-appending the same entry.
  std::string Entry = PersistentEvalCache::encodeEntry(
      key(42), "pt", EvalOutcome::success(42.0));
  {
    support::RecordLogOptions LogOpts;
    LogOpts.RequireHeaderMatch = false;
    auto Log = support::RecordLog::open(F.storePath(), LogOpts);
    ASSERT_TRUE(Log.ok()) << Log.message();
    for (int I = 0; I < 100; ++I)
      ASSERT_TRUE(Log->append(Entry).ok());
  }
  struct stat Before;
  ASSERT_EQ(::stat(F.storePath().c_str(), &Before), 0);

  PersistentEvalCache C2 = F.make();
  EXPECT_EQ(C2.persistentStats().LoadedEntries, 1u);
  EXPECT_TRUE(C2.persistentStats().Compacted);
  struct stat After;
  ASSERT_EQ(::stat(F.storePath().c_str(), &After), 0);
  EXPECT_LT(After.st_size, Before.st_size);
  // The compacted store still round-trips.
  PersistentEvalCache C3 = F.make();
  EXPECT_EQ(C3.persistentStats().LoadedEntries, 1u);
  EXPECT_TRUE(C3.lookup(key(42), "pt").has_value());
}

TEST(PersistentCache, FirstLoadedEntryWinsDuplicateKeys) {
  // Two processes racing on one variant may both append; append order is
  // the cross-process tiebreak, so every reader resolves the key the same
  // way.
  CacheFixture F;
  {
    PersistentEvalCache C = F.make();
    C.insert(key(1), "pt", EvalOutcome::success(1.0));
  }
  {
    support::RecordLogOptions LogOpts;
    LogOpts.RequireHeaderMatch = false;
    auto Log = support::RecordLog::open(F.storePath(), LogOpts);
    ASSERT_TRUE(Log.ok());
    ASSERT_TRUE(Log->append(PersistentEvalCache::encodeEntry(
                                key(1), "pt", EvalOutcome::success(99.0)))
                    .ok());
  }
  PersistentEvalCache C2 = F.make();
  auto Hit = C2.lookup(key(1), "pt");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_DOUBLE_EQ(Hit->Metric, 1.0);
}

} // namespace
} // namespace locus
