//===- PersistentEvalCache.cpp - Durable shared evaluation cache ----------===//

#include "src/search/PersistentEvalCache.h"

#include "src/search/RecordCodec.h"

#include <cstdio>
#include <set>

#include <sys/stat.h>

namespace locus {
namespace search {

namespace {

constexpr const char *StoreHeader = "locus-evalcache v1";
constexpr const char *StoreFile = "evalcache.rlog";

} // namespace

std::string PersistentEvalCache::storePath(const std::string &Dir) {
  return Dir + "/" + StoreFile;
}

std::string PersistentEvalCache::encodeEntry(const CacheKey &Key,
                                             const std::string &PointKey,
                                             const EvalOutcome &Outcome) {
  return RecordWriter()
      .hex(Key.Lo)
      .hex(Key.Hi)
      .verdict(Outcome)
      .text(PointKey)
      .text(Outcome.Detail)
      .take();
}

bool PersistentEvalCache::decodeEntry(const std::string &Record, CacheKey &Key,
                                      std::string &PointKey,
                                      EvalOutcome &Outcome) {
  return RecordReader(Record)
      .hex(Key.Lo, "key-lo")
      .hex(Key.Hi, "key-hi")
      .verdict(Outcome)
      .text(PointKey, "point key")
      .text(Outcome.Detail, "detail")
      .finish()
      .ok();
}

PersistentEvalCache::PersistentEvalCache(PersistentCacheOptions Opts,
                                         WarnSink Warn)
    : Opts(std::move(Opts)), Warn(std::move(Warn)) {
  if (this->Opts.Dir.empty()) {
    degrade("no cache directory configured");
    return;
  }
  // mkdir best-effort: an existing directory is fine, anything else is a
  // degradation the open below will also notice.
  ::mkdir(this->Opts.Dir.c_str(), 0755);
  std::string Path = storePath(this->Opts.Dir);

  support::RecordLogScan Scan;
  if (this->Opts.ReadOnly) {
    Expected<support::RecordLogScan> S = support::RecordLog::scan(Path);
    if (!S.ok()) {
      degrade("cannot read cache store: " + S.message());
      return;
    }
    Scan = std::move(*S);
    if (!Scan.Header.empty() && Scan.Header != StoreHeader) {
      degrade("cache store " + Path + " has an unrecognized header '" +
              Scan.Header + "'");
      return;
    }
  } else {
    support::RecordLogOptions LogOpts;
    LogOpts.Header = StoreHeader;
    // No fsync per appended entry: a lost cache entry costs one
    // re-evaluation, so kernel-level durability is the right trade.
    constexpr bool FsyncEachCacheEntry = false;
    LogOpts.FsyncEachRecord = FsyncEachCacheEntry;
    Expected<support::RecordLog> L =
        support::RecordLog::open(Path, LogOpts, &Scan);
    if (!L.ok()) {
      degrade("cannot open cache store: " + L.message());
      return;
    }
    Log = std::move(*L);
  }
  if (Scan.TornTail && Scan.TornOffset != 0) {
    Pers.RecoveredTornTail = true;
    warn("cache store " + Path + ": " + Scan.Why +
         "; dropped the damaged tail and kept " +
         std::to_string(Scan.Records.size()) + " intact entries");
  }

  // Preload. First-loaded wins so every process sharing the store resolves
  // duplicate keys identically (append order is the tiebreak).
  uint64_t Malformed = 0;
  for (const std::string &R : Scan.Records) {
    CacheKey Key;
    std::string PointKey;
    EvalOutcome Outcome;
    if (!decodeEntry(R, Key, PointKey, Outcome)) {
      ++Malformed;
      continue;
    }
    if (Mem.insertIfAbsent(Key, PointKey, Outcome))
      ++Pers.LoadedEntries;
  }
  if (Malformed)
    warn("cache store " + Path + ": skipped " + std::to_string(Malformed) +
         " malformed entries (version drift?)");

  // Housekeeping: when racing processes have piled up duplicates, rewrite
  // the store down to the surviving entries with an atomic rename.
  if (!this->Opts.ReadOnly && Log.isOpen() && Scan.Records.size() > 64 &&
      Pers.LoadedEntries * 4 < Scan.Records.size() * 3) {
    std::vector<std::string> Unique;
    std::set<std::pair<uint64_t, uint64_t>> Seen;
    for (const std::string &R : Scan.Records) {
      CacheKey Key;
      std::string PointKey;
      EvalOutcome Outcome;
      if (decodeEntry(R, Key, PointKey, Outcome) &&
          Seen.insert({Key.Lo, Key.Hi}).second)
        Unique.push_back(R);
    }
    if (Status S = Log.compact(Unique); S.ok())
      Pers.Compacted = true;
    else
      warn("cache store compaction failed (continuing uncompacted): " +
           S.message());
  }
}

void PersistentEvalCache::warn(const std::string &Msg) {
  {
    std::lock_guard<std::mutex> L(M);
    ++Pers.Warnings;
  }
  if (Warn)
    Warn(Msg);
  else
    std::fprintf(stderr, "warning: %s\n", Msg.c_str());
}

void PersistentEvalCache::degrade(const std::string &Why) {
  warn("persistent eval cache degraded to in-memory only: " + Why);
  std::lock_guard<std::mutex> L(M);
  Pers.Degraded = true;
  Log.close();
}

std::optional<EvalOutcome>
PersistentEvalCache::lookup(const CacheKey &Key, const std::string &PointKey) {
  return Mem.lookup(Key, PointKey);
}

void PersistentEvalCache::insert(const CacheKey &Key,
                                 const std::string &PointKey,
                                 const EvalOutcome &Outcome) {
  // Unstable measurements are never cached anywhere: a later lookup of the
  // same variant must re-measure, and a persisted flaky reading would
  // poison every future tenant.
  if (Outcome.Failure == FailureKind::MetricUnstable)
    return;
  if (!Mem.insertIfAbsent(Key, PointKey, Outcome))
    return; // lost the race; the winner's outcome is already served
  bool DoAppend;
  {
    std::lock_guard<std::mutex> L(M);
    DoAppend = !Opts.ReadOnly && !Pers.Degraded && Log.isOpen();
  }
  if (!DoAppend)
    return;
  Status S = Log.append(encodeEntry(Key, PointKey, Outcome));
  if (!S.ok()) {
    // Disk full, revoked mount, ... — keep searching on memory alone.
    degrade("append failed: " + S.message());
    return;
  }
  std::lock_guard<std::mutex> L(M);
  ++Pers.AppendedEntries;
}

EvalCacheStats PersistentEvalCache::stats() const { return Mem.stats(); }

PersistentCacheStats PersistentEvalCache::persistentStats() const {
  std::lock_guard<std::mutex> L(M);
  return Pers;
}

} // namespace search
} // namespace locus
