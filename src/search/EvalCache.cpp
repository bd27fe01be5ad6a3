//===- EvalCache.cpp - Content-addressed evaluation cache -----------------===//

#include "src/search/EvalCache.h"

#include "src/support/Hashing.h"

namespace locus {
namespace search {

CacheKey makeCacheKey(std::string_view VariantText) {
  // Two FNV-1a 64 streams in one pass over the bytes: Lo from the standard
  // offset basis, Hi from a distinct one (the offset with flipped low bits),
  // an independent second stream. Length-mixing Hi separates prefix-related
  // texts even if both streams ever coincided.
  uint64_t Lo = 0xcbf29ce484222325ULL;
  uint64_t Hi = 0x84222325cbf29ce4ULL;
  for (unsigned char C : VariantText) {
    Lo = (Lo ^ C) * 0x100000001b3ULL;
    Hi = (Hi ^ C) * 0x100000001b3ULL;
  }
  CacheKey Key;
  Key.Lo = Lo;
  Key.Hi = hashCombine(Hi, static_cast<uint64_t>(VariantText.size()));
  return Key;
}

std::optional<EvalOutcome> EvalCache::lookup(const CacheKey &Key,
                                             const std::string &PointKey) {
  std::lock_guard<std::mutex> L(M);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Stats.Misses;
    return std::nullopt;
  }
  ++Stats.Hits;
  if (It->second.FirstPointKey != PointKey)
    ++Stats.DedupSaves;
  return It->second.Outcome;
}

void EvalCache::insert(const CacheKey &Key, const std::string &PointKey,
                       const EvalOutcome &Outcome) {
  (void)insertIfAbsent(Key, PointKey, Outcome);
}

bool EvalCache::insertIfAbsent(const CacheKey &Key, const std::string &PointKey,
                               const EvalOutcome &Outcome) {
  std::lock_guard<std::mutex> L(M);
  auto [It, Inserted] = Map.try_emplace(Key, Entry{Outcome, PointKey});
  (void)It;
  if (Inserted)
    ++Stats.Entries;
  return Inserted;
}

EvalCacheStats EvalCache::stats() const {
  std::lock_guard<std::mutex> L(M);
  return Stats;
}

} // namespace search
} // namespace locus
