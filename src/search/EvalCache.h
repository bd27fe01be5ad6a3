//===- EvalCache.h - Content-addressed evaluation cache ---------*- C++ -*-===//
///
/// \file
/// A thread-safe cache of evaluation outcomes keyed by the content hash of
/// the *transformed* variant, not by the proposed point. The evaluation
/// driver already serves a point whose active projection was assessed (an
/// OR arm's parameters are dead in the other branch), so what reaches the
/// cache are distinct configurations; some still materialize to one
/// variant (every unroll factor from the trip count up unrolls fully; a
/// tile size past the loop extent does not, its factor stays in the
/// bounds). The simulator metric of a given variant is deterministic, so
/// evaluating the variant once and serving every later
/// structurally-identical materialization from the cache changes nothing
/// about the search trajectory while skipping the most expensive stage
/// (compile + simulate). A point seen again across runs (a persistent
/// store, a respawned worker) hashes to the same variant by construction.
///
/// Keys are 128 bits — two independently-seeded FNV-1a halves, the second
/// additionally mixed with the program-text length. A single 64-bit hash is
/// fine for one run's few thousand variants, but entries now persist across
/// runs and tenants (see PersistentEvalCache): at hundreds of millions of
/// accumulated variants the 64-bit birthday bound makes a silent collision
/// — one program served another's metric — a real event, while 128 bits
/// keep it vanishingly improbable at any plausible store size.
///
/// The cache stores the first point key evaluated for each variant hash, so
/// hits can be classified as same-point duplicates vs. genuine cross-point
/// dedup saves.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_EVALCACHE_H
#define LOCUS_SEARCH_EVALCACHE_H

#include "src/search/Search.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace locus {
namespace search {

/// 128-bit content key of a materialized variant.
struct CacheKey {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  bool operator==(const CacheKey &O) const { return Lo == O.Lo && Hi == O.Hi; }
  bool operator!=(const CacheKey &O) const { return !(*this == O); }
};

/// Derives the 128-bit key from the unparsed variant text: two FNV-1a
/// streams with distinct offset bases, computed in one pass over the text,
/// the high half mixed with the text length so even a (hypothetical)
/// simultaneous collision of both streams still separates different-sized
/// programs.
CacheKey makeCacheKey(std::string_view VariantText);

struct CacheKeyHash {
  size_t operator()(const CacheKey &K) const {
    // Lo is already a high-quality 64-bit hash; fold in Hi cheaply.
    return static_cast<size_t>(K.Lo ^ (K.Hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Observability counters for the cache (all monotonic).
struct EvalCacheStats {
  uint64_t Hits = 0;       ///< lookups served from the cache
  uint64_t Misses = 0;     ///< lookups that had to evaluate
  uint64_t DedupSaves = 0; ///< of Hits, those whose point key differed from
                           ///< the point that populated the entry (distinct
                           ///< points, same materialized variant)
  uint64_t Entries = 0;    ///< variants currently cached
};

/// The interface the driver's objective talks to: the plain in-memory cache
/// and the persistent on-disk cache are interchangeable behind it.
class VariantOutcomeCache {
public:
  virtual ~VariantOutcomeCache() = default;

  /// Returns the cached outcome for a variant key, or nullopt on a miss.
  /// \p PointKey (the canonical key of the point being assessed) is used
  /// only to classify a hit as a cross-point dedup save.
  virtual std::optional<EvalOutcome> lookup(const CacheKey &Key,
                                            const std::string &PointKey) = 0;

  /// Records the outcome for a variant key. The first writer wins; a
  /// concurrent duplicate insert (two workers racing on the same variant)
  /// is dropped, keeping served outcomes consistent.
  virtual void insert(const CacheKey &Key, const std::string &PointKey,
                      const EvalOutcome &Outcome) = 0;

  virtual EvalCacheStats stats() const = 0;
};

/// Thread-safe content-addressed outcome cache (process-local).
class EvalCache : public VariantOutcomeCache {
public:
  std::optional<EvalOutcome> lookup(const CacheKey &Key,
                                    const std::string &PointKey) override;

  void insert(const CacheKey &Key, const std::string &PointKey,
              const EvalOutcome &Outcome) override;

  /// insert() that reports whether the entry was new — the persistent layer
  /// uses this to append exactly the entries that won the race.
  bool insertIfAbsent(const CacheKey &Key, const std::string &PointKey,
                      const EvalOutcome &Outcome);

  EvalCacheStats stats() const override;

private:
  struct Entry {
    EvalOutcome Outcome;
    std::string FirstPointKey;
  };
  mutable std::mutex M;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> Map;
  EvalCacheStats Stats;
};

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_EVALCACHE_H
