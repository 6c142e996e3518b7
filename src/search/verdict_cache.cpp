#include "search/verdict_cache.hpp"

#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"

namespace sysmap::search {

namespace {

/// Per-shard obs ids (hits/misses/admissions).  Shards above
/// kShardLabels share labels modulo the cap so a custom shard_count
/// cannot exhaust the metric registry; the totals stay exact because
/// counter merges are commutative sums.
constexpr std::size_t kShardLabels = 32;

struct ShardMetrics {
  obs::MetricId hits = obs::kInvalidMetric;
  obs::MetricId misses = obs::kInvalidMetric;
  obs::MetricId admissions = obs::kInvalidMetric;
};

ShardMetrics intern_shard_metrics(std::size_t shard) {
  ShardMetrics ids;
  if constexpr (obs::kEnabled) {
    char name[96];
    const std::size_t label = shard % kShardLabels;
    std::snprintf(name, sizeof(name), "search.verdict_cache.shard%02zu.hits",
                  label);
    ids.hits = obs::intern(name, obs::Kind::kCounter);
    std::snprintf(name, sizeof(name),
                  "search.verdict_cache.shard%02zu.misses", label);
    ids.misses = obs::intern(name, obs::Kind::kCounter);
    std::snprintf(name, sizeof(name),
                  "search.verdict_cache.shard%02zu.admissions", label);
    ids.admissions = obs::intern(name, obs::Kind::kCounter);
  }
  return ids;
}

/// A stored key with its hash, computed once when the key is looked up or
/// inserted; the maps read the stored hash instead of hashing again.
struct HashedKey {
  mapping::ConflictKey key;
  std::size_t hash = 0;
};

/// Lookup probe: the caller's key by reference, with its hash.
struct HashedKeyRef {
  const mapping::ConflictKey& key;
  std::size_t hash = 0;
};

/// Transparent hash and equality over both, so find() takes a
/// HashedKeyRef without copying the key.
struct PrehashedHash {
  using is_transparent = void;
  std::size_t operator()(const HashedKey& k) const noexcept { return k.hash; }
  std::size_t operator()(const HashedKeyRef& k) const noexcept {
    return k.hash;
  }
};

struct PrehashedEqual {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a.hash == b.hash && a.key == b.key;
  }
};

/// Shard index from a key hash.  The FNV mix already avalanches; fold the
/// high bits in so shard choice is not just the hash-table bucket bits
/// again.
std::size_t shard_index(std::size_t h, std::size_t shard_count) noexcept {
  return (h ^ (h >> 16)) % shard_count;
}

}  // namespace

struct VerdictCache::Shard {
  mutable std::mutex mu;
  std::unordered_map<HashedKey, Outcome, PrehashedHash, PrehashedEqual> map;
  ShardMetrics metrics;
};

VerdictCache::VerdictCache(std::size_t shard_count)
    : shard_count_(shard_count == 0 ? 1 : shard_count),
      shards_(new Shard[shard_count == 0 ? 1 : shard_count]) {
  if constexpr (obs::kEnabled) {
    for (std::size_t s = 0; s < shard_count_; ++s) {
      shards_[s].metrics = intern_shard_metrics(s);
    }
  }
}

VerdictCache::~VerdictCache() = default;

std::optional<VerdictCache::Outcome> VerdictCache::lookup(
    const mapping::ConflictKey& key) const {
  const std::size_t h = key.hash();
  Shard& shard = shards_[shard_index(h, shard_count_)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(HashedKeyRef{key, h});
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs::add(shard.metrics.hits, 1);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::add(shard.metrics.misses, 1);
  return std::nullopt;
}

void VerdictCache::insert(const mapping::ConflictKey& key, bool conflict_free,
                          std::string_view rule) {
  const std::size_t h = key.hash();
  Shard& shard = shards_[shard_index(h, shard_count_)];
  Outcome outcome;
  outcome.conflict_free = conflict_free;
  outcome.rule.assign(rule);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.emplace(HashedKey{key, h}, std::move(outcome)).second) {
    insertions_.fetch_add(1, std::memory_order_relaxed);
    obs::add(shard.metrics.admissions, 1);
  }
}

VerdictCache::Stats VerdictCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.entries = out.insertions;
  return out;
}

void VerdictCache::clear() {
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    shards_[s].map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
}

}  // namespace sysmap::search
