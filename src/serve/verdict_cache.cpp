#include "serve/verdict_cache.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/fnv.hpp"

namespace rtft::serve {

VerdictCache::VerdictCache(std::size_t capacity) : capacity_(capacity) {
  RTFT_EXPECTS(capacity > 0, "verdict cache needs capacity >= 1");
}

std::uint64_t VerdictCache::checksum_of(const sched::CanonicalTaskSet& key,
                                        const CachedVerdict& value) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv_mix(h, key.hash);
  fnv_mix(h, static_cast<std::uint64_t>(value.verdict));
  fnv_mix(h, static_cast<std::uint64_t>(value.tier));
  fnv_mix(h, static_cast<std::uint64_t>(value.tier_is_ceiling));
  fnv_mix(h, bits_of(value.utilization));
  return h;
}

VerdictCache::Lru::iterator VerdictCache::find_locked(
    const sched::CanonicalTaskSet& key) {
  const auto bucket = index_.find(key.hash);
  if (bucket == index_.end()) return lru_.end();
  for (const Lru::iterator it : bucket->second) {
    if (it->key == key) return it;
  }
  return lru_.end();
}

std::optional<CachedVerdict> VerdictCache::lookup(
    const sched::CanonicalTaskSet& key, AnalysisTier active) {
  const std::lock_guard<std::mutex> lock(mu_);
  const Lru::iterator it = find_locked(key);
  if (it == lru_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (checksum_of(it->key, it->value) != it->checksum) {
    // Corrupted: drop it and recompute — never serve a damaged verdict.
    ++stats_.corruption_detected;
    ++stats_.misses;
    auto& chain = index_[key.hash];
    chain.erase(std::find(chain.begin(), chain.end(), it));
    if (chain.empty()) index_.erase(key.hash);
    lru_.erase(it);
    return std::nullopt;
  }
  if (static_cast<std::uint8_t>(it->value.tier) >
          static_cast<std::uint8_t>(active) &&
      !it->value.tier_is_ceiling) {
    // Cached answer is weaker than what the service would compute right
    // now; recompute (and insert() will then upgrade the entry). A
    // ceiling entry is exempt: it already is the strongest answer this
    // key can get.
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it);  // bump to most-recently-used.
  ++stats_.hits;
  return it->value;
}

void VerdictCache::insert(const sched::CanonicalTaskSet& key,
                          const CachedVerdict& value) {
  const std::lock_guard<std::mutex> lock(mu_);
  const Lru::iterator it = find_locked(key);
  if (it != lru_.end()) {
    // Refresh, but never downgrade a stronger cached tier (corruption
    // already got erased on lookup, so what is here verified).
    if (static_cast<std::uint8_t>(value.tier) <=
        static_cast<std::uint8_t>(it->value.tier)) {
      const bool keep_ceiling =
          value.tier == it->value.tier && it->value.tier_is_ceiling;
      it->value = value;
      // The ceiling is a property of the key (its engine window is
      // oversize no matter who computes it): an equal-tier refresh must
      // not wash it away.
      if (keep_ceiling) it->value.tier_is_ceiling = true;
      it->checksum = checksum_of(it->key, it->value);
    }
    lru_.splice(lru_.begin(), lru_, it);
    return;
  }
  if (lru_.size() >= capacity_) {
    const Lru::iterator victim = std::prev(lru_.end());
    auto& chain = index_[victim->key.hash];
    chain.erase(std::find(chain.begin(), chain.end(), victim));
    if (chain.empty()) index_.erase(victim->key.hash);
    lru_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, value, checksum_of(key, value)});
  index_[key.hash].push_back(lru_.begin());
}

bool VerdictCache::corrupt(const sched::CanonicalTaskSet& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const Lru::iterator it = find_locked(key);
  if (it == lru_.end()) return false;
  it->value.utilization =
      it->value.utilization == 0.0 ? 1.0 : -it->value.utilization;
  it->value.verdict = it->value.verdict == AdmissionVerdict::kAdmit
                          ? AdmissionVerdict::kReject
                          : AdmissionVerdict::kAdmit;
  return true;
}

std::size_t VerdictCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

VerdictCacheStats VerdictCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace rtft::serve
