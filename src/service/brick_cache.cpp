#include "service/brick_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace vrmr::service {

const char* to_string(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::Lru: return "lru";
    case CachePolicy::Arc: return "arc";
  }
  return "?";
}

BrickCache::BrickCache(int num_gpus, std::uint64_t capacity_per_gpu,
                       CachePolicy policy)
    : capacity_(capacity_per_gpu), policy_(policy) {
  VRMR_CHECK_MSG(num_gpus >= 1, "BrickCache needs at least one GPU shard");
  shards_.resize(static_cast<std::size_t>(num_gpus));
}

std::uint64_t BrickCache::capacity_for(const gpusim::DeviceProps& props,
                                       std::uint64_t reserve_bytes) {
  if (reserve_bytes >= props.vram_bytes) return 0;
  return props.vram_bytes - reserve_bytes;
}

BrickCache::Shard& BrickCache::shard_at(int gpu) {
  VRMR_CHECK_MSG(gpu >= 0 && gpu < num_gpus(), "gpu " << gpu << " out of range");
  return shards_[static_cast<std::size_t>(gpu)];
}

const BrickCache::Shard& BrickCache::shard_at(int gpu) const {
  VRMR_CHECK_MSG(gpu >= 0 && gpu < num_gpus(), "gpu " << gpu << " out of range");
  return shards_[static_cast<std::size_t>(gpu)];
}

void BrickCache::move_to_mru(Shard& shard, Locator& loc, ListId to) {
  std::list<Entry>& dst = shard.list_of(to);
  if (loc.list == to) {
    dst.splice(dst.begin(), dst, loc.it);
  } else {
    shard.bytes_of(loc.list) -= loc.it->bytes;
    shard.bytes_of(to) += loc.it->bytes;
    dst.splice(dst.begin(), shard.list_of(loc.list), loc.it);
    loc.list = to;
  }
}

BrickCache::Entry BrickCache::remove(Shard& shard, const BrickKey& key) {
  const auto it = shard.index.find(key);
  VRMR_CHECK_MSG(it != shard.index.end(), "removing an unindexed brick key");
  const Locator loc = it->second;
  Entry entry = std::move(*loc.it);
  shard.bytes_of(loc.list) -= entry.bytes;
  shard.list_of(loc.list).erase(loc.it);
  shard.index.erase(it);
  return entry;
}

BrickCache::Entry BrickCache::pop_lru(Shard& shard, ListId from) {
  std::list<Entry>& list = shard.list_of(from);
  VRMR_CHECK_MSG(!list.empty(), "popping from an empty cache list");
  Entry entry = std::move(list.back());
  shard.bytes_of(from) -= entry.bytes;
  shard.index.erase(entry.key);
  list.pop_back();
  return entry;
}

void BrickCache::insert_mru(Shard& shard, ListId to, Entry entry) {
  std::list<Entry>& dst = shard.list_of(to);
  shard.bytes_of(to) += entry.bytes;
  const BrickKey key = entry.key;
  dst.push_front(std::move(entry));
  shard.index[key] = Locator{to, dst.begin()};
}

void BrickCache::count_eviction(const Entry& victim) {
  stats_.bytes_evicted += victim.bytes;
  stats_.logical_bytes_evicted += victim.logical_bytes;
  ++stats_.evictions;
}

// --- Lru ---------------------------------------------------------------------

bool BrickCache::lru_touch(Shard& shard, const BrickKey& key) {
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  move_to_mru(shard, it->second, ListId::T1);
  return true;
}

bool BrickCache::lru_insert_evicting(Shard& shard, const BrickKey& key,
                                     std::uint64_t bytes,
                                     std::uint64_t logical_bytes) {
  if (bytes > capacity_) {
    // Would displace the whole shard for a single brick; not worth it.
    ++stats_.rejected_oversized;
    return false;
  }
  while (shard.t1_bytes + bytes > capacity_) {
    count_eviction(pop_lru(shard, ListId::T1));
  }
  insert_mru(shard, ListId::T1, Entry{key, bytes, logical_bytes, false, nullptr});
  ++stats_.insertions;
  stats_.stored_bytes_admitted += bytes;
  stats_.logical_bytes_admitted += logical_bytes;
  return true;
}

// --- Arc ---------------------------------------------------------------------

void BrickCache::arc_adapt(Shard& shard, std::uint64_t bytes,
                           bool toward_recency) {
  // Byte-weighted ARC learning rule: the nudge is at least the hit
  // brick's size, scaled up by the opposite ghost list's byte ratio
  // when that list dominates — the classic delta = max(1, |Bother| /
  // |Bhit|) generalized from page counts to bytes.
  const double s = static_cast<double>(bytes);
  double next_p = shard.p;
  if (toward_recency) {
    const double delta = (shard.b1_bytes >= shard.b2_bytes || shard.b1_bytes == 0)
                             ? s
                             : s * static_cast<double>(shard.b2_bytes) /
                                   static_cast<double>(shard.b1_bytes);
    next_p = std::min(static_cast<double>(capacity_), shard.p + delta);
  } else {
    const double delta = (shard.b2_bytes >= shard.b1_bytes || shard.b2_bytes == 0)
                             ? s
                             : s * static_cast<double>(shard.b1_bytes) /
                                   static_cast<double>(shard.b2_bytes);
    next_p = std::max(0.0, shard.p - delta);
  }
  stats_.arc_p_bytes += next_p - shard.p;
  shard.p = next_p;
}

void BrickCache::arc_replace(Shard& shard, bool b2_ghost_path) {
  VRMR_CHECK_MSG(!shard.t1.empty() || !shard.t2.empty(),
                 "evicting from an empty cache shard");
  bool take_t1;
  if (shard.t1.empty()) {
    take_t1 = false;
  } else if (shard.t2.empty()) {
    take_t1 = true;
  } else {
    const double t1b = static_cast<double>(shard.t1_bytes);
    // T1 gives way while it exceeds its target; on the B2 ghost-hit
    // path "exactly at target" also takes from T1 (the hit is evidence
    // the frequency side needs the room) — Megiddo & Modha's REPLACE.
    take_t1 = t1b > shard.p || (b2_ghost_path && t1b >= shard.p);
  }
  const Entry victim = pop_lru(shard, take_t1 ? ListId::T1 : ListId::T2);
  count_eviction(victim);
  // Demand-touched victims are remembered as ghosts so a re-demand can
  // steer p; a speculative (prefetched, never demanded) brick leaves no
  // trace — B1/B2 record only the demand stream's history.
  if (!victim.speculative) {
    insert_mru(shard, take_t1 ? ListId::B1 : ListId::B2,
               Entry{victim.key, victim.bytes, victim.logical_bytes, false, nullptr});
  }
}

void BrickCache::arc_make_room(Shard& shard, std::uint64_t bytes,
                               bool b2_ghost_path) {
  while (shard.resident() + bytes > capacity_) {
    arc_replace(shard, b2_ghost_path);
  }
}

void BrickCache::arc_trim_ghosts(Shard& shard) {
  // Ghost invariants (byte-weighted ARC directory bounds): the recency
  // history T1 + B1 never remembers more than one budget's worth, and
  // the whole directory never exceeds two budgets.
  while (!shard.b1.empty() && shard.t1_bytes + shard.b1_bytes > capacity_) {
    (void)pop_lru(shard, ListId::B1);
  }
  while (shard.t1_bytes + shard.t2_bytes + shard.b1_bytes + shard.b2_bytes >
         2 * capacity_) {
    if (!shard.b2.empty()) (void)pop_lru(shard, ListId::B2);
    else if (!shard.b1.empty()) (void)pop_lru(shard, ListId::B1);
    else break;  // residents alone fit the budget, so <= 2x always
  }
}

bool BrickCache::arc_lookup_or_admit(Shard& shard, const BrickKey& key,
                                     std::uint64_t bytes,
                                     std::uint64_t logical_bytes,
                                     LookupOutcome* outcome) {
  const auto it = shard.index.find(key);
  if (it != shard.index.end() &&
      (it->second.list == ListId::T1 || it->second.list == ListId::T2)) {
    ++stats_.hits;
    stats_.bytes_saved += bytes;
    stats_.logical_bytes_saved += logical_bytes;
    if (outcome != nullptr) outcome->hit = true;
    if (it->second.list == ListId::T1) {
      ++stats_.t1_hits;
      if (it->second.it->speculative) {
        // First *demand* touch of a prefetched brick: it has now been
        // demanded once, which is what a fresh T1 insert means — so
        // re-arm it there instead of promoting a never-re-demanded
        // brick to the frequent list.
        it->second.it->speculative = false;
        move_to_mru(shard, it->second, ListId::T1);
      } else {
        move_to_mru(shard, it->second, ListId::T2);
      }
    } else {
      ++stats_.t2_hits;
      move_to_mru(shard, it->second, ListId::T2);
    }
    return true;
  }

  // The payload is gone either way: the frame restages it (miss).
  ++stats_.misses;
  if (it != shard.index.end()) {
    // Ghost hit: the directory remembers evicting this key. Steer p
    // toward the list that was too small, then admit straight into T2
    // (this is the key's second demand).
    const bool from_b2 = it->second.list == ListId::B2;
    if (from_b2) ++stats_.b2_ghost_hits;
    else ++stats_.b1_ghost_hits;
    if (outcome != nullptr) {
      outcome->ghost_b1 = !from_b2;
      outcome->ghost_b2 = from_b2;
    }
    arc_adapt(shard, bytes, /*toward_recency=*/!from_b2);
    (void)remove(shard, key);
    if (bytes > capacity_) {  // unreachable for real ghosts; stay safe
      ++stats_.rejected_oversized;
      return false;
    }
    arc_make_room(shard, bytes, from_b2);
    insert_mru(shard, ListId::T2, Entry{key, bytes, logical_bytes, false, nullptr});
    ++stats_.insertions;
    stats_.stored_bytes_admitted += bytes;
    stats_.logical_bytes_admitted += logical_bytes;
    arc_trim_ghosts(shard);
    return false;
  }

  // Cold miss: first demand lands in the recency list.
  if (bytes > capacity_) {
    ++stats_.rejected_oversized;
    return false;
  }
  arc_make_room(shard, bytes, /*b2_ghost_path=*/false);
  insert_mru(shard, ListId::T1, Entry{key, bytes, logical_bytes, false, nullptr});
  ++stats_.insertions;
  stats_.stored_bytes_admitted += bytes;
  stats_.logical_bytes_admitted += logical_bytes;
  arc_trim_ghosts(shard);
  return false;
}

bool BrickCache::arc_prefetch(Shard& shard, const BrickKey& key,
                              std::uint64_t bytes, std::uint64_t logical_bytes,
                              bool* admitted) {
  const auto it = shard.index.find(key);
  if (it != shard.index.end() &&
      (it->second.list == ListId::T1 || it->second.list == ListId::T2)) {
    // Refresh recency within its own list: speculative traffic must
    // neither promote (frequency is a demand signal) nor count.
    move_to_mru(shard, it->second, it->second.list);
    return true;
  }
  if (bytes > capacity_) {
    ++stats_.rejected_oversized;
    return false;
  }
  if (it != shard.index.end()) {
    // A ghost of this key exists but the prefetcher's touch is not
    // demand evidence: drop it silently (no ghost-hit counter, no p
    // nudge) so B1/B2 accounting stays a pure demand-stream history.
    (void)remove(shard, key);
  }
  arc_make_room(shard, bytes, /*b2_ghost_path=*/false);
  insert_mru(shard, ListId::T1, Entry{key, bytes, logical_bytes,
                                      /*speculative=*/true, nullptr});
  ++stats_.insertions;
  stats_.stored_bytes_admitted += bytes;
  stats_.logical_bytes_admitted += logical_bytes;
  ++stats_.prefetch_admissions;
  stats_.bytes_prefetched += bytes;
  arc_trim_ghosts(shard);
  if (admitted != nullptr) *admitted = true;
  return true;
}

// --- shared entry points -----------------------------------------------------

bool BrickCache::lookup_or_admit(int gpu, const BrickKey& key, std::uint64_t bytes,
                                 LookupOutcome* outcome,
                                 std::uint64_t logical_bytes) {
  Shard& shard = shard_at(gpu);
  if (logical_bytes == 0) logical_bytes = bytes;  // uncompressed caller
  if (outcome != nullptr) *outcome = LookupOutcome{};
  if (policy_ == CachePolicy::Arc) {
    return arc_lookup_or_admit(shard, key, bytes, logical_bytes, outcome);
  }

  if (lru_touch(shard, key)) {
    // Hit: recency refreshed. The brick's size is immutable per key.
    ++stats_.hits;
    stats_.bytes_saved += bytes;
    stats_.logical_bytes_saved += logical_bytes;
    if (outcome != nullptr) outcome->hit = true;
    return true;
  }
  ++stats_.misses;
  (void)lru_insert_evicting(shard, key, bytes, logical_bytes);
  return false;
}

bool BrickCache::prefetch(int gpu, const BrickKey& key, std::uint64_t bytes,
                          bool* admitted, std::uint64_t logical_bytes) {
  Shard& shard = shard_at(gpu);
  if (logical_bytes == 0) logical_bytes = bytes;  // uncompressed caller
  if (admitted != nullptr) *admitted = false;
  if (policy_ == CachePolicy::Arc) {
    return arc_prefetch(shard, key, bytes, logical_bytes, admitted);
  }

  if (lru_touch(shard, key)) return true;
  if (!lru_insert_evicting(shard, key, bytes, logical_bytes)) return false;
  ++stats_.prefetch_admissions;
  stats_.bytes_prefetched += bytes;
  if (admitted != nullptr) *admitted = true;
  return true;
}

bool BrickCache::resident(int gpu, const BrickKey& key) const {
  const Shard& shard = shard_at(gpu);
  const auto it = shard.index.find(key);
  return it != shard.index.end() &&
         (it->second.list == ListId::T1 || it->second.list == ListId::T2);
}

std::optional<BrickCache::Residency> BrickCache::payload_of(
    int gpu, const BrickKey& key) const {
  const Shard& shard = shard_at(gpu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  const Locator& loc = it->second;
  if (loc.list != ListId::T1 && loc.list != ListId::T2) return std::nullopt;
  return Residency{loc.it->bytes, loc.it->logical_bytes};
}

std::shared_ptr<const volren::BrickPayload>* BrickCache::host_payload(
    int gpu, const BrickKey& key) {
  Shard& shard = shard_at(gpu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  const Locator& loc = it->second;
  if (loc.list != ListId::T1 && loc.list != ListId::T2) return nullptr;
  return &loc.it->payload;
}

void BrickCache::invalidate_volume(std::uint64_t volume_id) {
  // Residents AND ghosts: a retired (volume, generation) id can never
  // be demanded again, and a stale ghost hit would steer p with
  // evidence from a dead key space. Not counted as evictions — the
  // volume was withdrawn, not displaced by pressure.
  for (Shard& shard : shards_) {
    for (const ListId id : {ListId::T1, ListId::T2, ListId::B1, ListId::B2}) {
      std::list<Entry>& list = shard.list_of(id);
      for (auto it = list.begin(); it != list.end();) {
        if (it->key.volume_id == volume_id) {
          shard.bytes_of(id) -= it->bytes;
          shard.index.erase(it->key);
          it = list.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

std::uint64_t BrickCache::resident_bytes_for_volume(std::uint64_t volume_id) const {
  std::uint64_t bytes = 0;
  for (const Shard& shard : shards_) {
    for (const std::list<Entry>* list : {&shard.t1, &shard.t2}) {
      for (const Entry& entry : *list) {
        if (entry.key.volume_id == volume_id) bytes += entry.bytes;
      }
    }
  }
  return bytes;
}

std::vector<BrickCache::WarmBrick> BrickCache::warm_bricks_for_volume(
    std::uint64_t volume_id) const {
  std::vector<WarmBrick> out;
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    const Shard& shard = shards_[static_cast<std::size_t>(gpu)];
    for (const std::list<Entry>* list : {&shard.t1, &shard.t2}) {
      for (const Entry& entry : *list) {
        if (entry.key.volume_id != volume_id) continue;
        out.push_back({gpu, entry.key, entry.bytes, entry.logical_bytes});
      }
    }
  }
  // One entry per (layout, brick): ascending GPU order above means the
  // first copy seen wins the dedupe.
  std::stable_sort(out.begin(), out.end(),
                   [](const WarmBrick& a, const WarmBrick& b) {
                     if (a.key.layout_id != b.key.layout_id)
                       return a.key.layout_id < b.key.layout_id;
                     return a.key.brick_id < b.key.brick_id;
                   });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const WarmBrick& a, const WarmBrick& b) {
                          return a.key.layout_id == b.key.layout_id &&
                                 a.key.brick_id == b.key.brick_id;
                        }),
            out.end());
  return out;
}

void BrickCache::clear() {
  for (Shard& shard : shards_) {
    stats_.arc_p_bytes -= shard.p;
    shard = Shard{};
  }
}

void BrickCache::reset_stats() {
  stats_ = BrickCacheStats{};
  // arc_p_bytes is a gauge over live shard state, not a counter: keep
  // it in sync with the (unreset) per-shard targets.
  for (const Shard& shard : shards_) stats_.arc_p_bytes += shard.p;
}

std::uint64_t BrickCache::resident_bytes(int gpu) const {
  return shard_at(gpu).resident();
}

std::uint64_t BrickCache::resident_logical_bytes(int gpu) const {
  const Shard& shard = shard_at(gpu);
  std::uint64_t bytes = 0;
  for (const std::list<Entry>* list : {&shard.t1, &shard.t2}) {
    for (const Entry& entry : *list) bytes += entry.logical_bytes;
  }
  return bytes;
}

std::size_t BrickCache::resident_bricks(int gpu) const {
  const Shard& shard = shard_at(gpu);
  return shard.t1.size() + shard.t2.size();
}

BrickCache::ArcProbe BrickCache::arc_probe(int gpu) const {
  const Shard& shard = shard_at(gpu);
  ArcProbe probe;
  probe.t1_bytes = shard.t1_bytes;
  probe.t2_bytes = shard.t2_bytes;
  probe.b1_bytes = shard.b1_bytes;
  probe.b2_bytes = shard.b2_bytes;
  probe.t1_entries = shard.t1.size();
  probe.t2_entries = shard.t2.size();
  probe.b1_entries = shard.b1.size();
  probe.b2_entries = shard.b2.size();
  probe.p = shard.p;
  return probe;
}

}  // namespace vrmr::service
