#include "service/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace vrmr::service {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ServiceFrontend::ServiceFrontend(FrontendConfig config)
    : config_(std::move(config)) {
  VRMR_CHECK_MSG(config_.shards >= 1, "frontend needs at least one shard");
  VRMR_CHECK_MSG(config_.gpus_per_shard >= 1,
                 "frontend shards need at least one GPU");
  VRMR_CHECK_MSG(config_.autoscale.min_shards >= 1,
                 "autoscale.min_shards must be >= 1, got "
                     << config_.autoscale.min_shards);
  VRMR_CHECK_MSG(config_.autoscale.max_shards >= 0,
                 "autoscale.max_shards must be >= 0, got "
                     << config_.autoscale.max_shards);
  VRMR_CHECK_MSG(config_.rebalance.skew_ratio >= 1.0,
                 "rebalance.skew_ratio must be >= 1, got "
                     << config_.rebalance.skew_ratio);
  max_farm_shards_ = std::max(config_.shards, config_.autoscale.max_shards);
  shards_.reserve(static_cast<std::size_t>(max_farm_shards_));
  for (int s = 0; s < config_.shards; ++s) shards_.push_back(make_shard(s));
}

ServiceFrontend::~ServiceFrontend() = default;

ServiceFrontend::Shard ServiceFrontend::make_shard(int index) {
  Shard shard;
  shard.engine = std::make_unique<sim::Engine>();
  shard.cluster = std::make_unique<cluster::Cluster>(
      *shard.engine,
      cluster::ClusterConfig::with_total_gpus(config_.gpus_per_shard,
                                              config_.hw));
  shard.service =
      std::make_unique<RenderService>(*shard.cluster, config_.service);
  if (max_farm_shards_ > 1) {
    // One fabric per shard, on that shard's engine, with one "node" per
    // farm SLOT (max_farm_shards_, so shards added later join the same
    // interconnect): hydration INTO shard `index` advances only its
    // timeline (see the Shard::fabric comment). The fabric exists even
    // when hydration is off — migration and failover pushes ride it.
    shard.fabric = std::make_unique<net::Fabric>(
        *shard.engine, config_.handoff.fabric, max_farm_shards_);
    if (config_.handoff.peer_hydration) {
      shard.service->set_hydration_source(
          [this, index](int gpu, const volren::Volume* volume,
                        const BrickKey& key, std::uint64_t stored_bytes,
                        std::function<void()> done) {
            return hydrate(index, gpu, volume, key, stored_bytes,
                           std::move(done));
          });
    }
  }
  return shard;
}

Session ServiceFrontend::open_session(SessionProfile profile) {
  if (profile.pin_shard.has_value()) {
    VRMR_CHECK_MSG(*profile.pin_shard >= 0 && *profile.pin_shard < num_shards(),
                   "pin_shard " << *profile.pin_shard << " out of range for "
                                << num_shards() << " shards");
  }
  auto state = std::make_unique<FrontendSession>();
  state->profile = std::move(profile);
  sessions_.push_back(std::move(state));
  return Session(this, num_sessions() - 1);
}

RenderService& ServiceFrontend::shard(int index) {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "shard " << index << " out of range");
  return *shards_[static_cast<std::size_t>(index)].service;
}

int ServiceFrontend::shard_of(const Session& session) const {
  VRMR_CHECK_MSG(session.valid(), "shard_of on an invalid Session");
  VRMR_CHECK_MSG(static_cast<const SessionBackend*>(this) == session.backend_,
                 "Session belongs to a different backend");
  return sessions_[static_cast<std::size_t>(session.index_)]->shard;
}

bool ServiceFrontend::shard_accepting(int index) const {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "shard " << index << " out of range");
  return shards_[static_cast<std::size_t>(index)].takes_work();
}

bool ServiceFrontend::shard_retired(int index) const {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "shard " << index << " out of range");
  return shards_[static_cast<std::size_t>(index)].retired;
}

void ServiceFrontend::pin_shard(const Session& session, int shard) {
  VRMR_CHECK_MSG(session.valid(), "pin_shard on an invalid Session");
  VRMR_CHECK_MSG(static_cast<const SessionBackend*>(this) == session.backend_,
                 "Session belongs to a different backend");
  VRMR_CHECK_MSG(shard >= 0 && shard < num_shards(),
                 "pin_shard " << shard << " out of range for " << num_shards()
                              << " shards");
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session.index_)];
  if (state.shard >= 0) {
    // Idempotent: pinning a session to the shard it already lives on is
    // a no-op. Moving a placed session through pin_shard is an error —
    // its queued frames and brick residency live on the original shard,
    // and a pin would silently strand them; migrate_session() is the
    // sanctioned path (it moves the queue and warms the target).
    if (state.shard == shard) return;
    VRMR_CHECK_MSG(false, "session '"
                              << state.profile.name
                              << "' is already placed on shard " << state.shard
                              << "; cannot re-pin to shard " << shard
                              << " (use migrate_session to move a placed "
                                 "session)");
  }
  state.profile.pin_shard = shard;  // repeated pins just overwrite
}

int ServiceFrontend::pick_shard(const SessionProfile* profile,
                                const volren::Volume* volume,
                                int exclude_shard) const {
  const auto candidate = [this, exclude_shard](int s) {
    return s != exclude_shard && shards_[static_cast<std::size_t>(s)].takes_work();
  };
  // Pin first. A pin naming a dead or non-accepting shard cannot be
  // honored; placement falls through to the survivors rather than
  // queueing frames a shard will never serve.
  if (profile != nullptr && profile->pin_shard.has_value()) {
    const int pin = *profile->pin_shard;
    if (pin >= 0 && pin < num_shards() && candidate(pin)) return pin;
  }
  // Brick affinity: restrict to candidates where the volume is warm,
  // when any. Then least outstanding predicted cost; ties break on the
  // lowest shard index (determinism). The warm probe scans the shard's
  // cache, so run it once per candidate.
  std::vector<bool> warm(shards_.size(), false);
  bool any_warm = false;
  for (int s = 0; volume != nullptr && s < num_shards(); ++s) {
    if (!candidate(s)) continue;
    warm[static_cast<std::size_t>(s)] =
        shards_[static_cast<std::size_t>(s)].service->volume_warm(volume);
    any_warm = any_warm || warm[static_cast<std::size_t>(s)];
  }
  int best = -1;
  double best_cost = kInf;
  for (int s = 0; s < num_shards(); ++s) {
    if (!candidate(s) || (any_warm && !warm[static_cast<std::size_t>(s)]))
      continue;
    const double cost =
        shards_[static_cast<std::size_t>(s)].service->outstanding_cost_s();
    if (cost < best_cost) {
      best = s;
      best_cost = cost;
    }
  }
  VRMR_CHECK_MSG(best >= 0, "no accepting shard to place on: every other "
                            "shard crashed, is draining or is retired");
  return best;
}

bool ServiceFrontend::any_other_takes_work(int exclude_shard) const {
  for (int s = 0; s < num_shards(); ++s) {
    if (s != exclude_shard && shards_[static_cast<std::size_t>(s)].takes_work())
      return true;
  }
  return false;
}

bool ServiceFrontend::hydrate(int shard_index, int gpu,
                              const volren::Volume* volume, const BrickKey& key,
                              std::uint64_t stored_bytes,
                              std::function<void()> done) {
  (void)gpu;  // the payload lands shard-wide; the plan picks the lane
  // Probe siblings in ascending index order (deterministic replay).
  // BrickKey volume ids are shard-local, so translate through each
  // sibling's own registration before touching its cache.
  Shard& shard = shards_[static_cast<std::size_t>(shard_index)];
  for (int s = 0; s < num_shards(); ++s) {
    if (s == shard_index) continue;
    const Shard& sibling = shards_[static_cast<std::size_t>(s)];
    // A crashed sibling serves nothing, hydration included (its cache
    // is only read by failover()'s warm handoff); a retired one kept
    // its cache but left the farm — skip both.
    if (sibling.service->crashed() || sibling.retired) continue;
    const std::optional<std::uint64_t> vid =
        sibling.service->volume_id_of(volume);
    if (!vid.has_value()) continue;
    const BrickCache* cache = sibling.service->cache();
    if (cache == nullptr) continue;
    const BrickKey sibling_key{*vid, key.brick_id, key.layout_id};
    bool warm = false;
    for (int g = 0; g < config_.gpus_per_shard && !warm; ++g)
      warm = cache->resident(g, sibling_key);
    if (!warm) continue;
    obs::TraceRecorder* trace = trace_;
    std::uint64_t arrow = 0;
    if (trace != nullptr) {
      arrow = trace->next_async_id();
      trace->async_begin(shard.engine->now(), trace_pid_base_ + s, arrow,
                         "hydrate", "hydration",
                         {{"brick", std::to_string(key.brick_id)},
                          {"bytes", std::to_string(stored_bytes)},
                          {"to_shard", std::to_string(shard_index)}});
    }
    // Ship the stored payload over the requesting shard's fabric; the
    // plan resumes (H2D onward) when the transfer lands. Reliable send:
    // an injected drop (fault plan) retransmits instead of wedging the
    // plan forever on a done() that never fires.
    shard.fabric->send_reliable(
        s, shard_index, stored_bytes,
        [trace, arrow, pid = trace_pid_base_ + shard_index,
         engine = shard.engine.get(), done = std::move(done)] {
          if (trace != nullptr) {
            trace->async_end(engine->now(), pid, arrow, "hydrate", "hydration");
          }
          done();
        });
    return true;
  }
  return false;  // no warm sibling: the plan falls back to disk
}

std::uint64_t ServiceFrontend::session_submit(int session, RenderRequest request) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  // Validate before placing: a rejected first submit must not pin the
  // session to a shard chosen from the invalid request.
  VRMR_CHECK_MSG(request.volume != nullptr, "RenderRequest.volume must be set");
  VRMR_CHECK_MSG(std::isfinite(request.arrival_s) && request.arrival_s >= 0.0,
                 "arrival time must be finite and non-negative, got "
                     << request.arrival_s);
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  if (state.shard < 0) {
    // Probe every live shard's registration guard before pinning: a
    // volume reshaped without invalidation must reject the submit no
    // matter which shard placement would pick (its stale registration
    // may live on a shard that has since gone cold), and the session
    // stays free to place elsewhere on retry after invalidate_volume.
    for (const Shard& shard : shards_)
      if (!shard.retired) shard.service->check_volume_compatible(request.volume);
    state.shard = pick_shard(&state.profile, request.volume, -1);
    Shard& shard = shards_[static_cast<std::size_t>(state.shard)];
    state.inner = shard.service->open_session(state.profile);
    ++shard.sessions_placed;
    // Install COPIES of the retained client callbacks: every migration
    // trigger re-installs the originals on the target shard's session.
    if (state.client_callback)
      state.inner.on_frame(translate(session, state.client_callback));
    if (state.client_tile_callback)
      state.inner.on_tile(translate_tile(session, state.client_tile_callback));
    VRMR_DEBUG("frontend") << "session '" << state.profile.name
                           << "' placed on shard " << state.shard;
  }
  return state.inner.submit(std::move(request));
}

FrameCallback ServiceFrontend::translate(int session, FrameCallback callback) {
  // Shard-local session indices collide across shards; deliver records
  // carrying the frontend-wide session index instead.
  return [session, callback = std::move(callback)](const FrameRecord& frame) {
    FrameRecord translated = frame;
    translated.session = session;
    callback(translated);
  };
}

void ServiceFrontend::session_on_frame(int session, FrameCallback callback) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  state.client_callback = std::move(callback);
  if (state.shard >= 0)
    state.inner.on_frame(translate(session, state.client_callback));
}

TileCallback ServiceFrontend::translate_tile(int session, TileCallback callback) {
  return [session, callback = std::move(callback)](const TileRecord& tile) {
    TileRecord translated = tile;
    translated.session = session;
    callback(translated);
  };
}

void ServiceFrontend::session_on_tile(int session, TileCallback callback) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  state.client_tile_callback = std::move(callback);
  if (state.shard >= 0)
    state.inner.on_tile(translate_tile(session, state.client_tile_callback));
}

SessionStats ServiceFrontend::session_stats(int session) const {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  const FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  if (state.shard < 0) {
    SessionStats empty;
    empty.name = state.profile.name;
    empty.priority = state.profile.priority;
    return empty;
  }
  SessionStats agg = state.inner.stats();
  // Epoch merge across migrations: counters sum over every shard the
  // session has lived on, latency means are frame-weighted, and
  // percentiles/max take the worst epoch (conservative — the true
  // merged quantile of two sorted populations is bounded by the worse
  // one's). fps, cost_scale and queued_frames reflect the current
  // epoch: moved frames re-queued on the target and count there.
  for (const Session& past : state.past_inner) {
    const SessionStats p = past.stats();
    const int total = agg.frames + p.frames;
    if (total > 0) {
      agg.mean_latency_s =
          (agg.mean_latency_s * agg.frames + p.mean_latency_s * p.frames) /
          total;
    }
    agg.frames = total;
    agg.p50_latency_s = std::max(agg.p50_latency_s, p.p50_latency_s);
    agg.p95_latency_s = std::max(agg.p95_latency_s, p.p95_latency_s);
    agg.p99_latency_s = std::max(agg.p99_latency_s, p.p99_latency_s);
    agg.max_latency_s = std::max(agg.max_latency_s, p.max_latency_s);
    agg.cache_hits += p.cache_hits;
    agg.cache_misses += p.cache_misses;
    agg.tiles_delivered += p.tiles_delivered;
  }
  return agg;
}

const SessionProfile& ServiceFrontend::session_profile(int session) const {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  return sessions_[static_cast<std::size_t>(session)]->profile;
}

void ServiceFrontend::install_fault_plan(const fault::FaultPlan& plan) {
  // Fabric events install one deterministic injector per addressed
  // shard's fabric; everything else routes to that shard's service.
  struct PendingFabricFault {
    fault::FaultKind kind;
    double time_s;
    std::int64_t msg_seq;  // exact ordinal when >= 0 (FaultEvent::target)
    double extra_delay_s;
    bool consumed = false;
  };
  std::vector<std::vector<PendingFabricFault>> fabric_faults(
      static_cast<std::size_t>(num_shards()));
  for (const fault::FaultEvent& event : plan.events()) {
    VRMR_CHECK_MSG(event.shard >= 0 && event.shard < num_shards(),
                   "fault event addresses shard " << event.shard << " but the "
                   "farm has " << num_shards());
    if (event.kind == fault::FaultKind::FabricDrop ||
        event.kind == fault::FaultKind::FabricDelay) {
      fabric_faults[static_cast<std::size_t>(event.shard)].push_back(
          {event.kind, event.time_s, event.target, event.param_s});
      continue;
    }
    shards_[static_cast<std::size_t>(event.shard)].service->inject_fault(event);
  }
  for (int s = 0; s < num_shards(); ++s) {
    auto& pending = fabric_faults[static_cast<std::size_t>(s)];
    if (pending.empty()) continue;
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    VRMR_CHECK_MSG(shard.fabric != nullptr,
                   "fabric fault addresses shard " << s
                       << " but a single-shard farm has no fabric");
    // Each event fires once: it hits the exact message ordinal when
    // target >= 0, else the first message sent at/after its time_s.
    // Closure state is deterministic — replaying the same plan against
    // the same workload reproduces the same drops bit-for-bit.
    shard.fabric->set_fault_injector(
        [state = std::make_shared<std::vector<PendingFabricFault>>(
             std::move(pending)),
         engine = shard.engine.get()](int, int, std::uint64_t,
                                      std::uint64_t msg_seq) {
          net::FaultDecision decision;
          for (PendingFabricFault& fault : *state) {
            if (fault.consumed) continue;
            const bool hit = fault.msg_seq >= 0
                                 ? static_cast<std::uint64_t>(fault.msg_seq) ==
                                       msg_seq
                                 : engine->now() >= fault.time_s;
            if (!hit) continue;
            fault.consumed = true;
            if (fault.kind == fault::FaultKind::FabricDrop)
              decision.drop = true;
            else
              decision.extra_delay_s += fault.extra_delay_s;
          }
          return decision;
        });
  }
}

void ServiceFrontend::execute_migration(const MigrationPlan& plan) {
  // The one repoint-plus-handoff primitive behind every control-plane
  // trigger. The two triggers differ only in provenance: a crash's
  // frames come from the dead service's snapshot and re-issue against
  // the target's own clock; a voluntary move extracts the live queue
  // and floors arrivals at the decision time (the farm horizon), so
  // moved work cannot time-travel onto an idle target's younger
  // timeline.
  const bool crash = plan.trigger == MigrationPlan::Trigger::Failover;
  const char* repin_name = crash ? "failover.repin" : "migrate.repin";
  const char* push_name = crash ? "failover.push" : "migrate.push";
  const char* category = crash ? "failover" : "migrate";
  VRMR_CHECK_MSG(plan.from_shard >= 0 && plan.from_shard < num_shards(),
                 "migration plan from_shard " << plan.from_shard
                                              << " out of range");
  Shard& source = shards_[static_cast<std::size_t>(plan.from_shard)];

  // Pass 1: repoint every moved session — re-open on the target,
  // re-install the retained client callbacks, and warm the target with
  // the source cache's bricks for that session's moved volumes.
  // Sessions move in plan order (the triggers build them in open
  // order — determinism).
  std::unordered_map<int, int> inner_to_front;  // source-local -> frontend
  std::vector<double> ready_s(sessions_.size(), 0.0);
  for (const MigrationPlan::Move& move : plan.moves) {
    VRMR_CHECK_MSG(move.session >= 0 && move.session < num_sessions(),
                   "migration plan names unknown session " << move.session);
    VRMR_CHECK_MSG(move.target >= 0 && move.target < num_shards() &&
                       move.target != plan.from_shard,
                   "migration plan targets shard " << move.target);
    FrontendSession& state = *sessions_[static_cast<std::size_t>(move.session)];
    inner_to_front[move.source_inner] = move.session;
    Shard& dest = shards_[static_cast<std::size_t>(move.target)];
    SessionProfile profile = state.profile;
    profile.pin_shard.reset();  // the placement decision was already made
    if (!crash) {
      // A voluntary move supersedes any pre-placement pin, and stamps
      // the hysteresis clock the rebalancer consults.
      state.profile.pin_shard.reset();
      state.last_migrated_s = plan.decision_s;
    }
    // The previous epoch's session stays open on the source (its
    // in-flight frame and queued refinements deliver there through the
    // callback copies); session_stats merges its history.
    state.past_inner.push_back(state.inner);
    state.shard = move.target;
    state.inner = dest.service->open_session(std::move(profile));
    ++dest.sessions_placed;
    if (crash)
      ++counters_.sessions_repinned;
    else
      ++counters_.migrations;
    if (state.client_callback)
      state.inner.on_frame(translate(move.session, state.client_callback));
    if (state.client_tile_callback)
      state.inner.on_tile(
          translate_tile(move.session, state.client_tile_callback));
    if (trace_ != nullptr) {
      trace_->instant(dest.engine->now(), trace_pid_base_ + move.target,
                      obs::kServiceTid, repin_name, category,
                      {{"session", std::to_string(move.session)},
                       {"from_shard", std::to_string(plan.from_shard)},
                       {"to_shard", std::to_string(move.target)}});
    }

    // Warm handoff: push the source cache's resident bricks for this
    // session's moved volumes to the target over its fabric, once per
    // (volume, layout) pair. ready_s floors the re-issued frames'
    // arrivals at a serialization-sum estimate of the handoff window —
    // a slight overestimate (per-message latency overlaps in truth), so
    // by then every pushed brick has landed and the frames render warm.
    double session_ready_s = crash
                                 ? dest.engine->now()
                                 : std::max(dest.engine->now(), plan.decision_s);
    if (config_.handoff.prepush && dest.fabric != nullptr &&
        source.service->cache() != nullptr) {
      std::set<std::pair<const volren::Volume*, std::uint64_t>> pushed;
      for (const RenderService::UnservedFrame& frame : plan.frames) {
        if (frame.session != move.source_inner) continue;
        if (frame.layout == nullptr) continue;
        if (!pushed.insert({frame.request.volume, frame.layout_sig}).second)
          continue;
        const std::optional<std::uint64_t> vid =
            source.service->volume_id_of(frame.request.volume);
        if (!vid.has_value()) continue;
        for (const BrickCache::WarmBrick& brick :
             source.service->cache()->warm_bricks_for_volume(*vid)) {
          if (brick.key.layout_id != frame.layout_sig) continue;
          const int gpu = brick.key.brick_id % config_.gpus_per_shard;
          ++counters_.bricks_prepushed;
          counters_.bytes_prepushed += brick.stored_bytes;
          session_ready_s += dest.fabric->ideal_transfer_time(
              plan.from_shard, move.target, brick.stored_bytes);
          obs::TraceRecorder* trace = trace_;
          std::uint64_t arrow = 0;
          if (trace != nullptr) {
            arrow = trace->next_async_id();
            trace->async_begin(dest.engine->now(),
                               trace_pid_base_ + plan.from_shard, arrow,
                               push_name, category,
                               {{"brick", std::to_string(brick.key.brick_id)},
                                {"bytes", std::to_string(brick.stored_bytes)},
                                {"to_shard", std::to_string(move.target)}});
          }
          // send_reliable: an injected drop retransmits — the handoff
          // completes late instead of silently shedding a brick.
          dest.fabric->send_reliable(
              plan.from_shard, move.target, brick.stored_bytes,
              [service = dest.service.get(), volume = frame.request.volume,
               brick_id = brick.key.brick_id, layout_sig = frame.layout_sig,
               gpu, stored = brick.stored_bytes,
               logical = brick.logical_bytes, trace, arrow,
               pid = trace_pid_base_ + move.target,
               engine = dest.engine.get(), push_name, category] {
                if (trace != nullptr) {
                  trace->async_end(engine->now(), pid, arrow, push_name,
                                   category);
                }
                service->admit_pushed_brick(volume, brick_id, layout_sig, gpu,
                                            stored, logical);
              });
        }
      }
    }
    ready_s[static_cast<std::size_t>(move.session)] = session_ready_s;
  }

  // Pass 2: re-issue the moved frames in frame_id order (global
  // submission order on the source), each on its session's new shard,
  // arrival floored at the handoff window so re-issued work renders
  // against the pushed bricks.
  for (const RenderService::UnservedFrame& frame : plan.frames) {
    const auto it = inner_to_front.find(frame.session);
    if (it == inner_to_front.end()) continue;  // not a frontend session
    FrontendSession& state = *sessions_[static_cast<std::size_t>(it->second)];
    RenderRequest request = frame.request;
    request.arrival_s = std::max(
        request.arrival_s, ready_s[static_cast<std::size_t>(it->second)]);
    state.inner.submit(std::move(request));
    if (crash)
      ++counters_.frames_reissued;
    else
      ++counters_.frames_migrated;
  }
}

void ServiceFrontend::failover(int crashed_shard) {
  VRMR_CHECK_MSG(crashed_shard >= 0 && crashed_shard < num_shards(),
                 "failover shard " << crashed_shard << " out of range");
  Shard& crashed = shards_[static_cast<std::size_t>(crashed_shard)];
  VRMR_CHECK_MSG(crashed.service->crashed(),
                 "failover(" << crashed_shard << ") on a live shard");
  if (crashed.failed_over) return;
  crashed.failed_over = true;
  ++counters_.failovers;
  MigrationPlan plan;
  plan.trigger = MigrationPlan::Trigger::Failover;
  plan.from_shard = crashed_shard;
  plan.decision_s = crashed.engine->now();
  plan.frames = crashed.service->unserved_frames();
  VRMR_WARN("frontend") << "shard " << crashed_shard << " crashed with "
                        << plan.frames.size()
                        << " unserved frame(s); failing over";
  // Each orphan picks its target independently through pick_shard with
  // no pin and no volume — least outstanding cost among the survivors,
  // ties to the lowest index — so a big crash spreads over the farm
  // instead of dogpiling one sibling. (Nothing below changes
  // outstanding cost until the frames re-issue in pass 2, so picking
  // all targets up front is equivalent to interleaving.)
  for (int session = 0; session < num_sessions(); ++session) {
    const FrontendSession& state =
        *sessions_[static_cast<std::size_t>(session)];
    if (state.shard != crashed_shard) continue;
    plan.moves.push_back({session, pick_shard(nullptr, nullptr, crashed_shard),
                          state.inner.index_});
  }
  execute_migration(plan);
}

MigrationPlan ServiceFrontend::plan_voluntary(int session, int target_shard,
                                              double decision_s) {
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  const int source = state.shard;
  VRMR_CHECK_MSG(source >= 0, "cannot migrate an unplaced session");
  Shard& src = shards_[static_cast<std::size_t>(source)];
  // Validate the destination (or that one exists) BEFORE extracting the
  // live queue, so a CHECK-failure cannot strand extracted frames.
  if (target_shard >= 0) {
    VRMR_CHECK_MSG(target_shard < num_shards(),
                   "migrate target " << target_shard << " out of range for "
                                     << num_shards() << " shards");
    VRMR_CHECK_MSG(target_shard != source,
                   "migrate target equals the session's current shard "
                       << source);
    VRMR_CHECK_MSG(shards_[static_cast<std::size_t>(target_shard)].takes_work(),
                   "migrate target " << target_shard << " is not accepting");
  } else {
    VRMR_CHECK_MSG(any_other_takes_work(source),
                   "no other accepting shard to migrate session '"
                       << state.profile.name << "' onto");
  }
  MigrationPlan plan;
  plan.trigger = MigrationPlan::Trigger::Voluntary;
  plan.from_shard = source;
  plan.decision_s = decision_s;
  // Frame-boundary extraction: queued frames move; the in-flight frame
  // (if any) and queued refinements stay and deliver on the source.
  plan.frames = src.service->extract_session_frames(state.inner.index_);
  if (target_shard < 0) {
    const volren::Volume* volume =
        plan.frames.empty() ? nullptr : plan.frames.front().request.volume;
    target_shard = pick_shard(&state.profile, volume, source);
  }
  plan.moves.push_back({session, target_shard, state.inner.index_});
  return plan;
}

void ServiceFrontend::migrate_session(const Session& session,
                                      int target_shard) {
  VRMR_CHECK_MSG(session.valid(), "migrate_session on an invalid Session");
  VRMR_CHECK_MSG(static_cast<const SessionBackend*>(this) == session.backend_,
                 "Session belongs to a different backend");
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session.index_)];
  VRMR_CHECK_MSG(state.shard >= 0,
                 "migrate_session on unplaced session '" << state.profile.name
                     << "'; placement happens at its first submit");
  if (target_shard >= 0 && target_shard == state.shard) return;  // no-op
  VRMR_CHECK_MSG(
      !shards_[static_cast<std::size_t>(state.shard)].service->crashed(),
      "session '" << state.profile.name << "' is on crashed shard "
                  << state.shard << "; failover() relocates crash orphans");
  MigrationPlan plan = plan_voluntary(session.index_, target_shard, farm_now());
  execute_migration(plan);
  VRMR_DEBUG("frontend") << "session '" << state.profile.name
                         << "' migrated from shard " << plan.from_shard
                         << " to shard " << state.shard << " ("
                         << plan.frames.size() << " frame(s) moved)";
}

int ServiceFrontend::add_shard() {
  VRMR_CHECK_MSG(
      num_shards() < max_farm_shards_,
      "add_shard: farm already at slot capacity "
          << max_farm_shards_
          << " (the fabric was wired for max(shards, autoscale.max_shards) "
             "nodes at construction; retired slots are not reused)");
  const int index = num_shards();
  const double join_s = farm_now();
  Shard shard = make_shard(index);
  if (join_s > 0.0) {
    // Align the new shard's timeline with the farm: its engine joins at
    // the current farm time, not at 0, so frames placed here cannot
    // render in the farm's past.
    shard.engine->schedule_at(join_s, [] {});
    shard.engine->run();
  }
  shard.active_from_s = join_s;
  shards_.push_back(std::move(shard));
  Shard& added = shards_.back();
  if (trace_ != nullptr) {
    added.service->set_trace(trace_, trace_pid_base_ + index);
    trace_->instant(join_s, trace_pid_base_ + index, obs::kServiceTid,
                    "scale.up", "scale",
                    {{"shard", std::to_string(index)},
                     {"farm_shards", std::to_string(num_shards())}});
  }
  ++counters_.shards_added;
  VRMR_INFO("frontend") << "scale up: shard " << index << " joined at t="
                        << join_s;
  return index;
}

void ServiceFrontend::drain_shard(int index) {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "drain_shard " << index << " out of range");
  Shard& shard = shards_[static_cast<std::size_t>(index)];
  if (shard.retired) return;  // idempotent
  VRMR_CHECK_MSG(!shard.service->crashed(),
                 "drain_shard(" << index
                                << ") on a crashed shard; failover() handles "
                                   "crashes");
  VRMR_CHECK_MSG(any_other_takes_work(index),
                 "drain_shard(" << index
                                << "): no other accepting shard to migrate its "
                                   "sessions onto");
  const double decision_s = farm_now();
  shard.accepting = false;  // placement and migration stop targeting it
  int migrated = 0;
  for (int session = 0; session < num_sessions(); ++session) {
    if (sessions_[static_cast<std::size_t>(session)]->shard != index) continue;
    // One plan per session: each picks its target against the farm as
    // the previous moves left it, so a big drain spreads over the farm.
    execute_migration(plan_voluntary(session, -1, decision_s));
    ++migrated;
  }
  // Serve what stayed behind (queued refinements of already-delivered
  // previews and their cascades): the shard retires with zero orphaned
  // frames.
  shard.service->drain();
  shard.retired = true;
  shard.active_to_s = std::max(decision_s, shard.engine->now());
  ++counters_.shards_drained;
  if (trace_ != nullptr) {
    trace_->instant(shard.engine->now(), trace_pid_base_ + index,
                    obs::kServiceTid, "scale.down", "scale",
                    {{"shard", std::to_string(index)},
                     {"sessions_migrated", std::to_string(migrated)}});
  }
  VRMR_INFO("frontend") << "scale down: shard " << index << " retired at t="
                        << shard.active_to_s << " (" << migrated
                        << " session(s) migrated off)";
}

int ServiceFrontend::rebalance_pass(double now_s) {
  const RebalanceConfig& rb = config_.rebalance;
  if (!rb.enabled) return 0;
  int moved = 0;
  for (int pass = 0; pass < std::max(1, rb.max_moves_per_pass); ++pass) {
    // Hottest / coldest accepting shard by outstanding predicted cost.
    int hot = -1, cold = -1;
    double hot_cost = -1.0, cold_cost = kInf;
    for (int s = 0; s < num_shards(); ++s) {
      const Shard& shard = shards_[static_cast<std::size_t>(s)];
      if (!shard.takes_work()) continue;
      const double cost = shard.service->outstanding_cost_s();
      if (cost > hot_cost) {
        hot = s;
        hot_cost = cost;
      }
      if (cost < cold_cost) {
        cold = s;
        cold_cost = cost;
      }
    }
    if (hot < 0 || cold < 0 || hot == cold) break;
    const double gap = hot_cost - cold_cost;
    // Relative skew gate (scale-free): a uniformly loaded or uniformly
    // idle farm never churns.
    if (hot_cost <= 0.0) break;
    if (hot_cost <= rb.skew_ratio * std::max(cold_cost, 1e-12)) break;
    // Candidate: the hot shard's session whose move best balances the
    // pair — minimize |gap - 2*cost| — skipping sessions inside the
    // hysteresis window and ones whose move would only swap the skew
    // (cost >= gap). Ties to the lowest session index (determinism).
    const Shard& hot_shard = shards_[static_cast<std::size_t>(hot)];
    int best_session = -1;
    double best_score = kInf;
    for (int session = 0; session < num_sessions(); ++session) {
      const FrontendSession& state =
          *sessions_[static_cast<std::size_t>(session)];
      if (state.shard != hot) continue;
      if (now_s - state.last_migrated_s < rb.hysteresis_s) continue;
      const double cost =
          hot_shard.service->outstanding_cost_for_session(state.inner.index_);
      if (cost <= 0.0 || cost >= gap) continue;
      const double score = std::abs(gap - 2.0 * cost);
      if (score < best_score) {
        best_session = session;
        best_score = score;
      }
    }
    if (best_session < 0) break;
    // Target through pick_shard (warm affinity may beat the literal
    // coldest shard), with the hot source excluded.
    execute_migration(plan_voluntary(best_session, -1, now_s));
    ++counters_.rebalance_migrations;
    ++moved;
  }
  return moved;
}

void ServiceFrontend::autoscale_pass() {
  const AutoscaleConfig& as = config_.autoscale;
  if (!as.enabled) return;
  int active = 0;
  double backlog = 0.0;
  for (const Shard& shard : shards_) {
    if (!shard.takes_work()) continue;
    ++active;
    backlog += shard.service->outstanding_cost_s();
  }
  if (active == 0) return;
  const double per_shard = backlog / static_cast<double>(active);
  if (per_shard > as.scale_up_backlog_s && num_shards() < max_farm_shards_) {
    add_shard();
    return;
  }
  if (per_shard <= as.scale_down_backlog_s &&
      active > std::max(1, as.min_shards)) {
    // Retire the least-loaded accepting shard; ties to the HIGHEST
    // index (newest-first elasticity — added shards leave first).
    int victim = -1;
    double victim_cost = kInf;
    for (int s = 0; s < num_shards(); ++s) {
      const Shard& shard = shards_[static_cast<std::size_t>(s)];
      if (!shard.takes_work()) continue;
      const double cost = shard.service->outstanding_cost_s();
      if (cost <= victim_cost) {
        victim = s;
        victim_cost = cost;
      }
    }
    if (victim >= 0) drain_shard(victim);
  }
}

double ServiceFrontend::farm_now() const {
  double now = 0.0;
  for (const Shard& shard : shards_)
    now = std::max(now, shard.engine->now());
  return now;
}

void ServiceFrontend::drain() {
  const bool control = config_.rebalance.enabled || config_.autoscale.enabled;
  const double period = control ? config_.rebalance.period_s : 0.0;

  // Horizon rounds: advance every live shard to a shared farm-time
  // horizon (RenderService::drain_until stops admitting at the horizon
  // and lets the event cascade die at a frame boundary; in-flight
  // frames complete past it), then run the control passes at that
  // boundary, then move the horizon forward. The next horizon is
  // floored at the farm clock (completions may legitimately end past
  // the horizon) and jumped over arrival gaps (an idle farm does not
  // spin rounds waiting for a far-future submit). Without a control
  // plane or a period the horizon is +inf: a round serves everything
  // queued, and the passes run at the farm clock once it has.
  //
  // Within a round, loop until no shard makes progress: a callback
  // running on one shard may submit frames that place onto an
  // already-served shard (brick affinity). A shard that crashed
  // mid-round fails over on the next sweep: its sessions re-pin and its
  // unserved frames re-issue onto survivors, which the loop then serves.
  double horizon = period > 0.0 ? farm_now() + period : kInf;
  while (true) {
    bool served = true;
    while (served) {
      served = false;
      for (int s = 0; s < num_shards(); ++s) {
        Shard& shard = shards_[static_cast<std::size_t>(s)];
        if (shard.retired) continue;
        if (shard.service->crashed()) {
          if (!shard.failed_over) {
            failover(s);
            served = true;
          }
          continue;
        }
        const int before = shard.service->queued_frames();
        if (before == 0) continue;
        const double clock_before = shard.engine->now();
        shard.service->drain_until(horizon);
        if (shard.service->queued_frames() < before ||
            shard.engine->now() > clock_before)
          served = true;
      }
    }
    const double pass_s = std::isinf(horizon) ? farm_now() : horizon;
    autoscale_pass();  // capacity first; the rebalancer fills it
    const int moves = rebalance_pass(pass_s);
    int queued = 0;
    double min_arrival = kInf;
    for (const Shard& shard : shards_) {
      if (shard.retired || shard.service->crashed()) continue;
      const int q = shard.service->queued_frames();
      queued += q;
      if (q > 0)
        min_arrival = std::min(min_arrival, shard.service->next_arrival_s());
    }
    if (queued == 0 && moves == 0) break;
    double next = std::max(horizon + period, farm_now());
    // Arrival-gap jump. Strictly above min_arrival: the admission gate
    // blocks arrivals AT the horizon, so a horizon equal to the next
    // arrival would spin.
    if (min_arrival < kInf && min_arrival >= next)
      next = min_arrival + period;
    horizon = next;
  }
}

void ServiceFrontend::invalidate_volume(const volren::Volume* volume) {
  for (Shard& shard : shards_) shard.service->invalidate_volume(volume);
}

void ServiceFrontend::set_trace(obs::TraceRecorder* recorder, int pid_base) {
  trace_ = recorder;
  trace_pid_base_ = pid_base;
  for (int s = 0; s < num_shards(); ++s) {
    shards_[static_cast<std::size_t>(s)].service->set_trace(recorder,
                                                            pid_base + s);
  }
}

FrontendStats ServiceFrontend::stats() const {
  FrontendStats out = counters_;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    ShardStats detail;
    detail.shard = s;
    detail.sessions = shard.sessions_placed;
    detail.retired = shard.retired;
    detail.active_from_s = shard.active_from_s;
    detail.active_to_s = shard.active_to_s;
    detail.service = shard.service->stats();
    out.frames_total += detail.service.frames_total;
    out.makespan_s = std::max(out.makespan_s, detail.service.makespan_s);
    out.bytes_h2d_saved += detail.service.bytes_h2d_saved;
    out.bytes_hydrated_from_peers += detail.service.bytes_hydrated;
    hits += detail.service.cache.hits;
    misses += detail.service.cache.misses;
    out.shards.push_back(std::move(detail));
  }
  out.fps = out.makespan_s > 0.0 ? out.frames_total / out.makespan_s : 0.0;
  out.cache_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;

  // Time-aligned farm windows: shards share bin boundaries (same
  // stats_window_s on parallel simulated timelines), so merging keys on
  // the bin index — llround is exact for start_s values the shards
  // themselves computed as bin * width. Counters sum (each farm bin
  // partitions exactly into the shard bins it merged); utilization is
  // re-derived over the farm's TIME-VARYING capacity: each bin
  // integrates the shards actually active during it, so a farm that
  // scaled mid-run reports utilization against what it actually had.
  const double width = config_.service.stats_window_s;
  if (width > 0.0) {
    std::map<std::int64_t, ServiceWindow> merged;
    for (const ShardStats& detail : out.shards) {
      for (const ServiceWindow& w : detail.service.windows) {
        ServiceWindow& m = merged[std::llround(w.start_s / width)];
        m.start_s = w.start_s;
        m.window_s = width;
        m.frames_finished += w.frames_finished;
        m.quanta_issued += w.quanta_issued;
        m.preemptions += w.preemptions;
        m.tiles += w.tiles;
        m.gpu_busy_s += w.gpu_busy_s;
      }
    }
    out.windows.reserve(merged.size());
    for (auto& [bin, window] : merged) {
      const double bin_lo = static_cast<double>(bin) * width;
      const double bin_hi = bin_lo + width;
      double capacity = 0.0;
      for (const Shard& shard : shards_) {
        const double overlap = std::min(bin_hi, shard.active_to_s) -
                               std::max(bin_lo, shard.active_from_s);
        if (overlap > 0.0)
          capacity += overlap * static_cast<double>(config_.gpus_per_shard);
      }
      window.utilization =
          capacity > 0.0
              ? std::min(1.0, std::max(0.0, window.gpu_busy_s / capacity))
              : 0.0;
      out.windows.push_back(window);
    }
  }
  return out;
}

}  // namespace vrmr::service
