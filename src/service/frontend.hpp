#pragma once

// ServiceFrontend: a sharded serving tier over N independent clusters.
//
// The paper dedicates one cluster to one frame; RenderService
// multiplexes sessions onto one cluster; this frontend owns N
// (engine, cluster, RenderService) shards and places each session onto
// one of them, behind the same Session-handle API — clients cannot tell
// a sharded deployment from a single backend.
//
// Placement happens lazily on the session's FIRST submit (only then is
// the volume known), by one rule:
//
//   1. pin — a SessionProfile::pin_shard naming a live, accepting
//      shard is honored;
//   2. brick affinity — shards where the volume already has warm bricks
//      are preferred (a returning user's dataset is still resident);
//   3. least outstanding cost — among candidates, the shard whose
//      queued frames sum to the smallest predicted cost
//      (RenderService::outstanding_cost_s) wins; ties go to the lowest
//      shard index.
//
// The same rule picks every migration target (a crash target has no
// volume to be warm for and never honors a pin, so failover reduces to
// the least-loaded survivor). A session's placement is no longer
// forever: the frontend's CONTROL PLANE moves placed sessions at frame
// boundaries through one shared migration primitive (MigrationPlan →
// execute_migration) with three triggers — failover() (crash),
// migrate_session() / the steady-state rebalancer (voluntary), and
// drain_shard() (elastic scale-down).
// Every trigger re-opens the session on the target, re-installs the
// RETAINED client callbacks, pre-pushes the source cache's warm bricks
// over the inter-shard fabric (HandoffConfig), and re-issues the moved
// frames in frame_id order with arrivals floored past the handoff
// window, so the first post-move frame renders warm.
//
// Shards simulate independent timelines: drain() drains them back to
// back on the host, but the simulated farm runs them in parallel, so
// aggregate makespan is the max over shards and aggregate fps is
// frames / that max. drain() proceeds in HORIZON ROUNDS — every shard
// drains to a shared farm-time horizon (RenderService::drain_until),
// then the control passes run at that frame boundary. Without a
// control plane (or with RebalanceConfig::period_s <= 0) the horizon is
// +inf: one round drains everything. Placement, migration and
// per-shard scheduling are all deterministic, so identical workloads
// replay byte-identical schedules.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "service/render_service.hpp"
#include "service/session.hpp"
#include "sim/engine.hpp"

namespace vrmr::service {

/// Shard-to-shard byte movement: peer hydration of cache misses and
/// the warm-brick handoff that rides every migration trigger.
struct HandoffConfig {
  /// A shard missing a brick asks its siblings' caches BEFORE reading
  /// disk, and a warm sibling ships the stored (compressed) payload
  /// over the inter-shard fabric — a cold shard warms from the farm
  /// instead of re-reading every brick. Off by default: hydration
  /// reroutes misses, which shifts timings and telemetry that replay
  /// baselines compare against. Pays off for out-of-core serving
  /// (RenderOptions::include_disk_io); for in-core frames it only
  /// inserts a fabric hop before the H2D copy.
  bool peer_hydration = false;
  /// Interconnect model for every shard-to-shard transfer (each shard
  /// is one "node" on a per-shard fabric instance).
  net::FabricModel fabric;
  /// Warm handoff on every migration trigger: pre-push the source
  /// shard's resident bricks for the moved volumes to the target
  /// (send_reliable, so injected drops retransmit) and floor the
  /// re-issued frames' arrivals past the handoff window — they render
  /// warm instead of re-reading disk. The source is the dead shard's
  /// cache on a crash failover and the still-live origin's on a
  /// voluntary move (migrate_session, the rebalancer, drain_shard).
  /// Off: moved frames re-read disk on the target (the A/B baseline
  /// bench_fault_tolerance and bench_elastic_farm gate against).
  bool prepush = true;
};

/// Steady-state rebalancer: a periodic control pass (inside drain())
/// that reads the farm's windowed load and outstanding cost, detects
/// sustained skew, and migrates sessions off the hottest shard toward
/// the shard where their bricks are warm or outstanding cost is
/// lowest. `period_s` is also the cadence of the autoscale pass.
struct RebalanceConfig {
  bool enabled = false;
  /// Farm-time cadence of the control passes: drain() advances every
  /// shard to a shared horizon (RenderService::drain_until), runs the
  /// passes at that frame boundary, and repeats. <= 0 runs the passes
  /// only once the farm is drained — fine for the autoscaler's
  /// scale-down, useless for rebalancing a backlog (the drain already
  /// served it); set a period comparable to service.stats_window_s
  /// for steady-state behaviour.
  double period_s = 0.0;
  /// Trigger: hottest outstanding cost > skew_ratio x coldest, so a
  /// uniformly loaded or uniformly idle farm never churns.
  double skew_ratio = 2.0;
  /// Hysteresis against ping-ponging: a session migrated at farm time
  /// t is not migrated again before t + hysteresis_s.
  double hysteresis_s = 0.0;
  /// At most this many session moves per control pass.
  int max_moves_per_pass = 1;
};

/// Elastic shard count: add_shard() / drain_shard() driven by the
/// aggregate backlog, at the same cadence as RebalanceConfig::period_s.
struct AutoscaleConfig {
  bool enabled = false;
  /// The farm never drains below this many accepting shards.
  int min_shards = 1;
  /// Farm capacity: the fabric is wired for max(shards, max_shards)
  /// nodes at construction, so shards added later join the existing
  /// interconnect. add_shard() beyond this is an error. 0 means the
  /// initial shard count (no growth capacity).
  int max_shards = 0;
  /// Scale up when mean outstanding cost per accepting shard exceeds
  /// this many (simulated) seconds of backlog.
  double scale_up_backlog_s = 0.5;
  /// Scale down (drain the least-loaded shard) when mean backlog per
  /// accepting shard falls to/below this.
  double scale_down_backlog_s = 0.01;
};

/// One computed relocation, shared by every control-plane trigger:
/// failover() (crash — frames come from the crash snapshot),
/// migrate_session() / the rebalancer (voluntary — the live queue is
/// extracted), and drain_shard() (voluntary, every session of the
/// shard). execute_migration() re-opens each session on its target,
/// re-installs the retained client callbacks, pre-pushes warm bricks
/// (HandoffConfig), and re-issues `frames` in frame_id order.
struct MigrationPlan {
  enum class Trigger { Failover, Voluntary };
  Trigger trigger = Trigger::Voluntary;
  int from_shard = -1;
  struct Move {
    int session = -1;      ///< frontend session index
    int target = -1;       ///< destination shard
    int source_inner = -1; ///< the session's index on from_shard
  };
  /// Sessions to repoint, in open order (determinism).
  std::vector<Move> moves;
  /// Frames to re-issue, frame_id ascending (global submission order);
  /// UnservedFrame::session is the SOURCE-local inner index.
  std::vector<RenderService::UnservedFrame> frames;
  /// Farm time of the decision: re-issued arrivals are floored at
  /// max(decision_s, target clock) plus the handoff window, so moved
  /// work cannot time-travel onto an idle target's younger timeline.
  double decision_s = 0.0;
};

struct FrontendConfig {
  int shards = 2;
  int gpus_per_shard = 4;
  /// Hardware model for every shard's cluster (packed four GPUs per
  /// node, like the paper's).
  cluster::HardwareModel hw = cluster::HardwareModel::ncsa_accelerator_cluster();
  /// Per-shard RenderService configuration (policy, cache, ...).
  /// Adaptive quality flows through unchanged: each shard runs its own
  /// SLO controller (service.interactive_slo_s) and
  /// per-session quality floors (SessionProfile::quality) ride the
  /// profile to whichever shard placement picks.
  ServiceConfig service;

  // --- control plane ------------------------------------------------------
  HandoffConfig handoff;
  RebalanceConfig rebalance;
  AutoscaleConfig autoscale;
};

struct ShardStats {
  int shard = 0;
  int sessions = 0;  // sessions placed on this shard (lifetime)
  /// Elastic lifecycle: the farm-time interval this shard has been
  /// serving capacity. Initial shards activate at 0; added shards at
  /// their add_shard() farm time; a drained shard's active_to_s is its
  /// retirement time (+inf while active).
  bool retired = false;
  double active_from_s = 0.0;
  double active_to_s = std::numeric_limits<double>::infinity();
  /// Peer hydration (HandoffConfig::peer_hydration) is counted in
  /// service.{chunks_hydrated, bytes_hydrated}.
  ServiceStats service;
};

/// Cross-shard aggregate; per-shard detail in `shards`.
struct FrontendStats {
  int frames_total = 0;
  /// Shards run in parallel in the simulated farm: the farm's makespan
  /// is the slowest shard's serving window.
  double makespan_s = 0.0;
  double fps = 0.0;  // frames_total / makespan
  double cache_hit_rate = 0.0;  // hits / (hits+misses) across shards
  std::uint64_t bytes_h2d_saved = 0;
  /// Farm-wide peer hydration: stored bytes shards received from warm
  /// siblings instead of reading disk (the sum of every shard's
  /// ServiceStats::bytes_hydrated, so completed frames' chunks only).
  std::uint64_t bytes_hydrated_from_peers = 0;
  /// Failover: crashed shards failed over, orphaned sessions re-pinned
  /// to siblings, undelivered frames re-issued there.
  std::uint64_t failovers = 0;
  std::uint64_t sessions_repinned = 0;
  std::uint64_t frames_reissued = 0;
  /// Warm handoff traffic, shared by BOTH triggers (crash pre-push and
  /// voluntary migration pre-push ride the same fabric path).
  std::uint64_t bricks_prepushed = 0;
  std::uint64_t bytes_prepushed = 0;
  /// Voluntary moves: migrate_session / rebalancer / drain_shard
  /// session relocations and the live queued frames that moved along.
  std::uint64_t migrations = 0;
  std::uint64_t frames_migrated = 0;
  /// The subset of `migrations` the steady-state rebalancer triggered.
  std::uint64_t rebalance_migrations = 0;
  /// Elastic shard count: shards added / drained since construction.
  std::uint64_t shards_added = 0;
  std::uint64_t shards_drained = 0;
  /// Time-aligned farm windows: every shard's ServiceStats::windows
  /// merged by bin (shards share bin boundaries — same stats_window_s,
  /// parallel simulated timelines), counters summed, utilization over
  /// the farm's TIME-VARYING capacity: each bin's capacity integrates
  /// the shards actually active during it (ShardStats::active_from_s /
  /// active_to_s x gpus_per_shard), so a farm that scaled mid-run
  /// reports utilization against what it actually had, not against a
  /// constant shard count. A bin's counters partition exactly into the
  /// per-shard bins it merged.
  std::vector<ServiceWindow> windows;
  std::vector<ShardStats> shards;
};

class ServiceFrontend final : public SessionBackend {
 public:
  explicit ServiceFrontend(FrontendConfig config = {});
  ~ServiceFrontend() override;

  ServiceFrontend(const ServiceFrontend&) = delete;
  ServiceFrontend& operator=(const ServiceFrontend&) = delete;

  /// Admit a session. Shard placement is deferred to its first submit.
  Session open_session(SessionProfile profile);
  Session open_session(std::string name, Priority priority = Priority::Batch) {
    SessionProfile profile;
    profile.name = std::move(name);
    profile.priority = priority;
    return open_session(std::move(profile));
  }

  /// Drain every shard's queue (each on its own simulated timeline).
  /// With the rebalancer or autoscaler enabled, drains in horizon
  /// rounds and runs the control passes between them (see the header
  /// comment).
  void drain();

  /// Attach one flight recorder to every shard: shard i records as
  /// trace process pid_base + i, so a single exported file opens the
  /// whole farm in Perfetto with one process block per shard (pass a
  /// nonzero pid_base when other timelines already share the
  /// recorder). nullptr detaches. Shards added later inherit it.
  void set_trace(obs::TraceRecorder* recorder, int pid_base = 0);

  /// Cross-shard aggregate statistics, queryable at any time.
  FrontendStats stats() const;

  /// Forward to every shard (the volume may be warm on any of them).
  void invalidate_volume(const volren::Volume* volume);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_sessions() const { return static_cast<int>(sessions_.size()); }
  RenderService& shard(int index);
  /// Shard a frontend session landed on; -1 while still unplaced.
  int shard_of(const Session& session) const;
  /// False once drain_shard() marked the shard draining/retired (or it
  /// crashed): placement and migration will not target it.
  bool shard_accepting(int index) const;
  bool shard_retired(int index) const;

  // --- control plane ------------------------------------------------------
  /// Voluntarily migrate a placed session at a frame boundary: its
  /// queued frames are extracted live (no crash snapshot), the session
  /// re-opens on `target_shard` (-1 lets the placement rule choose
  /// among the other accepting shards), retained client callbacks are
  /// re-installed, the source cache's warm bricks for the moved
  /// frames' volumes are pre-pushed (HandoffConfig::prepush)
  /// and the frames re-issue in order with arrivals floored past the
  /// handoff window. A frame of the session already in flight on the
  /// source finishes and delivers THERE (its callbacks remain
  /// installed); queued refinements also stay and serve on the source.
  /// Frame ids are not stable across the move; submission order is.
  void migrate_session(const Session& session, int target_shard = -1);

  /// Grow the farm: construct shard N (engine, cluster, service,
  /// fabric node N), aligned to the current farm time, and open it for
  /// placement. Requires growth capacity (AutoscaleConfig::max_shards
  /// — the fabric was wired for that many nodes at construction).
  /// Returns the new shard's index. Emits a `scale.up` trace instant.
  int add_shard();

  /// Shrink the farm: stop placing onto `index`, migrate every placed
  /// session off it (the placement rule picks each target), serve any
  /// remaining internal work, then retire the shard — it serves
  /// nothing afterwards and its windows capacity contribution ends at
  /// the retirement time. Its serving history stays in stats(). Emits
  /// a `scale.down` trace instant. Requires another accepting shard.
  void drain_shard(int index);

  // --- fault injection & failover ----------------------------------------
  /// Install a seeded fault plan across the farm: each event is routed
  /// to its `shard`'s RenderService (disk/lane/crash faults), except
  /// FabricDrop/FabricDelay, which install one deterministic injector
  /// on the target shard's inter-shard fabric — the drop/delay applies
  /// to that shard's inbound hydration and handoff-push messages,
  /// seeded from the plan so replays are bit-identical.
  void install_fault_plan(const fault::FaultPlan& plan);
  /// Fail over a crashed shard: re-pin its sessions onto surviving
  /// siblings (least outstanding cost, ties to the lowest index),
  /// pre-push the crashed cache's warm bricks for the orphaned volumes
  /// (HandoffConfig::prepush), and re-issue the crash
  /// snapshot (RenderService::unserved_frames) in global submission
  /// order — all through the same execute_migration() primitive the
  /// voluntary paths use. drain() calls this automatically when it
  /// meets a crashed shard; idempotent.
  void failover(int crashed_shard);
  /// Pin an UNPLACED session to a shard ahead of its first submit
  /// (sets SessionProfile::pin_shard; placement honors it).
  /// Range-validated; idempotent — re-pinning to the same shard (or
  /// pinning a session already placed there) is a no-op, while moving
  /// an already-placed session is an error: use migrate_session().
  void pin_shard(const Session& session, int shard);

  // --- SessionBackend (prefer the Session handle) ------------------------
  std::uint64_t session_submit(int session, RenderRequest request) override;
  void session_on_frame(int session, FrameCallback callback) override;
  void session_on_tile(int session, TileCallback callback) override;
  /// Migration-aware: counters (frames, cache hits/misses, tiles) sum
  /// over every shard the session has lived on; latency means are
  /// frame-weighted across epochs, percentiles/max are the worst
  /// epoch's (conservative). fps reflects the current epoch only.
  SessionStats session_stats(int session) const override;
  const SessionProfile& session_profile(int session) const override;

 private:
  struct Shard {
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<RenderService> service;
    /// Hydration transfers INTO this shard run on its own engine (a
    /// sibling's residency probe is pure bookkeeping; only the
    /// requesting shard's timeline advances — the bulk-synchronous
    /// approximation the frontend's parallel-timelines model already
    /// makes for placement).
    std::unique_ptr<net::Fabric> fabric;
    int sessions_placed = 0;
    /// Set once failover() has evacuated this crashed shard.
    bool failed_over = false;
    /// Elastic lifecycle: accepting=false while draining and after
    /// retirement; retired shards serve nothing and are skipped
    /// everywhere (placement, hydration, drain rounds).
    bool accepting = true;
    bool retired = false;
    double active_from_s = 0.0;
    double active_to_s = std::numeric_limits<double>::infinity();

    /// Placement, migration and the control passes may target it:
    /// alive and accepting (draining clears `accepting` before the
    /// shard retires).
    bool takes_work() const { return accepting && !service->crashed(); }
  };
  struct FrontendSession {
    SessionProfile profile;
    /// Client callbacks are RETAINED (not moved into the inner session):
    /// every migration trigger re-installs them on the target shard's
    /// session.
    FrameCallback client_callback;
    TileCallback client_tile_callback;
    int shard = -1;
    Session inner;  // valid once placed
    /// Earlier placements' inner sessions (failover and voluntary
    /// moves): session_stats merges their served history.
    std::vector<Session> past_inner;
    /// Farm time of the last migration (rebalancer hysteresis).
    double last_migrated_s = -std::numeric_limits<double>::infinity();
  };

  /// Build one shard (used by the constructor and add_shard).
  Shard make_shard(int index);
  /// The placement rule (see the header comment) over the alive,
  /// accepting shards other than `exclude_shard` (a migration's
  /// source). A null profile honors no pin; a null volume is warm
  /// nowhere. CHECK-fails when no shard qualifies.
  int pick_shard(const SessionProfile* profile, const volren::Volume* volume,
                 int exclude_shard) const;
  /// True when some shard other than `exclude_shard` takes work.
  bool any_other_takes_work(int exclude_shard) const;
  /// Compute a voluntary plan for one session: extract its live queue
  /// from the source shard and pick the target (pick_shard when < 0).
  MigrationPlan plan_voluntary(int session, int target_shard,
                               double decision_s);
  /// The shared repoint-plus-handoff core (see MigrationPlan).
  void execute_migration(const MigrationPlan& plan);
  /// Steady-state control passes, run at horizon frame boundaries.
  /// rebalance_pass returns the number of sessions it moved.
  int rebalance_pass(double now_s);
  void autoscale_pass();
  /// Max simulated time over live shards — the farm clock.
  double farm_now() const;
  /// The HydrationSource installed on every shard: probe siblings for a
  /// warm copy of (volume -> their id, key.brick_id, key.layout_id) and
  /// ship it over the requesting shard's fabric. Returns false (disk
  /// fallback) when no sibling holds the brick.
  bool hydrate(int shard_index, int gpu, const volren::Volume* volume,
               const BrickKey& key, std::uint64_t stored_bytes,
               std::function<void()> done);
  /// Wrap a client callback so delivered records carry the
  /// frontend-wide session index, not the shard-local one.
  static FrameCallback translate(int session, FrameCallback callback);
  static TileCallback translate_tile(int session, TileCallback callback);

  FrontendConfig config_;
  /// Farm capacity: max(config.shards, autoscale.max_shards) — the
  /// node count every fabric was wired with.
  int max_farm_shards_ = 0;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<FrontendSession>> sessions_;
  /// Kept for hydrate()'s shard-to-shard arrows (set_trace already
  /// forwards the recorder to every shard for their own spans).
  obs::TraceRecorder* trace_ = nullptr;
  int trace_pid_base_ = 0;
  /// Control-plane counters (failover, handoff, migration, elastic),
  /// incremented in place; stats() copies them and adds the shard
  /// aggregates.
  FrontendStats counters_;
};

}  // namespace vrmr::service
