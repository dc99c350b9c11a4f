#pragma once

// FramePlan — the MapReduce job runtime, the paper's core contribution
// (§3.1). One plan renders one frame (or runs one generic MapReduce
// pass) on a simulated cluster, configured by a JobConfig (job.hpp).
// The dataflow per GPU process g follows Figure 1:
//
//   chunks --> [disk] --> H2D --> Map kernel --> D2H --> Partition
//        (per-chunk, streamed; the next chunk's staging overlaps the
//         previous chunk's partition/sends)
//   Partition --> async network sends to reducer processes
//   barrier: all mappers finished AND all pairs delivered
//   Sort (counting sort, CPU or GPU)  --> barrier
//   Reduce (compositing)              --> job complete
//
// Design notes mirroring the paper:
//   * streaming, no intermediate disk I/O (§1: values are "streamed ...
//     to the appropriate processes");
//   * the H2D copy of a chunk is synchronous and occupies the GPU
//     (§3.1.2, CUDA 3-D texture restriction);
//   * partitioning is implicit (key % R for round-robin) and cheap;
//   * placeholders emitted by no-contribution threads are carried
//     through D2H and dropped during partition (§3.1.1);
//   * one reducer process is co-located with each GPU process, as in
//     the paper's one-MapReduce-process-per-GPU deployment;
//   * no combiner (§3.1: "specifically omitted partial reduce/combine"),
//     no fault tolerance, no distributed FS (§1).
//
// A serving layer must preempt a batch frame, stream finished tiles and
// prefetch during a frame's reduce tail, so the pipeline is cut into
// *work quanta* at its natural seams:
//
//   * stage+map quantum  — one chunk on one GPU: (disk) -> H2D -> map
//     kernel -> D2H. The quantum ends when the D2H completes and the
//     GPU stream is free again (the paper's overlap point, §3.1.2);
//     partitioning and buffered sends continue asynchronously on the
//     CPU/NIC inside the plan. This boundary is where a scheduler can
//     hand the GPU to a *different* frame — brick-granular preemption.
//   * sort quantum       — one reducer's counting sort. Availability
//     depends on JobConfig::barrier_mode: under Global it waits for
//     the frame-wide routing barrier (all chunks issued, all
//     partitions drained, all sends delivered); under PerReducer it
//     becomes issuable the moment that reducer's OWN inbox is complete
//     (every mapper finished partitioning — the expected inbound-send
//     count is final — and every send destined to it has landed).
//   * reduce quantum     — one reducer's compositing pass. Under
//     Global it waits for every sort to complete (stage attribution
//     matches the monolithic pipeline); under PerReducer it chains
//     immediately after its own sort — no frame-global sync anywhere
//     on a tile's critical path. Each reduce quantum's completion is a
//     finished *tile*: the reducer's key range is fully composited and
//     can ship to the client before the rest of the frame lands.
//
// Both modes compute identical pixels and identical dataflow counters;
// PerReducer only reorders the schedule, which is what minimizes
// time-to-first-pixel (the first tile no longer waits for the slowest
// reducer's inbox or the slowest sort).
//
// One driver contract: the driver decides only when map quanta issue.
// Sort and reduce quanta always issue themselves at their barrier
// (contention with other plans is arbitrated by the simulated
// resources); hooks report the decision points (lane freed, reducer
// ready, tile done, finished). `run_to_completion()` is the greedy
// driver — every map quantum the moment its lane is free — and
// reproduces the paper's monolithic job event-for-event; the one-shot
// renderer and generic MapReduce passes use it, while the serving
// layer issues map quanta from its own scheduler (src/service).
//
// Everything runs on the cluster's DES engine; with a deterministic
// driver the whole schedule is bit-reproducible. Busy-time stats are
// accumulated per-acquire (not as cluster-wide deltas), so a plan
// interleaved with other plans on one cluster still attributes exactly
// its own resource time.

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/chunk.hpp"
#include "mr/combiner.hpp"
#include "mr/job.hpp"
#include "mr/kv_buffer.hpp"
#include "mr/mapper.hpp"
#include "mr/partitioner.hpp"
#include "mr/reducer.hpp"
#include "mr/sorter.hpp"
#include "mr/stats.hpp"

namespace vrmr::mr {

class FramePlan {
 public:
  FramePlan(cluster::Cluster& cluster, JobConfig config);
  ~FramePlan();

  FramePlan(const FramePlan&) = delete;
  FramePlan& operator=(const FramePlan&) = delete;

  // --- setup (before start()) ---------------------------------------------
  void set_mapper_factory(MapperFactory factory) { mapper_factory_ = std::move(factory); }
  void set_reducer_factory(ReducerFactory factory) {
    reducer_factory_ = std::move(factory);
  }
  /// Optional mapper-side partial reduce (combiner.hpp). The paper
  /// omitted this stage; setting it enables the §3.1 ablation.
  void set_combiner_factory(CombinerFactory factory) {
    combiner_factory_ = std::move(factory);
  }

  /// Queue a chunk; `gpu` pins it, -1 deals round-robin (brick i of an
  /// unpinned layout always lands on GPU i % G — residency caches and
  /// prefetchers rely on this determinism).
  void add_chunk(std::unique_ptr<Chunk> chunk, int gpu = -1);
  int num_chunks() const { return static_cast<int>(chunks_.size()); }

  /// Declare the conservative screen footprint of the chunk added as
  /// `chunk_index`: the pixel rect [x0,x1)×[y0,y1) outside which the
  /// chunk's map kernel emits nothing but placeholders (the renderer
  /// passes the kernel's own launch rect, camera.project_box of the
  /// brick's world box, so the bound is exact). Two effects:
  ///   * an EMPTY rect culls the chunk — it is never staged or mapped
  ///     (stats().chunks_culled counts them; dealing positions of the
  ///     other chunks are unchanged, so residency caches still predict
  ///     placement);
  ///   * under PerReducer barriers, once GPU g has partitioned the last
  ///     of its chunks whose footprint touches reducer r's key range,
  ///     the (g, r) send buffer flushes early and counts as final — a
  ///     reducer no longer waits for mappers that cannot contribute to
  ///     it (per-(mapper, reducer) final-flush readiness).
  /// Emitted keys are CHECKed (debug builds) against the footprint's
  /// owner set. Chunks without a footprint conservatively contribute to
  /// every reducer; Global mode only culls, never flushes early.
  void set_chunk_footprint(int chunk_index, int x0, int y0, int x1, int y1);

  // --- driver hooks (install before start()) ------------------------------
  /// GPU `gpu`'s stream is free again after a stage+map quantum (its
  /// D2H finished; partition/sends continue inside the plan). THE
  /// preemption point: the driver may issue this plan's next quantum,
  /// another plan's, or leave the lane idle.
  void on_lane_free(std::function<void(int gpu)> cb) { lane_free_cb_ = std::move(cb); }
  /// Reducer `reducer`'s inbox is sortable; its sort quantum issues
  /// itself at this same engine time. Under PerReducer barriers this
  /// fires the moment that reducer's inbox completes (inbox-completion
  /// order) and the sort follows the callback; under Global barriers
  /// it fires for every reducer, in index order, when the routing
  /// barrier passes, and the sorts follow the last callback.
  void on_reducer_ready(std::function<void(int reducer)> cb) {
    reducer_ready_cb_ = std::move(cb);
  }
  /// Reducer `reducer`'s reduce quantum completed: its tile of the key
  /// domain is final. Fires before on_finished for the last tile.
  void on_tile_done(std::function<void(int reducer)> cb) { tile_cb_ = std::move(cb); }
  /// The last reduce quantum completed; stats() is finalized. The plan
  /// must not be destroyed from inside this hook (the completing
  /// quantum's callback frame is still on the stack) — defer teardown
  /// to a fresh engine event.
  void on_finished(std::function<void()> cb) { finished_cb_ = std::move(cb); }
  /// A stage+map quantum failed (JobConfig::fault_hook said so) and its
  /// detection timeout elapsed: the chunk is restored as the lane's
  /// next pending quantum and the lane is free again. Fires before
  /// on_lane_free for the same event; `attempt` counts this failure
  /// (retry n+1 will present attempt n+1 to the fault hook). Under
  /// run_to_completion the chunk retries on the same lane immediately.
  void on_quantum_failed(std::function<void(int gpu, int chunk_index, int attempt)> cb) {
    quantum_failed_cb_ = std::move(cb);
  }

  /// Build mapper/reducer processes, deal chunks, anchor t0 at the
  /// current engine time. GPUs with no chunks retire immediately.
  /// Single use. Issues nothing — the driver issues map quanta from
  /// here on.
  void start();

  // --- stage+map quanta ----------------------------------------------------
  /// Chunks dealt to `gpu` not yet issued.
  int pending_map_quanta(int gpu) const;
  /// Issue the next chunk on `gpu`: (disk) -> H2D -> kernel -> D2H.
  /// Requires pending_map_quanta(gpu) > 0 and no quantum of this plan
  /// in flight on `gpu`.
  void issue_map_quantum(int gpu);

  /// Fail-stop recovery: move every not-yet-issued chunk of `gpu` onto
  /// `survivors` (round-robin), preserving all per-(mapper, reducer)
  /// dataflow bookkeeping — reducers stop waiting on the dead lane for
  /// the moved work and start waiting on its survivors. An in-flight
  /// quantum on `gpu` (if any) still completes there (fail-stop at the
  /// quantum boundary); once idle the dead mapper retires, flushing the
  /// fragments it already produced (host-side mapper state survives the
  /// GPU's death — see src/fault/README.md). Pixels are placement-
  /// independent, so the redistributed frame composites bit-identically.
  /// Callable any time between start() and the routing barrier.
  void redistribute_lane(int gpu, const std::vector<int>& survivors);

  // --- barrier timestamps ------------------------------------------------
  /// Absolute engine time `reducer` became ready (0 until it did).
  double reducer_ready_s(int reducer) const;
  /// Absolute engine times `reducer`'s sort quantum was issued /
  /// completed (0 until then) — critical-path boundaries.
  double sort_issue_s(int reducer) const;
  double sort_done_s(int reducer) const;

  int num_reducers() const { return static_cast<int>(reducers_.size()); }
  bool finished() const { return finished_; }

  /// Engine time start() anchored the plan at (t0 of the relative
  /// JobStats phase stamps).
  double t0_s() const { return t0_; }

  /// Absolute engine time reducer `r`'s tile completed (finalized
  /// frames only; the last tile's time equals the frame finish).
  double tile_finish_s(int reducer) const;

  /// Number of mappers that can contribute fragments to reducer `r`
  /// (pairs whose chunk footprints touch r's key range, counted at
  /// start()). 0 means a background-only tile: with footprints seeded
  /// it goes final before any map quantum, so latency metrics (TTFP)
  /// should measure the first tile with contributors instead.
  int reducer_contributors(int reducer) const;

  /// Finalized statistics; valid once finished().
  const JobStats& stats() const;

  /// Greedy monolithic driver: start() the plan, then issue every map
  /// quantum as soon as its lane is free until the plan finishes,
  /// pumping the cluster's engine. Reproduces the paper's whole-frame
  /// job event-for-event. Single use (start() CHECK-fails on a second
  /// call). Chains after (does not replace) any installed hooks.
  JobStats run_to_completion();

 private:
  struct GpuState;
  struct ReducerState;

  bool lane_busy(int gpu) const;
  bool sort_pending(int reducer) const;
  void issue_sort_quantum(int reducer);
  bool reduce_pending(int reducer) const;
  void issue_reduce_quantum(int reducer);
  void begin_staging(int gpu, int chunk_index);
  /// Wedge `gpu`'s stream for detect_s, then restore the chunk, free
  /// the lane, and fire on_quantum_failed (the injected-failure path).
  void fail_quantum(int gpu, int chunk_index, double detect_s, const char* kind);
  void after_disk(int gpu, int chunk_index);
  void after_h2d(int gpu, int chunk_index);
  void run_map(int gpu, int chunk_index);
  void after_kernel(int gpu, int chunk_index, std::shared_ptr<KvBuffer> out);
  void lane_freed(int gpu);
  void partition_and_send(int gpu, int chunk_index, std::shared_ptr<KvBuffer> out);
  void flush_outbox(int gpu, int reducer);
  void send_payload(int gpu, int reducer, std::shared_ptr<KvBuffer> payload,
                    std::uint64_t send_trace_id);
  void maybe_final_flush(int gpu);
  void maybe_finish_routing();
  /// The (gpu, reducer) pair went final: gpu partitioned the last chunk
  /// that could contribute to reducer. Flushes the pair's outbox early
  /// under PerReducer barriers (Global keeps the paper's schedule).
  void pair_final(int gpu, int reducer);
  void maybe_reducer_ready(int reducer);
  void mark_reducer_ready(int reducer);
  void sort_done(int reducer);
  void reduce_done(int reducer);
  void finalize_stats();
  bool per_reducer_barriers() const {
    return config_.barrier_mode == BarrierMode::PerReducer;
  }

  cluster::Cluster& cluster_;
  JobConfig config_;
  MapperFactory mapper_factory_;
  ReducerFactory reducer_factory_;
  CombinerFactory combiner_factory_;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<int> chunk_gpu_;  // explicit assignment or -1

  struct Footprint {
    int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    bool set = false;
  };
  std::vector<Footprint> footprints_;  // parallel to chunks_
  /// Conservative per-chunk reducer owner masks (computed at start()
  /// from footprints + partitioner; all-ones without a footprint).
  std::vector<std::vector<std::uint8_t>> chunk_masks_;

  std::vector<std::unique_ptr<GpuState>> gpus_;
  std::vector<std::unique_ptr<ReducerState>> reducers_;
  std::unique_ptr<Partitioner> partitioner_;

  std::function<void(int)> lane_free_cb_;
  std::function<void(int)> reducer_ready_cb_;
  std::function<void(int)> tile_cb_;
  std::function<void()> finished_cb_;
  std::function<void(int, int, int)> quantum_failed_cb_;

  // Routing bookkeeping (identical roles to the monolithic job).
  int mappers_remaining_ = 0;
  int partitions_in_flight_ = 0;
  std::uint64_t sends_in_flight_ = 0;
  /// Every mapper finished partitioning: each reducer's expected
  /// inbound-send count is final (the PerReducer readiness gate).
  bool routing_resolved_ = false;
  bool sorts_ready_ = false;    // routing barrier passed: every send landed
  bool reduces_ready_ = false;  // every sort completed
  int sorts_remaining_ = 0;
  int reduces_remaining_ = 0;
  std::vector<double> tile_finish_s_;
  std::vector<int> reducer_contributors_;  // frozen at start()
  std::vector<int> chunk_attempts_;        // issue attempts per chunk

  double t0_ = 0.0;
  bool started_ = false;
  bool finished_ = false;
  bool greedy_ = false;  // run_to_completion auto-issues map quanta

  JobStats stats_;
};

}  // namespace vrmr::mr
