#include "mr/frame_plan.hpp"

#include <algorithm>
#include <array>

#include "util/log.hpp"

namespace vrmr::mr {

struct FramePlan::GpuState {
  std::unique_ptr<Mapper> mapper;
  std::vector<int> chunk_indices;
  std::size_t cursor = 0;  // next chunk to issue

  // Streaming send buffers, one per reducer (§3.1.2 buffered sends).
  std::vector<KvBuffer> outbox;
  std::unique_ptr<Combiner> combiner;  // optional mapper-side partial reduce
  /// Per-reducer count of this GPU's chunks whose footprint owner mask
  /// includes that reducer. Decremented as each chunk's partition
  /// completes; hitting zero finalizes the (mapper, reducer) pair
  /// (pair_final) — the per-pair refinement of the final flush.
  std::vector<int> contrib;
  int pending_partitions = 0;  // partition tasks still queued on the CPU
  bool lane_busy = false;      // a stage+map quantum currently in flight
  bool issued_all = false;     // every chunk has entered the pipeline
  bool finished = false;       // final flush done, mapper retired
};

struct FramePlan::ReducerState {
  std::unique_ptr<Reducer> reducer;
  KvBuffer inbox;
  SortedGroups groups;
  /// Sends flushed toward this reducer whose payloads have not landed
  /// yet (combine + fabric transit). With final_pairs == num GPUs, a
  /// zero here means the inbox is complete — the PerReducer readiness.
  std::uint64_t sends_pending = 0;
  /// (mapper, reducer) pairs finalized toward this reducer: mappers
  /// that have partitioned their last chunk whose footprint could
  /// contribute here. Without footprints a mapper finalizes all its
  /// pairs at its final flush, which makes this gate equivalent to the
  /// old all-mappers routing_resolved_ gate.
  int final_pairs = 0;
  bool ready = false;        // sort quantum issuable (mode-specific)
  double ready_s = 0.0;      // absolute engine time ready flipped
  double sort_issue_s = 0.0; // absolute engine time sort was issued
  double sort_done_s = 0.0;  // absolute engine time sort completed
  bool sort_issued = false;
  bool sort_completed = false;
  bool reduce_issued = false;
};

FramePlan::FramePlan(cluster::Cluster& cluster, JobConfig config)
    : cluster_(cluster), config_(std::move(config)) {
  config_.validate();
}

FramePlan::~FramePlan() = default;

void FramePlan::add_chunk(std::unique_ptr<Chunk> chunk, int gpu) {
  VRMR_CHECK_MSG(!started_, "cannot add chunks after start()");
  VRMR_CHECK(chunk != nullptr);
  VRMR_CHECK_MSG(gpu < cluster_.total_gpus(), "gpu " << gpu << " out of range");
  // Enforce the §3.1.1 restriction early: "any single map task must be
  // able to fit in the main memory of the GPU".
  VRMR_CHECK_MSG(chunk->device_bytes() <= cluster_.config().hw.gpu.vram_bytes,
                 "chunk '" << chunk->label() << "' (" << chunk->device_bytes()
                           << " B) exceeds GPU VRAM ("
                           << cluster_.config().hw.gpu.vram_bytes
                           << " B); brick the input smaller");
  chunks_.push_back(std::move(chunk));
  chunk_gpu_.push_back(gpu < 0 ? -1 : gpu);
  footprints_.push_back(Footprint{});
}

void FramePlan::set_chunk_footprint(int chunk_index, int x0, int y0, int x1,
                                    int y1) {
  VRMR_CHECK_MSG(!started_, "cannot set footprints after start()");
  VRMR_CHECK(chunk_index >= 0 &&
             chunk_index < static_cast<int>(footprints_.size()));
  footprints_[static_cast<std::size_t>(chunk_index)] =
      Footprint{x0, y0, x1, y1, true};
}

void FramePlan::start() {
  VRMR_CHECK_MSG(!started_, "FramePlan::start is single-use");
  VRMR_CHECK_MSG(mapper_factory_ != nullptr, "mapper factory not set");
  VRMR_CHECK_MSG(reducer_factory_ != nullptr, "reducer factory not set");
  VRMR_CHECK_MSG(!chunks_.empty(), "no chunks queued");
  started_ = true;

  const int num_gpus = cluster_.total_gpus();
  partitioner_ = make_partitioner(config_.partition, config_.domain, num_gpus);

  // Build per-GPU mapper processes and deal chunks.
  gpus_.clear();
  for (int g = 0; g < num_gpus; ++g) {
    auto state = std::make_unique<GpuState>();
    state->mapper = mapper_factory_(g, cluster_.gpu(g));
    VRMR_CHECK(state->mapper != nullptr);
    state->mapper->init(cluster_.gpu(g));
    for (int r = 0; r < num_gpus; ++r) state->outbox.emplace_back(config_.value_size);
    if (combiner_factory_) {
      state->combiner = combiner_factory_(g);
      VRMR_CHECK(state->combiner != nullptr);
    }
    gpus_.push_back(std::move(state));
  }
  // Per-chunk conservative reducer owner masks: the partitioner's owner
  // set of the chunk's screen footprint; all-ones without a footprint.
  std::uint64_t culled = 0;
  chunk_masks_.assign(chunks_.size(), {});
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const Footprint& fp = footprints_[i];
    auto& mask = chunk_masks_[i];
    if (!fp.set) {
      mask.assign(static_cast<std::size_t>(num_gpus), 1);
    } else if (fp.x1 <= fp.x0 || fp.y1 <= fp.y0) {
      mask.assign(static_cast<std::size_t>(num_gpus), 0);  // off-screen
    } else {
      partitioner_->owners_in_rect(fp.x0, fp.y0, fp.x1, fp.y1, mask);
    }
  }

  int deal = 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    // Dealing positions advance for EVERY chunk, culled or not, so the
    // brick -> GPU mapping (and thus residency-cache hits) is identical
    // with and without footprints.
    const int g = chunk_gpu_[i] >= 0 ? chunk_gpu_[i] : (deal++ % num_gpus);
    const auto& mask = chunk_masks_[i];
    const bool on_screen =
        std::any_of(mask.begin(), mask.end(), [](std::uint8_t m) { return m != 0; });
    if (!on_screen) {
      // Empty footprint: the kernel's launch rect is empty, it can emit
      // nothing — skip staging and mapping entirely.
      ++culled;
      continue;
    }
    gpus_[static_cast<std::size_t>(g)]->chunk_indices.push_back(static_cast<int>(i));
  }

  // One reducer process per GPU process.
  reducers_.clear();
  for (int r = 0; r < num_gpus; ++r) {
    auto state = std::make_unique<ReducerState>();
    state->reducer = reducer_factory_(r);
    VRMR_CHECK(state->reducer != nullptr);
    state->inbox = KvBuffer(config_.value_size);
    reducers_.push_back(std::move(state));
  }
  tile_finish_s_.assign(static_cast<std::size_t>(num_gpus), 0.0);
  chunk_attempts_.assign(chunks_.size(), 0);

  stats_ = JobStats{};
  stats_.num_gpus = num_gpus;
  stats_.num_nodes = cluster_.num_nodes();
  stats_.num_chunks = static_cast<int>(chunks_.size());
  stats_.chunks_culled = culled;
  stats_.per_gpu.resize(static_cast<std::size_t>(num_gpus));
  stats_.per_reducer.resize(static_cast<std::size_t>(num_gpus));

  t0_ = cluster_.engine().now();
  mappers_remaining_ = num_gpus;
  // Set up-front (not at the barrier transitions): under PerReducer
  // barriers sorts and reduces start draining before any frame-global
  // transition fires.
  sorts_remaining_ = num_gpus;
  reduces_remaining_ = num_gpus;

  // Per-(mapper, reducer) contribution counts, and the pairs that are
  // final before any work runs (chunkless GPUs; reducers outside every
  // footprint dealt to a GPU).
  bool any_reducer_final_at_start = false;
  reducer_contributors_.assign(static_cast<std::size_t>(num_gpus), 0);
  for (int g = 0; g < num_gpus; ++g) {
    auto& gs = *gpus_[static_cast<std::size_t>(g)];
    gs.contrib.assign(static_cast<std::size_t>(num_gpus), 0);
    for (const int ci : gs.chunk_indices) {
      const auto& mask = chunk_masks_[static_cast<std::size_t>(ci)];
      for (int r = 0; r < num_gpus; ++r) {
        gs.contrib[static_cast<std::size_t>(r)] += mask[static_cast<std::size_t>(r)];
      }
    }
    for (int r = 0; r < num_gpus; ++r) {
      if (gs.contrib[static_cast<std::size_t>(r)] == 0) {
        auto& rs = *reducers_[static_cast<std::size_t>(r)];
        if (++rs.final_pairs == num_gpus) any_reducer_final_at_start = true;
      } else {
        ++reducer_contributors_[static_cast<std::size_t>(r)];
      }
    }
  }

  // GPUs that were dealt no chunks retire their mapper immediately —
  // their (empty) final flush cannot complete routing on its own
  // because some other GPU holds chunks. The exception is a fully
  // culled frame (every chunk off-screen): retiring the last mapper
  // would then cascade sort+reduce and finish the frame synchronously
  // INSIDE start(), breaking the "issues nothing" contract drivers
  // rely on — defer the retire sweep to a fresh engine event.
  const bool all_culled = std::all_of(
      gpus_.begin(), gpus_.end(),
      [](const std::unique_ptr<GpuState>& gs) { return gs->chunk_indices.empty(); });
  if (all_culled) {
    cluster_.engine().schedule_after(0.0, [this] {
      for (int g = 0; g < static_cast<int>(gpus_.size()); ++g) {
        auto& gs = *gpus_[static_cast<std::size_t>(g)];
        gs.issued_all = true;
        maybe_final_flush(g);
      }
    });
  } else {
    for (int g = 0; g < num_gpus; ++g) {
      auto& gs = *gpus_[static_cast<std::size_t>(g)];
      if (gs.chunk_indices.empty()) {
        gs.issued_all = true;
        maybe_final_flush(g);
      }
    }
    // Reducers no footprint can reach are ready before any map quantum
    // runs — deferred for the same issues-nothing reason.
    if (per_reducer_barriers() && any_reducer_final_at_start) {
      cluster_.engine().schedule_after(0.0, [this] {
        for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
          maybe_reducer_ready(r);
        }
      });
    }
  }
}

// --- stage+map quanta --------------------------------------------------------

int FramePlan::pending_map_quanta(int gpu) const {
  const auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  return static_cast<int>(gs.chunk_indices.size() - gs.cursor);
}

bool FramePlan::lane_busy(int gpu) const {
  return gpus_.at(static_cast<std::size_t>(gpu))->lane_busy;
}

void FramePlan::issue_map_quantum(int gpu) {
  VRMR_CHECK_MSG(started_, "issue before start()");
  auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  VRMR_CHECK_MSG(gs.cursor < gs.chunk_indices.size(),
                 "no pending map quanta on gpu " << gpu);
  VRMR_CHECK_MSG(!gs.lane_busy, "gpu " << gpu << " lane already busy");
  gs.lane_busy = true;
  const int ci = gs.chunk_indices[gs.cursor++];
  const int attempt = ++chunk_attempts_[static_cast<std::size_t>(ci)];
  if (auto* tr = config_.trace.recorder) {
    tr->begin(cluster_.engine().now(), config_.trace.pid, gpu, "map", "map",
              {{"chunk", chunks_[static_cast<std::size_t>(ci)]->label()},
               {"session", std::to_string(config_.trace.session)},
               {"frame", std::to_string(config_.trace.frame_id)}});
  }
  if (config_.fault_hook) {
    const QuantumFault fault = config_.fault_hook(gpu, ci, attempt);
    if (fault.fail) {
      fail_quantum(gpu, ci, fault.detect_s, fault.kind);
      return;
    }
  }
  begin_staging(gpu, ci);
}

void FramePlan::fail_quantum(int gpu, int chunk_index, double detect_s,
                             const char* kind) {
  ++stats_.quanta_failed;
  // The lane is wedged until the failure is detected (a stuck read, a
  // missed ack): charge the detection timeout on the GPU stream, then
  // restore the chunk and release the lane.
  const std::string kind_str = kind != nullptr ? kind : "quantum";
  auto land = [this, gpu, chunk_index, kind_str] {
    auto& gs = *gpus_[static_cast<std::size_t>(gpu)];
    if (auto* tr = config_.trace.recorder) {
      const double now = cluster_.engine().now();
      tr->instant(now, config_.trace.pid, gpu, "fault." + kind_str, "fault",
                  {{"chunk", chunks_[static_cast<std::size_t>(chunk_index)]->label()},
                   {"attempt", std::to_string(
                       chunk_attempts_[static_cast<std::size_t>(chunk_index)])},
                   {"frame", std::to_string(config_.trace.frame_id)}});
      tr->end(now, config_.trace.pid, gpu);  // closes "map"
    }
    // The cursor already advanced past the chunk and nothing since can
    // have removed entries below it, so stepping back re-queues exactly
    // this chunk as the lane's next quantum. issued_all stays false —
    // the mapper cannot retire with a retry outstanding.
    --gs.cursor;
    VRMR_DCHECK(gs.chunk_indices[gs.cursor] == chunk_index);
    gs.lane_busy = false;
    if (quantum_failed_cb_) {
      quantum_failed_cb_(gpu, chunk_index,
                         chunk_attempts_[static_cast<std::size_t>(chunk_index)]);
    }
    if (lane_free_cb_) lane_free_cb_(gpu);
    if (greedy_ && !gs.lane_busy && gs.cursor < gs.chunk_indices.size()) {
      issue_map_quantum(gpu);  // immediate same-lane retry
    }
  };
  if (detect_s > 0.0) {
    cluster_.gpu_stream(gpu).acquire(
        detect_s, [land = std::move(land)](sim::SimTime, sim::SimTime) { land(); });
  } else {
    cluster_.engine().schedule_after(0.0, std::move(land));
  }
}

void FramePlan::redistribute_lane(int gpu, const std::vector<int>& survivors) {
  VRMR_CHECK_MSG(started_, "redistribute before start()");
  VRMR_CHECK_MSG(!finished_, "redistribute after the plan finished");
  VRMR_CHECK_MSG(!survivors.empty(), "redistribute needs at least one survivor");
  auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  for (const int s : survivors) {
    VRMR_CHECK_MSG(s >= 0 && s < static_cast<int>(gpus_.size()) && s != gpu,
                   "bad survivor lane " << s);
  }
  if (gs.cursor >= gs.chunk_indices.size()) return;  // nothing pending

  // The dead lane holds pending chunks, so its mapper has not retired:
  // the routing barrier is still open and no reducer can be ready yet
  // for any pair the moves below reopen (proof: a moved chunk's mask
  // bit for r implies contrib[gpu][r] >= 1, so (gpu, r) is not final
  // and r's final_pairs < num mappers).
  VRMR_DCHECK(!sorts_ready_);

  std::vector<int> moved(gs.chunk_indices.begin() +
                             static_cast<std::ptrdiff_t>(gs.cursor),
                         gs.chunk_indices.end());
  gs.chunk_indices.resize(gs.cursor);

  const int num_reducers = static_cast<int>(reducers_.size());
  for (std::size_t i = 0; i < moved.size(); ++i) {
    const int ci = moved[i];
    const int target = survivors[i % survivors.size()];
    auto& gt = *gpus_[static_cast<std::size_t>(target)];
    // Reopen a retired target mapper: it has new chunks to issue.
    if (gt.finished) {
      gt.finished = false;
      ++mappers_remaining_;
    }
    gt.issued_all = false;
    gt.chunk_indices.push_back(ci);

    const auto& mask = chunk_masks_[static_cast<std::size_t>(ci)];
    for (int r = 0; r < num_reducers; ++r) {
      if (!mask[static_cast<std::size_t>(r)]) continue;
      // Target first: a zero contribution count means the (target, r)
      // pair was counted final — reopen it before the count goes up.
      if (gt.contrib[static_cast<std::size_t>(r)]++ == 0) {
        --reducers_[static_cast<std::size_t>(r)]->final_pairs;
      }
      // Source: this chunk will never be partitioned by `gpu`.
      if (--gs.contrib[static_cast<std::size_t>(r)] == 0) {
        pair_final(gpu, r);
      }
    }
  }

  // An idle dead lane retires its mapper now (flushing fragments its
  // completed quanta already produced); a busy one retires via
  // lane_freed when the in-flight quantum lands.
  if (!gs.lane_busy && gs.cursor >= gs.chunk_indices.size()) {
    gs.issued_all = true;
    maybe_final_flush(gpu);
  }

  if (greedy_) {
    for (const int s : survivors) {
      cluster_.engine().schedule_after(0.0, [this, s] {
        if (!lane_busy(s) && pending_map_quanta(s) > 0) issue_map_quantum(s);
      });
    }
  }
}

void FramePlan::begin_staging(int g, int chunk_index) {
  const Chunk& chunk = *chunks_[static_cast<std::size_t>(chunk_index)];
  if (config_.staging_hook && config_.staging_hook(g, chunk)) {
    // Already resident on this GPU (brick cache hit): skip the disk
    // read and the H2D copy entirely — the map kernel can launch as
    // soon as the GPU stream is free. Saved-byte counters are STORED
    // bytes: that is what the skipped transfer would have shipped (the
    // cache holds compressed payloads, so a hit still pays its
    // decompress quantum in after_h2d).
    stats_.chunks_resident += 1;
    stats_.bytes_h2d_saved += chunk.stored_bytes();
    if (config_.include_disk_io) stats_.bytes_disk_saved += chunk.disk_bytes();
    after_h2d(g, chunk_index);
    return;
  }
  // Peer hydration: a miss may be served from a sibling shard's warm
  // cache instead of disk — the hook owns the (simulated) fabric
  // transfer and resumes the plan at the H2D copy when the compressed
  // payload lands in host memory.
  if (config_.fetch_hook &&
      config_.fetch_hook(g, chunk,
                         [this, g, chunk_index] { after_disk(g, chunk_index); })) {
    stats_.chunks_hydrated += 1;
    stats_.bytes_hydrated += chunk.stored_bytes();
    if (config_.include_disk_io) stats_.bytes_disk_saved += chunk.disk_bytes();
    return;
  }
  if (config_.include_disk_io) {
    const std::uint64_t bytes = chunk.disk_bytes();
    stats_.bytes_disk += bytes;
    io::VirtualDisk& disk = cluster_.disk(cluster_.node_of_gpu(g));
    stats_.disk_busy_s += disk.model().read_time(bytes);
    disk.read(bytes, [this, g, chunk_index] { after_disk(g, chunk_index); });
  } else {
    after_disk(g, chunk_index);
  }
}

void FramePlan::after_disk(int g, int chunk_index) {
  // Synchronous H2D of the chunk's 3-D texture: occupies both the
  // node's PCIe link and the GPU stream (§3.1.2). The copy ships the
  // STORED payload (compressed chunks move fewer bytes; the expansion
  // back to device_bytes() is the decompress quantum in after_h2d).
  const int node = cluster_.node_of_gpu(g);
  const Chunk& chunk = *chunks_[static_cast<std::size_t>(chunk_index)];
  const std::uint64_t bytes = chunk.stored_bytes();
  stats_.bytes_h2d += bytes;
  stats_.bytes_logical_staged += chunk.device_bytes();
  const double duration = cluster_.config().hw.pcie.transfer_time(bytes);
  stats_.pcie_busy_s += duration;
  stats_.gpu_busy_s += duration;
  const std::array<sim::Resource*, 2> rs = {&cluster_.pcie(node), &cluster_.gpu_stream(g)};
  sim::Resource::acquire_multi(rs, duration,
                               [this, g, chunk_index](sim::SimTime, sim::SimTime) {
                                 after_h2d(g, chunk_index);
                               });
}

void FramePlan::after_h2d(int g, int chunk_index) {
  // Decompress quantum: expand the stored payload to the logical
  // texture on this GPU's stream, strictly before the map kernel. Both
  // staging paths land here (a cache hit holds the compressed payload
  // too), so hits and misses pay the same expansion. Because the
  // quantum runs on the same stream whose kernel completion stamps
  // t_map_done, critical-path attribution folds it into StageMap with
  // no change to the exact finish − arrival partition
  // (obs/critical_path.hpp).
  const Chunk& chunk = *chunks_[static_cast<std::size_t>(chunk_index)];
  const double expand_s = chunk.decompress_s();
  if (expand_s > 0.0) {
    stats_.chunks_decompressed += 1;
    stats_.decompress_s_total += expand_s;
    stats_.gpu_busy_s += expand_s;
    if (auto* tr = config_.trace.recorder) {
      tr->begin(cluster_.engine().now(), config_.trace.pid, g, "decompress",
                "compress",
                {{"chunk", chunk.label()},
                 {"frame", std::to_string(config_.trace.frame_id)}});
    }
    cluster_.gpu_stream(g).acquire(
        expand_s, [this, g, chunk_index](sim::SimTime, sim::SimTime) {
          if (auto* tr = config_.trace.recorder) {
            tr->end(cluster_.engine().now(), config_.trace.pid, g);
          }
          run_map(g, chunk_index);
        });
    return;
  }
  run_map(g, chunk_index);
}

void FramePlan::run_map(int g, int chunk_index) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  const Chunk& chunk = *chunks_[static_cast<std::size_t>(chunk_index)];

  // Functional kernel execution happens here (host threads); its
  // simulated duration is charged onto the GPU stream afterwards.
  auto out = std::make_shared<KvBuffer>(config_.value_size);
  const MapOutcome outcome = gs.mapper->map(cluster_.gpu(g), chunk, *out);
  if (outcome.threads > 0) {
    VRMR_CHECK_MSG(out->size() == outcome.threads,
                   "every-thread-emits violated for chunk '"
                       << chunk.label() << "': " << out->size() << " pairs from "
                       << outcome.threads << " threads");
  }

  const double duration =
      cluster_.gpu(g).props().kernel_time(outcome.samples, out->bytes());
  auto& pg = stats_.per_gpu[static_cast<std::size_t>(g)];
  pg.chunks += 1;
  pg.samples += outcome.samples;
  pg.threads += outcome.threads;
  pg.pairs += out->size();
  pg.kernel_s += duration;
  stats_.total_samples += outcome.samples;
  stats_.gpu_busy_s += duration;

  cluster_.gpu_stream(g).acquire(
      duration, [this, g, chunk_index, out](sim::SimTime, sim::SimTime end) {
        stats_.t_map_done = std::max(stats_.t_map_done, end - t0_);
        after_kernel(g, chunk_index, out);
      });
}

void FramePlan::after_kernel(int g, int chunk_index, std::shared_ptr<KvBuffer> out) {
  // D2H of the emitted pairs (fragments + placeholders — placeholders
  // are still resident on the device at this point, §3.1.1).
  const int node = cluster_.node_of_gpu(g);
  const std::uint64_t bytes = out->bytes();
  stats_.bytes_d2h += bytes;
  const double duration = cluster_.config().hw.pcie.transfer_time(bytes);
  stats_.pcie_busy_s += duration;
  stats_.gpu_busy_s += duration;
  const std::array<sim::Resource*, 2> rs = {&cluster_.pcie(node), &cluster_.gpu_stream(g)};
  sim::Resource::acquire_multi(
      rs, duration, [this, g, node, chunk_index, out](sim::SimTime, sim::SimTime) {
        // GPU is free again: the quantum ends here (the paper's overlap
        // of communication with further ray casting) while the CPU
        // partitions this chunk's output in parallel.
        ++partitions_in_flight_;
        ++gpus_[static_cast<std::size_t>(g)]->pending_partitions;
        const double partition_time =
            static_cast<double>(out->size()) /
            cluster_.config().hw.cpu.partition_rate_pairs_per_s;
        stats_.cpu_busy_s += partition_time;
        cluster_.cpu(node).acquire(partition_time,
                                   [this, g, chunk_index, out](sim::SimTime, sim::SimTime) {
                                     partition_and_send(g, chunk_index, out);
                                   });
        lane_freed(g);
      });
}

void FramePlan::lane_freed(int g) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  gs.lane_busy = false;
  if (auto* tr = config_.trace.recorder) {
    tr->end(cluster_.engine().now(), config_.trace.pid, g);  // closes "map"
  }
  if (gs.cursor >= gs.chunk_indices.size()) {
    gs.issued_all = true;
    maybe_final_flush(g);
  }
  if (lane_free_cb_) lane_free_cb_(g);
  if (greedy_ && !gs.lane_busy && gs.cursor < gs.chunk_indices.size()) {
    issue_map_quantum(g);
  }
}

void FramePlan::partition_and_send(int g, int chunk_index,
                                   std::shared_ptr<KvBuffer> out) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  const int num_reducers = static_cast<int>(reducers_.size());
  auto& pg = stats_.per_gpu[static_cast<std::size_t>(g)];
  const auto& mask = chunk_masks_[static_cast<std::size_t>(chunk_index)];

  for (std::size_t i = 0; i < out->size(); ++i) {
    const std::uint32_t key = out->key(i);
    if (key == kPlaceholderKey) {
      ++pg.placeholders;
      ++stats_.placeholders;
      continue;
    }
    VRMR_CHECK_MSG(key < config_.domain.num_keys,
                   "emitted key " << key << " outside dense domain [0, "
                                  << config_.domain.num_keys << ")");
    ++stats_.fragments;
    const int owner = partitioner_->owner(key);
    // Footprint conservativeness: every emitted key must belong to a
    // reducer the chunk's declared footprint admits.
    VRMR_DCHECK(mask[static_cast<std::size_t>(owner)] != 0);
    gs.outbox[static_cast<std::size_t>(owner)].append(key, out->value(i));
  }

  // Buffered streaming sends (§3.1.2): flush any destination buffer
  // that reached the threshold.
  for (int r = 0; r < num_reducers; ++r) {
    if (gs.outbox[static_cast<std::size_t>(r)].bytes() >= config_.send_buffer_bytes) {
      flush_outbox(g, r);
    }
  }

  --partitions_in_flight_;
  --gs.pending_partitions;

  // Per-pair finality: this was the last of g's chunks able to reach r.
  // Flush-only here; readiness marking waits until after the barrier
  // bookkeeping below so that when this completion also resolves the
  // whole routing barrier, t_routed is stamped before any zero-pair
  // cascade a readiness mark could trigger (same stamp-before-readiness
  // ordering maybe_finish_routing documents).
  bool any_pair_final = false;
  for (int r = 0; r < num_reducers; ++r) {
    if (mask[static_cast<std::size_t>(r)] &&
        --gs.contrib[static_cast<std::size_t>(r)] == 0) {
      any_pair_final = true;
      pair_final(g, r);
    }
  }

  maybe_final_flush(g);
  maybe_finish_routing();

  if (any_pair_final && per_reducer_barriers()) {
    for (int r = 0; r < num_reducers; ++r) {
      if (mask[static_cast<std::size_t>(r)] &&
          gs.contrib[static_cast<std::size_t>(r)] == 0) {
        maybe_reducer_ready(r);
      }
    }
  }
}

void FramePlan::pair_final(int g, int r) {
  auto& rs = *reducers_[static_cast<std::size_t>(r)];
  ++rs.final_pairs;
  // Early flush only under PerReducer barriers: Global mode keeps the
  // paper's message schedule (threshold + final flush) event-for-event.
  if (per_reducer_barriers()) flush_outbox(g, r);
}

void FramePlan::flush_outbox(int g, int r) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  KvBuffer& box = gs.outbox[static_cast<std::size_t>(r)];
  if (box.empty()) return;
  auto payload = std::make_shared<KvBuffer>(std::move(box));
  box = KvBuffer(config_.value_size);

  // Hold the routing barrier open for the whole flush (combine + send),
  // and reducer r's inbox open for this payload specifically.
  ++sends_in_flight_;
  ++reducers_[static_cast<std::size_t>(r)]->sends_pending;

  std::uint64_t trace_id = 0;
  if (auto* tr = config_.trace.recorder) {
    trace_id = tr->next_async_id();
    tr->async_begin(cluster_.engine().now(), config_.trace.pid, trace_id, "send",
                    "send",
                    {{"from", std::to_string(g)},
                     {"to", std::to_string(r)},
                     {"pairs", std::to_string(payload->size())},
                     {"frame", std::to_string(config_.trace.frame_id)}});
  }

  if (gs.combiner != nullptr) {
    // Mapper-side partial reduce: group this buffer by key and let the
    // combiner collapse each group before it ships.
    const std::uint64_t pairs_in = payload->size();
    const SortedGroups groups = counting_sort(*payload, 0, config_.domain.num_keys);
    auto combined = std::make_shared<KvBuffer>(config_.value_size);
    for (std::size_t gi = 0; gi < groups.num_groups(); ++gi) {
      const std::uint32_t lo = groups.group_offsets[gi];
      const std::uint32_t hi = groups.group_offsets[gi + 1];
      gs.combiner->combine(groups.group_keys[gi], groups.sorted.value(lo), hi - lo,
                           *combined);
    }
    stats_.combine_input_pairs += pairs_in;
    stats_.combine_output_pairs += combined->size();

    // The grouping + combine runs on the mapper node's CPU.
    const auto& hw = cluster_.config().hw;
    const double duration =
        static_cast<double>(pairs_in) / hw.cpu.sort_rate_pairs_per_s +
        static_cast<double>(pairs_in) / hw.cpu.reduce_rate_frags_per_s;
    stats_.cpu_busy_s += duration;
    const int node = cluster_.node_of_gpu(g);
    cluster_.cpu(node).acquire(duration,
                               [this, g, r, combined, trace_id](sim::SimTime, sim::SimTime) {
                                 send_payload(g, r, combined, trace_id);
                               });
    return;
  }
  send_payload(g, r, payload, trace_id);
}

void FramePlan::send_payload(int g, int r, std::shared_ptr<KvBuffer> payload,
                             std::uint64_t send_trace_id) {
  if (payload->empty()) {
    // A combiner may legitimately collapse a buffer to nothing.
    --sends_in_flight_;
    --reducers_[static_cast<std::size_t>(r)]->sends_pending;
    if (auto* tr = config_.trace.recorder) {
      tr->async_end(cluster_.engine().now(), config_.trace.pid, send_trace_id,
                    "send", "send");
    }
    // Barrier bookkeeping first: if this was the last send, the
    // routing barrier stamps (and sweeps readiness, r included) before
    // any zero-pair cascade this reducer's readiness could trigger.
    maybe_finish_routing();
    maybe_reducer_ready(r);
    return;
  }
  const int src_node = cluster_.node_of_gpu(g);
  const int dst_node = cluster_.node_of_gpu(r);
  const std::uint64_t bytes = payload->bytes();
  stats_.bytes_net += bytes;
  ++stats_.net_messages;
  if (src_node != dst_node) {
    stats_.bytes_net_inter += bytes;
    // The sender's NIC port serializes overhead + payload (fabric.hpp);
    // intra-node sends bypass the NIC entirely.
    stats_.nic_busy_s += cluster_.fabric().model().per_message_overhead_s +
                         static_cast<double>(bytes) /
                             cluster_.fabric().model().bandwidth_Bps;
  }
  cluster_.fabric().send(src_node, dst_node, bytes, [this, r, payload, send_trace_id] {
    reducers_[static_cast<std::size_t>(r)]->inbox.append_buffer(*payload);
    --sends_in_flight_;
    --reducers_[static_cast<std::size_t>(r)]->sends_pending;
    if (auto* tr = config_.trace.recorder) {
      tr->async_end(cluster_.engine().now(), config_.trace.pid, send_trace_id,
                    "send", "send");
    }
    // Barrier bookkeeping first (see the empty-payload branch); the
    // drain transition's sweep still marks this reducer ready before
    // the Global sort sweep, preserving the ready-then-sort order on
    // the final send.
    maybe_finish_routing();
    maybe_reducer_ready(r);
  });
}

void FramePlan::maybe_final_flush(int g) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  if (gs.finished || !gs.issued_all || gs.pending_partitions != 0) return;
  gs.finished = true;
  for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) flush_outbox(g, r);
  --mappers_remaining_;
  maybe_finish_routing();
}

void FramePlan::maybe_finish_routing() {
  if (sorts_ready_) return;
  if (mappers_remaining_ != 0 || partitions_in_flight_ != 0) return;
  // Every mapper finished partitioning: expected inbound-send counts
  // are final.
  const bool first_resolve = !routing_resolved_;
  routing_resolved_ = true;

  // Stamp the routing barrier BEFORE any readiness marking: marking a
  // reducer ready issues its sort, which for a zero-pair inbox cascades
  // through sort+reduce synchronously — with every inbox empty that
  // cascade finishes the whole frame, and finalize_stats must see
  // t_routed by then.
  const bool drained = sends_in_flight_ == 0;
  if (drained) {
    sorts_ready_ = true;
    stats_.t_routed = cluster_.engine().now() - t0_;
  }

  if (per_reducer_barriers()) {
    // Sweep on newly-final counts (any reducer whose inbox is already
    // complete becomes ready, index order) and on the drain (the final
    // send's reducer goes ready here). Between those, each landing
    // send marks its own reducer.
    if (first_resolve || drained) {
      for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
        maybe_reducer_ready(r);
      }
    }
  } else if (drained) {
    // Global barrier: every reducer becomes ready at this one event.
    for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
      mark_reducer_ready(r);
    }
  }
  if (!drained) return;
  for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
    if (sort_pending(r)) issue_sort_quantum(r);
  }
}

void FramePlan::maybe_reducer_ready(int r) {
  if (!per_reducer_barriers()) return;
  auto& rs = *reducers_[static_cast<std::size_t>(r)];
  // Ready when every (mapper, r) pair is final — each mapper has
  // partitioned (and flushed) the last chunk that could reach r — and
  // every flushed send has landed. Without footprints, pairs finalize
  // at each mapper's final flush, making this the old "all mappers
  // finished partitioning" gate exactly.
  if (rs.ready || rs.final_pairs != static_cast<int>(gpus_.size()) ||
      rs.sends_pending != 0) {
    return;
  }
  mark_reducer_ready(r);
  issue_sort_quantum(r);
}

void FramePlan::mark_reducer_ready(int r) {
  auto& rs = *reducers_[static_cast<std::size_t>(r)];
  rs.ready = true;
  rs.ready_s = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->instant(rs.ready_s, config_.trace.pid, config_.trace.reducer_tid_base + r,
                "reducer_ready", "barrier",
                {{"pairs", std::to_string(rs.inbox.size())},
                 {"frame", std::to_string(config_.trace.frame_id)}});
  }
  if (reducer_ready_cb_) reducer_ready_cb_(r);
}

// --- sort quanta -------------------------------------------------------------

double FramePlan::reducer_ready_s(int reducer) const {
  return reducers_.at(static_cast<std::size_t>(reducer))->ready_s;
}

double FramePlan::sort_issue_s(int reducer) const {
  return reducers_.at(static_cast<std::size_t>(reducer))->sort_issue_s;
}

double FramePlan::sort_done_s(int reducer) const {
  return reducers_.at(static_cast<std::size_t>(reducer))->sort_done_s;
}

bool FramePlan::sort_pending(int reducer) const {
  const auto& rs = *reducers_.at(static_cast<std::size_t>(reducer));
  return rs.ready && !rs.sort_issued;
}

void FramePlan::issue_sort_quantum(int r) {
  VRMR_CHECK(sort_pending(r));
  auto& rs = *reducers_[static_cast<std::size_t>(r)];
  rs.sort_issued = true;
  rs.sort_issue_s = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->begin(rs.sort_issue_s, config_.trace.pid,
              config_.trace.reducer_tid_base + r, "sort", "sort",
              {{"pairs", std::to_string(rs.inbox.size())},
               {"frame", std::to_string(config_.trace.frame_id)}});
  }

  const auto& hw = cluster_.config().hw;
  const std::uint64_t pairs = rs.inbox.size();
  stats_.per_reducer[static_cast<std::size_t>(r)].pairs_in = pairs;

  if (pairs == 0) {
    rs.groups = SortedGroups{};
    rs.groups.sorted = KvBuffer(config_.value_size);
    sort_done(r);
    return;
  }

  // Functional sort (deterministic regardless of placement).
  rs.groups = counting_sort(rs.inbox, 0, config_.domain.num_keys);
  stats_.per_reducer[static_cast<std::size_t>(r)].groups = rs.groups.num_groups();

  const bool on_gpu =
      config_.sort == SortPlacement::Gpu ||
      (config_.sort == SortPlacement::Auto && pairs > config_.gpu_sort_threshold_pairs);
  stats_.per_reducer[static_cast<std::size_t>(r)].sorted_on_gpu = on_gpu;

  const int node = cluster_.node_of_gpu(r);
  if (on_gpu) {
    // H2D -> device counting sort -> D2H, on the co-located GPU.
    const std::uint64_t bytes = rs.inbox.bytes();
    const double copy = hw.pcie.transfer_time(bytes);
    const double kernel = hw.gpu.kernel_launch_overhead_s +
                          static_cast<double>(pairs) / hw.gpu_sort.sort_rate_pairs_per_s;
    stats_.pcie_busy_s += 2.0 * copy;
    stats_.gpu_busy_s += 2.0 * copy + kernel;
    const std::array<sim::Resource*, 2> rsrc = {&cluster_.pcie(node),
                                                &cluster_.gpu_stream(r)};
    sim::Resource::acquire_multi(rsrc, copy, [this, r, node, kernel, copy](sim::SimTime,
                                                                           sim::SimTime) {
      cluster_.gpu_stream(r).acquire(kernel, [this, r, node, copy](sim::SimTime,
                                                                   sim::SimTime) {
        const std::array<sim::Resource*, 2> back = {&cluster_.pcie(node),
                                                    &cluster_.gpu_stream(r)};
        sim::Resource::acquire_multi(
            back, copy, [this, r](sim::SimTime, sim::SimTime) { sort_done(r); });
      });
    });
  } else {
    const double duration = static_cast<double>(pairs) / hw.cpu.sort_rate_pairs_per_s;
    stats_.cpu_busy_s += duration;
    cluster_.cpu(node).acquire(duration,
                               [this, r](sim::SimTime, sim::SimTime) { sort_done(r); });
  }
}

void FramePlan::sort_done(int r) {
  auto& rs_done = *reducers_[static_cast<std::size_t>(r)];
  rs_done.sort_completed = true;
  rs_done.sort_done_s = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->end(rs_done.sort_done_s, config_.trace.pid,
            config_.trace.reducer_tid_base + r);  // closes "sort"
  }
  // Stamp the sort barrier BEFORE chaining: a zero-pair reduce
  // completes synchronously, and when this was the last sort that
  // cascade finishes the frame — finalize_stats must see t_sorted by
  // then.
  const bool last = --sorts_remaining_ == 0;
  if (last) {
    stats_.t_sorted = cluster_.engine().now() - t0_;
    reduces_ready_ = true;
  }
  // Per-reducer chaining: this reducer's tile proceeds to compositing
  // immediately — it never waits for the other sorts.
  if (per_reducer_barriers() && reduce_pending(r)) issue_reduce_quantum(r);
  if (last) {
    // Under PerReducer barriers every other reduce already chained at
    // its own sort; this loop only picks up stragglers (Global mode
    // issues everything here).
    for (int rr = 0; rr < static_cast<int>(reducers_.size()); ++rr) {
      if (reduce_pending(rr)) issue_reduce_quantum(rr);
    }
  }
}

// --- reduce quanta -----------------------------------------------------------

bool FramePlan::reduce_pending(int reducer) const {
  const auto& rs = *reducers_.at(static_cast<std::size_t>(reducer));
  if (rs.reduce_issued) return false;
  return per_reducer_barriers() ? rs.sort_completed : reduces_ready_;
}

void FramePlan::issue_reduce_quantum(int r) {
  VRMR_CHECK(reduce_pending(r));
  auto& rs = *reducers_[static_cast<std::size_t>(r)];
  rs.reduce_issued = true;

  const auto& hw = cluster_.config().hw;
  const std::uint64_t pairs = rs.groups.sorted.size();
  if (auto* tr = config_.trace.recorder) {
    tr->begin(cluster_.engine().now(), config_.trace.pid,
              config_.trace.reducer_tid_base + r, "reduce", "reduce",
              {{"pairs", std::to_string(pairs)},
               {"frame", std::to_string(config_.trace.frame_id)}});
  }

  // Functional reduce.
  rs.reducer->begin(r);
  const auto& groups = rs.groups;
  for (std::size_t gidx = 0; gidx < groups.num_groups(); ++gidx) {
    const std::uint32_t key = groups.group_keys[gidx];
    const std::uint32_t lo = groups.group_offsets[gidx];
    const std::uint32_t hi = groups.group_offsets[gidx + 1];
    rs.reducer->reduce(key, groups.sorted.value(lo), hi - lo);
  }
  rs.reducer->end();

  if (pairs == 0) {
    reduce_done(r);
    return;
  }

  const int node = cluster_.node_of_gpu(r);
  if (config_.reduce == ReducePlacement::Cpu) {
    const double duration = static_cast<double>(pairs) / hw.cpu.reduce_rate_frags_per_s;
    stats_.cpu_busy_s += duration;
    cluster_.cpu(node).acquire(
        duration, [this, r](sim::SimTime, sim::SimTime) { reduce_done(r); });
  } else {
    // GPU compositing: pairs up, kernel, finished pixels back (the
    // option §3.1.2 weighs and rejects at small scales).
    const std::uint64_t up_bytes = rs.groups.sorted.bytes();
    const std::uint64_t down_bytes = groups.num_groups() * 16;  // RGBA float4
    const double up = hw.pcie.transfer_time(up_bytes);
    const double kernel =
        hw.gpu.kernel_launch_overhead_s +
        static_cast<double>(pairs) / hw.gpu_sort.reduce_rate_frags_per_s;
    const double down = hw.pcie.transfer_time(down_bytes);
    stats_.pcie_busy_s += up + down;
    stats_.gpu_busy_s += up + kernel + down;
    const std::array<sim::Resource*, 2> rsrc = {&cluster_.pcie(node),
                                                &cluster_.gpu_stream(r)};
    sim::Resource::acquire_multi(
        rsrc, up, [this, r, node, kernel, down](sim::SimTime, sim::SimTime) {
          cluster_.gpu_stream(r).acquire(
              kernel, [this, r, node, down](sim::SimTime, sim::SimTime) {
                const std::array<sim::Resource*, 2> back = {&cluster_.pcie(node),
                                                            &cluster_.gpu_stream(r)};
                sim::Resource::acquire_multi(
                    back, down,
                    [this, r](sim::SimTime, sim::SimTime) { reduce_done(r); });
              });
        });
  }
}

void FramePlan::reduce_done(int r) {
  tile_finish_s_[static_cast<std::size_t>(r)] = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->end(tile_finish_s_[static_cast<std::size_t>(r)], config_.trace.pid,
            config_.trace.reducer_tid_base + r);  // closes "reduce"
  }
  if (tile_cb_) tile_cb_(r);
  if (--reduces_remaining_ == 0) {
    finished_ = true;
    finalize_stats();
    if (finished_cb_) finished_cb_();
  }
}

double FramePlan::tile_finish_s(int reducer) const {
  return tile_finish_s_.at(static_cast<std::size_t>(reducer));
}

int FramePlan::reducer_contributors(int reducer) const {
  return reducer_contributors_.at(static_cast<std::size_t>(reducer));
}

void FramePlan::finalize_stats() {
  const double t_end = cluster_.engine().now() - t0_;
  stats_.runtime_s = t_end;
  double kernel_busy_total = 0.0;
  for (const auto& pg : stats_.per_gpu) kernel_busy_total += pg.kernel_s;
  stats_.stage.map_s = kernel_busy_total / stats_.num_gpus;
  stats_.stage.sort_s = stats_.t_sorted - stats_.t_routed;
  stats_.stage.reduce_s = t_end - stats_.t_sorted;
  stats_.stage.total_s = t_end;
  stats_.stage.partition_io_s = std::max(
      0.0, t_end - stats_.stage.map_s - stats_.stage.sort_s - stats_.stage.reduce_s);

  VRMR_DEBUG("mr.plan") << "runtime=" << stats_.runtime_s << "s map=" << stats_.stage.map_s
                        << "s part+io=" << stats_.stage.partition_io_s
                        << "s sort=" << stats_.stage.sort_s
                        << "s reduce=" << stats_.stage.reduce_s
                        << "s fragments=" << stats_.fragments;
}

const JobStats& FramePlan::stats() const {
  VRMR_CHECK_MSG(finished_, "stats() before the plan finished");
  return stats_;
}

JobStats FramePlan::run_to_completion() {
  start();
  greedy_ = true;

  auto& engine = cluster_.engine();
  for (int g = 0; g < static_cast<int>(gpus_.size()); ++g) {
    engine.schedule_after(0.0, [this, g] {
      if (!lane_busy(g) && pending_map_quanta(g) > 0) issue_map_quantum(g);
    });
  }
  engine.run();

  VRMR_CHECK_MSG(finished_,
                 "pipeline deadlocked: mappers=" << mappers_remaining_
                     << " partitions=" << partitions_in_flight_
                     << " sends=" << sends_in_flight_);
  return stats_;
}

}  // namespace vrmr::mr
