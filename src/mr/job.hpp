#pragma once

// Configuration of one MapReduce job (§3.1): JobConfig, the barrier
// mode, the mapper/reducer/combiner factories and the staging, fetch
// and fault hooks a serving layer installs. The runtime that executes
// a job is mr::FramePlan (frame_plan.hpp): build one from a JobConfig
// and call run_to_completion() for the paper's whole-frame schedule.

#include <functional>
#include <memory>

#include "cluster/cluster.hpp"
#include "mr/chunk.hpp"
#include "mr/combiner.hpp"
#include "mr/mapper.hpp"
#include "mr/partitioner.hpp"
#include "mr/reducer.hpp"
#include "mr/sorter.hpp"
#include "mr/stats.hpp"
#include "obs/trace.hpp"

namespace vrmr::mr {

/// Residency hook for chunk staging. Called when GPU process `gpu` is
/// about to stage `chunk`; return true when the chunk's payload is
/// already resident in that GPU's memory, in which case the job skips
/// both the disk read and the H2D copy and charges nothing for them.
/// This is how a serving layer (src/service) keeps bricks warm between
/// frames of the same session. The hook runs inside DES callbacks and
/// must be deterministic.
using StagingHook = std::function<bool(int gpu, const Chunk& chunk)>;

/// Remote-fetch hook consulted on a staging MISS before the disk read.
/// Return true to take ownership of delivering `chunk`'s payload into
/// host memory on GPU `gpu`'s node — the hook must then invoke `done`
/// exactly once (from a DES callback at the simulated delivery time),
/// after which the plan proceeds with the normal H2D copy. Return false
/// to decline: the plan falls back to the disk path. This is how a
/// serving tier hydrates a cold shard from a sibling's warm cache over
/// the fabric instead of re-reading disk (src/service/frontend.hpp).
using FetchHook =
    std::function<bool(int gpu, const Chunk& chunk, std::function<void()> done)>;

/// Verdict of the fault-injection hook for one stage+map quantum
/// attempt. fail=true wedges the lane for detect_s of simulated time
/// (the failure-detection timeout: a stuck read, a missed ack), after
/// which the plan restores the chunk for a retry, frees the lane, and
/// fires on_quantum_failed. `kind` labels the trace event
/// ("fault.<kind>").
struct QuantumFault {
  bool fail = false;
  double detect_s = 0.0;
  const char* kind = "quantum";
};

/// Fault-injection hook consulted once per stage+map quantum attempt,
/// before any staging work: (gpu, chunk_index, attempt) with attempt
/// 1-based across retries of the same chunk. Drive it from a seeded
/// fault::FaultPlan — it runs inside DES callbacks and must be
/// deterministic. Null = never fail.
using FaultHook = std::function<QuantumFault(int gpu, int chunk_index, int attempt)>;

/// How the pipeline's two dataflow barriers are enforced.
///
///   Global     — the paper's schedule: no sort starts until *every*
///                chunk's partitions and sends have drained, and no
///                reduce starts until *every* sort completed. Event-
///                for-event identical to the original monolithic job.
///   PerReducer — dataflow readiness: once every mapper has finished
///                partitioning (each reducer's expected inbound-send
///                count is final), a reducer's sort is issuable the
///                moment its OWN inbox is complete, and its reduce
///                chains immediately after its own sort — no
///                frame-global sync anywhere on a tile's critical
///                path. Pixels and dataflow counters are identical to
///                Global; only the schedule (and thus timings) differ.
///                This is what minimizes time-to-first-pixel for
///                streamed tile delivery (bench_time_to_first_pixel).
enum class BarrierMode { Global, PerReducer };

const char* to_string(BarrierMode mode);

struct JobConfig {
  /// Size of every emitted value in bytes (homogeneous, §3.1.1).
  std::uint32_t value_size = 0;

  /// Dense key domain facts (num_keys required; image_width required
  /// for the Tiled strategy).
  PartitionDomain domain;

  PartitionStrategy partition = PartitionStrategy::PixelRoundRobin;
  SortPlacement sort = SortPlacement::Auto;
  ReducePlacement reduce = ReducePlacement::Cpu;
  /// Barrier enforcement (see BarrierMode). Global preserves the
  /// paper's schedule and stage attribution bit-for-bit; PerReducer
  /// dissolves both frame-global barriers into per-reducer readiness.
  BarrierMode barrier_mode = BarrierMode::Global;

  /// Auto sort placement moves to the GPU above this many pairs — set
  /// at the modeled CPU/GPU crossover (round-trip PCIe + device sort
  /// beats a 2010 core above ~15-30 K pairs; see bench_ablation_sort).
  std::uint64_t gpu_sort_threshold_pairs = 32u << 10;

  /// Charge disk reads for chunk staging (out-of-core mode). The
  /// paper's §6.3 speed-of-light analysis assumes data resident in CPU
  /// memory, so this defaults off.
  bool include_disk_io = false;

  /// Streaming send buffer per (mapper, reducer) pair: "Once enough
  /// pairs have been generated by a Mapper, they are sent
  /// asynchronously to the Reducer" (§3.1.2). Partition output
  /// accumulates per destination and flushes when a buffer fills (or
  /// when the mapper finishes), so message count is data-driven — with
  /// many bricks per GPU the fabric sees a few large messages instead
  /// of bricks × reducers small ones.
  std::uint64_t send_buffer_bytes = 256 * 1024;

  /// Optional residency test consulted before each chunk is staged
  /// (see StagingHook above). Null = always stage.
  StagingHook staging_hook;

  /// Optional remote-fetch path consulted on a staging miss before the
  /// disk read (see FetchHook above). Null = always read from disk.
  FetchHook fetch_hook;

  /// Optional fault injection consulted at each map-quantum issue (see
  /// FaultHook above). Null = never fail.
  FaultHook fault_hook;

  /// Flight-recorder attribution (shard / session / frame / priority).
  /// With trace.recorder == nullptr (the default) the plan records
  /// nothing and every instrumentation site is a single null check.
  obs::TraceContext trace;

  void validate() const;
};

using MapperFactory =
    std::function<std::unique_ptr<Mapper>(int gpu_index, gpusim::Device& device)>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>(int reducer_index)>;
using CombinerFactory = std::function<std::unique_ptr<Combiner>(int gpu_index)>;

}  // namespace vrmr::mr
