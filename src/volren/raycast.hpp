#pragma once

// The ray-casting map kernel (§3.2) and its MapReduce adapters.
//
// Kernel behaviour mirrors the paper's CUDA implementation:
//   * volume brick in a 3-D float texture (trilinear, hardware-style);
//   * 16×16 thread blocks over the brick's projected sub-image; the
//     host runs each block row's threads as 4-lane SSE2 packets, the way
//     a warp marches adjacent rays in lock-step. Every lane does
//     march_ray's operations in march_ray's order (marching.hpp), so the
//     packets change no bit of output
//     (tests/volren/test_cast_packets.cpp);
//   * every ray intersected against the brick's bounding box,
//     non-intersecting rays discarded immediately;
//   * fixed-increment, non-adaptive trilinear sampling;
//   * early ray termination;
//   * front-to-back compositing against a 1-D transfer-function
//     texture with opacity correction;
//   * every thread emits exactly one key-value pair — a RayFragment or
//     a later-discarded placeholder (§3.1.1).
//
// Sample-ownership rule: ray steps are a global grid anchored at the
// ray's entry into the *volume* box (t_k = t_vol + (k + 0.5)·dt); a
// brick owns exactly the steps whose t_k fall inside its half-open
// [t_enter, t_exit) interval. Because shared brick faces evaluate to
// bit-identical plane constants (see bricking.cpp), every step belongs
// to exactly one brick and the composited pipeline reproduces the
// single-pass reference bit-for-bit (modulo floating-point
// re-association; see tests/volren/test_pipeline_equivalence.cpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "mr/chunk.hpp"
#include "mr/mapper.hpp"
#include "volren/bricking.hpp"
#include "volren/camera.hpp"
#include "volren/fragment.hpp"
#include "volren/transfer_function.hpp"
#include "volren/volume.hpp"

namespace vrmr::volren {

/// Sampling parameters shared by the map kernel and the reference
/// renderer (they must agree exactly for equivalence tests).
struct RaycastSettings {
  /// Samples per voxel along the ray (1 = one step per voxel edge).
  float sampling_rate = 1.0f;
  /// Early-ray-termination opacity threshold; >= 1 disables ERT.
  float ert_threshold = kOpaqueAlpha;
  /// Functional step stride: the kernel *takes* every decimation-th
  /// step but *charges* every step to the simulated GPU, and the brick
  /// texture stores a correspondingly decimated grid. 1 = exact
  /// (always used by tests); >1 only for paper-scale bench volumes
  /// (bench/common.hpp).
  int decimation = 1;
  /// LOD pyramid stride (2^level) of the volume being marched. Coarse
  /// levels step at their own (2^level x longer) voxel edge via
  /// step_size(), so the opacity-correction exponent — defined against
  /// the *base* volume's per-voxel-step alpha — must scale with it.
  /// 1 = base resolution.
  int lod_stride = 1;

  /// World-space step between consecutive logical samples for `volume`.
  float step_size(const Volume& volume) const {
    const Vec3 voxel = volume.world_extent() / to_vec3(volume.dims());
    return std::min({voxel.x, voxel.y, voxel.z}) / sampling_rate;
  }

  /// Opacity-correction exponent relative to the transfer function's
  /// per-voxel-step alpha definition.
  float opacity_correction() const {
    return static_cast<float>(decimation * lod_stride) / sampling_rate;
  }
};

/// One brick of one volume, as a MapReduce chunk. Holds references —
/// the Volume must outlive the job.
class BrickChunk final : public mr::Chunk {
 public:
  BrickChunk(const Volume& volume, BrickInfo info) : volume_(&volume), info_(info) {}

  /// LOD pyramid chunk: `volume` and `info` come from the pyramid
  /// *level* (not the base), `lod`/`lod_stride` describe the level, and
  /// `cache_signature` is the level layout's signature so cached coarse
  /// payloads never alias full-resolution ones (0 = caller keys by its
  /// own layout id).
  BrickChunk(const Volume& volume, BrickInfo info, int lod, int lod_stride,
             std::uint64_t cache_signature)
      : volume_(&volume),
        info_(info),
        lod_(lod),
        lod_stride_(lod_stride),
        cache_signature_(cache_signature) {}

  std::uint64_t device_bytes() const override { return info_.device_bytes(); }
  /// Stored (cache / wire / disk) payload size: the compressed size
  /// when set_compression was applied, else the logical size.
  std::uint64_t stored_bytes() const override {
    return stored_bytes_ > 0 ? stored_bytes_ : info_.device_bytes();
  }
  /// Disk delivers the stored payload too (VRBF v2 records compressed
  /// brick streams; io/brick_file.hpp).
  std::uint64_t disk_bytes() const override { return stored_bytes(); }
  double decompress_s() const override { return decompress_s_; }
  std::string label() const override {
    std::string name = volume_->name() + "/brick" + std::to_string(info_.id);
    if (lod_ > 0) name += "@L" + std::to_string(lod_);
    return name;
  }

  /// Attach this brick's compression outcome (compress::CompressionPlan
  /// entry): `stored` bytes move on every byte-touching path and
  /// `decompress_s` is charged as a GPU-stream quantum before the map
  /// kernel. Never called (or called with stored == 0) = uncompressed.
  void set_compression(std::uint64_t stored, double decompress_s) {
    stored_bytes_ = stored;
    decompress_s_ = decompress_s;
  }

  const BrickInfo& info() const { return info_; }
  const Volume& volume() const { return *volume_; }
  int lod() const { return lod_; }
  int lod_stride() const { return lod_stride_; }
  std::uint64_t cache_signature() const { return cache_signature_; }

 private:
  const Volume* volume_;
  BrickInfo info_;
  int lod_ = 0;
  int lod_stride_ = 1;
  std::uint64_t cache_signature_ = 0;
  std::uint64_t stored_bytes_ = 0;  // 0 = uncompressed (logical size)
  double decompress_s_ = 0.0;
};

/// Static per-frame state shared by all of a job's mappers.
struct FrameSetup {
  Camera camera;
  TransferFunction transfer = TransferFunction::grayscale_ramp();
  RaycastSettings cast;
};

/// Raw kernel output for one brick: parallel slot arrays, one entry per
/// launched thread (the every-thread-emits layout the paper requires
/// for efficient device-side output, §3.1.1).
struct BrickCastOutput {
  std::vector<std::uint32_t> keys;      // pixel index or kPlaceholderKey
  std::vector<RayFragment> fragments;   // valid where key != placeholder
  std::uint64_t samples = 0;            // logical samples charged
  std::uint64_t threads = 0;
};

/// Execute the ray-cast kernel for one brick on `device` (functional
/// path used by both the MapReduce mapper and the binary-swap
/// compositor ablation). Materializes the brick's stored grid on every
/// call.
BrickCastOutput cast_brick(gpusim::Device& device, const Volume& volume,
                           const BrickInfo& brick, const FrameSetup& frame,
                           const gpusim::Texture1D& transfer_tex);

/// A brick's host payload: the stored grid its 3-D texture samples, as
/// Volume::materialize built it at `decimation`.
struct BrickPayload {
  std::vector<float> voxels;  // x-fastest, dims.volume() entries
  Int3 dims;                  // stored dims
  int decimation = 1;
};

/// Where the host keeps a brick's payload while the modeled GPU holds
/// the brick (the service's BrickCache entry). Returns the slot of the
/// chunk's resident entry on `gpu`, or nullptr when the brick is not
/// resident there. The slot is read and written during the map call
/// only. An empty slot, or one built at another decimation, is refilled
/// by the mapper.
using PayloadSlot = std::shared_ptr<const BrickPayload>;
using PayloadHook = std::function<PayloadSlot*(int gpu, const BrickChunk& chunk)>;

/// mr::Mapper adapter: stages the brick texture, runs the cast kernel,
/// bulk-emits the slots. With a payload hook, a resident brick's voxels
/// are materialized once and reused until its cache entry goes.
class RayCastMapper final : public mr::Mapper {
 public:
  RayCastMapper(const Volume& volume, FrameSetup frame, PayloadHook payloads = {},
                int gpu = 0)
      : volume_(&volume), frame_(std::move(frame)), payloads_(std::move(payloads)),
        gpu_(gpu) {}

  void init(gpusim::Device& device) override;
  mr::MapOutcome map(gpusim::Device& device, const mr::Chunk& chunk,
                     mr::KvBuffer& out) override;

 private:
  const Volume* volume_;
  FrameSetup frame_;
  PayloadHook payloads_;
  int gpu_;
  std::unique_ptr<gpusim::Texture1D> transfer_tex_;
};

}  // namespace vrmr::volren
