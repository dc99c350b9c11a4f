#include "volren/raycast.hpp"

#include <limits>

#include "util/check.hpp"
#include "volren/marching.hpp"

namespace vrmr::volren {
namespace {

std::shared_ptr<const BrickPayload> materialize_payload(const Volume& volume,
                                                        const BrickInfo& brick,
                                                        int decimation) {
  auto payload = std::make_shared<BrickPayload>();
  payload->voxels = volume.materialize(brick.padded_origin, brick.padded_dims, decimation,
                                       &payload->dims);
  payload->decimation = decimation;
  return payload;
}

/// The kernel proper. `get_payload()` supplies the brick's stored grid
/// at frame.cast.decimation; it is called only when the brick is on
/// screen.
template <typename PayloadFn>
BrickCastOutput cast_with(gpusim::Device& device, const Volume& volume,
                          const BrickInfo& brick, const FrameSetup& frame,
                          const gpusim::Texture1D& transfer_tex, PayloadFn&& get_payload) {
  BrickCastOutput out;

  const Camera& camera = frame.camera;
  const PixelRect rect = camera.project_box(brick.world_box);
  if (rect.empty()) return out;

  // Stage the brick texture (decimated proxy grid; logical bytes are
  // accounted against VRAM). The texture shares the payload's voxels.
  const std::shared_ptr<const BrickPayload> payload = get_payload();
  gpusim::Texture3D texture(device, payload->dims, brick.device_bytes());
  texture.upload(std::shared_ptr<const std::vector<float>>(payload, &payload->voxels));

  // 16×16 blocks over the projected sub-image (§3.2), padded to block
  // granularity like a CUDA grid.
  const Int3 block{16, 16, 1};
  const Int3 grid{ceil_div(rect.width(), block.x), ceil_div(rect.height(), block.y), 1};
  const std::int64_t row_threads = static_cast<std::int64_t>(grid.x) * block.x;
  const std::int64_t total_threads = row_threads * grid.y * block.y;

  out.keys.assign(static_cast<size_t>(total_threads), mr::kPlaceholderKey);
  out.fragments.assign(static_cast<size_t>(total_threads), RayFragment{});
  out.threads = static_cast<std::uint64_t>(total_threads);

  // Per-thread output slots live in device memory until the D2H copy
  // (placeholders included, §3.1.1).
  const std::uint64_t slot_bytes =
      static_cast<std::uint64_t>(total_threads) * (sizeof(std::uint32_t) + sizeof(RayFragment));
  const gpusim::DeviceAllocation slots = device.allocate(slot_bytes, "kv-slots");

  const Aabb volume_box = volume.world_box();
  const Vec3 dims_f = to_vec3(volume.dims());
  const Vec3 extent = volume.world_extent();
  const float dt = frame.cast.step_size(volume);
  const int decimation = frame.cast.decimation;
  const float inv_m = 1.0f / static_cast<float>(decimation);
  const float correction = frame.cast.opacity_correction();
  const float ert = frame.cast.ert_threshold;
  const Vec3 padded_origin_f = to_vec3(brick.padded_origin);
  const int image_width = camera.width();
  const std::uint32_t brick_id = static_cast<std::uint32_t>(brick.id);

  // One sample counter per block: a block's threads run in sequence on
  // one worker, so each counter has a single writer. Padded to a cache
  // line so neighbouring blocks on other workers do not share one.
  struct alignas(64) BlockSamples {
    std::uint64_t n = 0;
  };
  std::vector<BlockSamples> samples(static_cast<size_t>(grid.x) * grid.y);

  device.launch_2d(grid, block, [&](const gpusim::ThreadCtx& ctx) {
    const int gx = ctx.global_x();
    const int gy = ctx.global_y();
    const size_t slot = static_cast<size_t>(gy) * row_threads + gx;
    const int px = rect.x0 + gx;
    const int py = rect.y0 + gy;
    if (px >= rect.x1 || py >= rect.y1) return;  // block padding -> placeholder

    const Ray ray = camera.pixel_ray(px, py);

    float t_vol0 = 0.0f, t_vol1 = 0.0f;
    if (!volume_box.intersect(ray, 0.0f, std::numeric_limits<float>::max(), &t_vol0,
                              &t_vol1)) {
      return;  // ray misses the volume entirely -> placeholder
    }
    float t_enter = 0.0f, t_exit = 0.0f;
    if (!brick.world_box.intersect(ray, t_vol0, t_vol1, &t_enter, &t_exit)) {
      return;  // misses this brick -> placeholder (§3.2 immediate discard)
    }

    const auto sample = [&](Vec3 p) {
      // World -> global voxel coords -> brick-local stored-grid coords.
      const Vec3 gv = (p / extent) * dims_f;
      const Vec3 local{(gv.x - padded_origin_f.x - 0.5f) * inv_m + 0.5f,
                       (gv.y - padded_origin_f.y - 0.5f) * inv_m + 0.5f,
                       (gv.z - padded_origin_f.z - 0.5f) * inv_m + 0.5f};
      return texture.sample(local);
    };
    const auto transfer = [&](float s) { return transfer_tex.sample(s); };

    const MarchResult res = march_ray(ray, t_vol0, t_enter, t_exit, dt, decimation,
                                      correction, ert, sample, transfer);
    samples[static_cast<size_t>(ctx.block_idx.y) * grid.x + ctx.block_idx.x].n +=
        res.samples;

    if (res.color.a > 0.0f) {
      out.keys[slot] =
          static_cast<std::uint32_t>(py) * static_cast<std::uint32_t>(image_width) +
          static_cast<std::uint32_t>(px);
      RayFragment frag;
      frag.set_color(res.color);
      frag.depth = t_enter;
      frag.brick = brick_id;
      out.fragments[slot] = frag;
    }
    // else: zero contribution -> placeholder stays (§3.1.1)
  });

  for (const BlockSamples& s : samples) out.samples += s.n;
  return out;
}

}  // namespace

BrickCastOutput cast_brick(gpusim::Device& device, const Volume& volume,
                           const BrickInfo& brick, const FrameSetup& frame,
                           const gpusim::Texture1D& transfer_tex) {
  return cast_with(device, volume, brick, frame, transfer_tex, [&] {
    return materialize_payload(volume, brick, frame.cast.decimation);
  });
}

void RayCastMapper::init(gpusim::Device& device) {
  transfer_tex_ = std::make_unique<gpusim::Texture1D>(device, 256);
  const std::vector<Vec4> table = frame_.transfer.bake(256);
  transfer_tex_->upload(table);
}

mr::MapOutcome RayCastMapper::map(gpusim::Device& device, const mr::Chunk& chunk,
                                  mr::KvBuffer& out) {
  const auto* brick_chunk = dynamic_cast<const BrickChunk*>(&chunk);
  VRMR_CHECK_MSG(brick_chunk != nullptr, "RayCastMapper requires BrickChunk inputs");
  // LOD chunks carry their pyramid-level volume (a wrapper over the
  // base); everything the kernel needs (world box, stored grid, dt)
  // comes from the chunk itself, so only base-resolution chunks must
  // match the mapper's volume.
  VRMR_CHECK_MSG(brick_chunk->lod() > 0 || &brick_chunk->volume() == volume_,
                 "chunk belongs to a different volume");
  VRMR_CHECK_MSG(transfer_tex_ != nullptr, "init() was not called");
  VRMR_CHECK_MSG(out.value_size() == sizeof(RayFragment),
                 "job value_size must be sizeof(RayFragment) = " << sizeof(RayFragment));

  const Volume& volume = brick_chunk->volume();
  const BrickInfo& info = brick_chunk->info();
  const int decimation = frame_.cast.decimation;
  // Reuse the payload the resident cache entry holds. BrickKey does not
  // carry the decimation, so a payload built at another one is rebuilt
  // and replaced, never sampled.
  const auto get_payload = [&]() -> std::shared_ptr<const BrickPayload> {
    PayloadSlot* slot = payloads_ ? payloads_(gpu_, *brick_chunk) : nullptr;
    if (slot != nullptr && *slot != nullptr && (*slot)->decimation == decimation) {
      return *slot;
    }
    std::shared_ptr<const BrickPayload> payload =
        materialize_payload(volume, info, decimation);
    if (slot != nullptr) *slot = payload;
    return payload;
  };

  BrickCastOutput cast;
  if (brick_chunk->lod_stride() > 1) {
    FrameSetup lod_frame = frame_;
    lod_frame.cast.lod_stride = brick_chunk->lod_stride();
    cast = cast_with(device, volume, info, lod_frame, *transfer_tex_, get_payload);
  } else {
    cast = cast_with(device, volume, info, frame_, *transfer_tex_, get_payload);
  }
  if (cast.threads > 0) {
    out.append_bulk(cast.keys, cast.fragments.data());
  }

  mr::MapOutcome outcome;
  outcome.samples = cast.samples;
  outcome.threads = cast.threads;
  return outcome;
}

}  // namespace vrmr::volren
