#include "volren/raycast.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "volren/marching.hpp"

namespace vrmr::volren {
namespace {

/// Threads per packet: one SSE2 register of floats.
constexpr int kLanes = 4;
/// A lane's step index starts at most here and then grows only across
/// one brick segment, so it stays an int32 (cvtdq2ps converts it
/// exactly like march_ray's int64 -> float).
constexpr std::int64_t kMaxFirstStep = std::int64_t{1} << 30;

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
  const Vec3 eye = camera.eye();
  const std::uint32_t brick_id = static_cast<std::uint32_t>(brick.id);

  // One sample counter per block: a block's threads run in sequence on
  // one worker, so each counter has a single writer. Padded to a cache
  // line so neighbouring blocks on other workers do not share one.
  struct alignas(64) BlockSamples {
    std::uint64_t n = 0;
  };
  std::vector<BlockSamples> samples(static_cast<size_t>(grid.x) * grid.y);

  // One packet: the kLanes horizontally adjacent threads (gx .. gx + 3,
  // gy) marching in lock-step, each lane doing exactly march_ray's
  // operations in march_ray's order (marching.hpp). Returns the samples
  // charged.
  const auto cast_packet = [&](int gx, int gy) -> std::uint64_t {
    using simd::F4;
    const int px0 = rect.x0 + gx;
    const int py = rect.y0 + gy;
    if (py >= rect.y1 || px0 >= rect.x1) return 0;  // block padding -> placeholders
    const int on_screen = (1 << std::min(kLanes, rect.x1 - px0)) - 1;

    const simd::F4x3 dir = camera.pixel_dirs(px0, py);
    F4 t_vol0, t_vol1, t_enter, t_exit;
    int lanes = on_screen & volume_box.intersect(eye, dir, F4(0.0f),
                                                 F4(std::numeric_limits<float>::max()),
                                                 &t_vol0, &t_vol1);
    // Lanes that miss the volume or this brick stay placeholders (§3.2
    // immediate discard).
    if (lanes != 0) {
      lanes &= brick.world_box.intersect(eye, dir, t_vol0, t_vol1, &t_enter, &t_exit);
    }
    if (lanes == 0) return 0;

    // march_ray's setup, per lane: an empty segment marches nothing.
    const int marching = dt <= 0.0f ? 0 : lanes & simd::bits(t_enter < t_exit);
    alignas(16) float anchor[4], enter[4];
    t_vol0.store(anchor);
    t_enter.store(enter);
    alignas(16) int first[4] = {0, 0, 0, 0};
    for (int lane = 0; lane < kLanes; ++lane) {
      if ((marching >> lane & 1) == 0) continue;
      const std::int64_t k = first_step(anchor[lane], enter[lane], dt);
      VRMR_CHECK_MSG(k <= kMaxFirstStep, "ray step " << k << " overflows the packet's int32");
      first[lane] = static_cast<int>(k);
    }

    // march_ray's loop, the lanes in lock-step. A lane leaves the loop
    // (its mask bit clears) where march_ray would break.
    simd::I4 k = simd::I4::load(first);
    F4 active = simd::mask(marching);
    F4 r, g, b, a;  // premultiplied accumulation, Rgba::transparent()
    std::uint64_t charged = 0;
    for (;;) {
      const F4 t = t_vol0 + (simd::to_float(k) + F4(0.5f)) * F4(dt);
      active = active & (t < t_exit);
      const int live = simd::bits(active);
      if (live == 0) break;
      // sample(ray.at(t)): world -> global voxel -> brick-local
      // stored-grid coords, then the trilinear fetch.
      const simd::F4x3 p{F4(eye.x) + dir.x * t, F4(eye.y) + dir.y * t,
                         F4(eye.z) + dir.z * t};
      const simd::F4x3 local{
          (p.x / F4(extent.x) * F4(dims_f.x) - F4(padded_origin_f.x) - F4(0.5f)) * F4(inv_m) +
              F4(0.5f),
          (p.y / F4(extent.y) * F4(dims_f.y) - F4(padded_origin_f.y) - F4(0.5f)) * F4(inv_m) +
              F4(0.5f),
          (p.z / F4(extent.z) * F4(dims_f.z) - F4(padded_origin_f.z) - F4(0.5f)) * F4(inv_m) +
              F4(0.5f)};
      const simd::F4x4 straight = transfer_tex.sample(texture.sample(local, live), live);
      // A transparent sample composites zeros, which leaves the
      // accumulator's bits unchanged: skip it, still charge the step.
      const F4 visible = active & (straight.w > F4(0.0f));
      const int shown = simd::bits(visible);
      if (shown != 0) {
        // premultiply_corrected, then composite_over.
        F4 transparency = F4(1.0f) - simd::clamp(straight.w, F4(0.0f), F4(1.0f));
        if (correction != 1.0f) {
          alignas(16) float kept[4];
          transparency.store(kept);
          for (int lane = 0; lane < kLanes; ++lane) {
            if (shown >> lane & 1) kept[lane] = std::pow(kept[lane], correction);
          }
          transparency = F4::load(kept);
        }
        const F4 alpha = F4(1.0f) - transparency;
        const F4 behind = F4(1.0f) - a;
        r = simd::select(visible, r + straight.x * alpha * behind, r);
        g = simd::select(visible, g + straight.y * alpha * behind, g);
        b = simd::select(visible, b + straight.z * alpha * behind, b);
        a = simd::select(visible, a + alpha * behind, a);
      }
      charged += static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(live))) *
                 static_cast<std::uint64_t>(decimation);
      active = simd::and_not(active, a >= F4(ert));  // early ray termination
      k = k + simd::I4(decimation);
    }

    // Every lane that hit the brick emits its fragment when it
    // accumulated any opacity; the rest stay placeholders (§3.1.1).
    alignas(16) float rs[4], gs[4], bs[4], as[4];
    r.store(rs);
    g.store(gs);
    b.store(bs);
    a.store(as);
    const size_t slot0 = static_cast<size_t>(gy) * row_threads + gx;
    for (int lane = 0; lane < kLanes; ++lane) {
      if ((lanes >> lane & 1) == 0 || !(as[lane] > 0.0f)) continue;
      const int px = px0 + lane;
      out.keys[slot0 + lane] =
          static_cast<std::uint32_t>(py) * static_cast<std::uint32_t>(image_width) +
          static_cast<std::uint32_t>(px);
      RayFragment frag;
      frag.set_color(Rgba{rs[lane], gs[lane], bs[lane], as[lane]});
      frag.depth = enter[lane];
      frag.brick = brick_id;
      out.fragments[slot0 + lane] = frag;
    }
    return charged;
  };

  device.launch_2d(grid, block, [&](const gpusim::BlockCtx& ctx) {
    std::uint64_t block_samples = 0;
    for (int ty = 0; ty < block.y; ++ty) {
      for (int tx = 0; tx < block.x; tx += kLanes) {
        const gpusim::ThreadCtx lane0 = ctx.thread(tx, ty);
        block_samples += cast_packet(lane0.global_x(), lane0.global_y());
      }
    }
    samples[static_cast<size_t>(ctx.block_idx.y) * grid.x + ctx.block_idx.x].n = block_samples;
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
