// The ray-cast kernel's 4-lane packets against the scalar specification
// they reproduce. cast_brick marches four horizontally adjacent threads
// of a block row in lock-step (volren/raycast.cpp); every lane must do
// exactly the IEEE operations of march_ray (volren/marching.hpp) in the
// same order. The oracle below is the one-thread-at-a-time kernel:
// pixel_ray, the two slab tests and march_ray with the kernel's
// texel-space sample and transfer-function lookup. Keys, fragments (bit
// for bit), sample charges and thread counts must all be equal.
//
// The cases cover rect widths that are not multiples of 4 (tail lanes),
// lanes that miss the volume or the brick, a camera inside the volume
// (rects clipped to the image edge), ERT with lanes terminating at
// different steps, axis-aligned views (ray directions with exact zero
// components), decimation 1/2/4/32, LOD stride 2 and bricks stored as 2-3
// texels per side (the texture's clamp path).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "util/rng.hpp"
#include "volren/datasets.hpp"
#include "volren/marching.hpp"
#include "volren/raycast.hpp"

namespace vrmr::volren {
namespace {

gpusim::Device& test_device() {
  static gpusim::DeviceProps props = [] {
    gpusim::DeviceProps p;
    p.vram_bytes = 2ULL << 30;
    return p;
  }();
  static gpusim::Device dev(3, props);
  return dev;
}

/// What the oracle saw, so each case can show it reached the paths it
/// claims to cover.
struct Coverage {
  std::uint64_t tail_lanes = 0;      // on-screen threads of a partial packet
  std::uint64_t missed = 0;          // on-screen rays missing the volume or brick
  std::uint64_t terminated = 0;      // rays stopped by ERT
  std::uint64_t zero_direction = 0;  // rays with an exactly-zero component
  std::uint64_t fragments = 0;
};

/// The kernel one thread at a time: the per-thread code cast_brick ran
/// before its threads became packets.
BrickCastOutput scalar_oracle(const Volume& volume, const BrickInfo& brick,
                              const FrameSetup& frame, const gpusim::Texture1D& transfer_tex,
                              Coverage* seen) {
  BrickCastOutput out;
  const Camera& camera = frame.camera;
  const PixelRect rect = camera.project_box(brick.world_box);
  if (rect.empty()) return out;

  Int3 stored;
  const std::vector<float> voxels = volume.materialize(
      brick.padded_origin, brick.padded_dims, frame.cast.decimation, &stored);
  gpusim::Texture3D texture(test_device(), stored);
  texture.upload(voxels);

  const int row_threads = ceil_div(rect.width(), 16) * 16;
  const int rows = ceil_div(rect.height(), 16) * 16;
  out.threads = static_cast<std::uint64_t>(row_threads) * rows;
  out.keys.assign(out.threads, mr::kPlaceholderKey);
  out.fragments.assign(out.threads, RayFragment{});

  const Aabb volume_box = volume.world_box();
  const Vec3 dims_f = to_vec3(volume.dims());
  const Vec3 extent = volume.world_extent();
  const float dt = frame.cast.step_size(volume);
  const int decimation = frame.cast.decimation;
  const float inv_m = 1.0f / static_cast<float>(decimation);
  const Vec3 padded_origin_f = to_vec3(brick.padded_origin);

  for (int gy = 0; gy < rows; ++gy) {
    for (int gx = 0; gx < row_threads; ++gx) {
      const int px = rect.x0 + gx;
      const int py = rect.y0 + gy;
      if (px >= rect.x1 || py >= rect.y1) continue;
      if (rect.x1 - (px - gx % 4) < 4) ++seen->tail_lanes;
      const Ray ray = camera.pixel_ray(px, py);
      if (ray.dir.x == 0.0f || ray.dir.y == 0.0f || ray.dir.z == 0.0f) ++seen->zero_direction;
      float t_vol0 = 0.0f, t_vol1 = 0.0f, t_enter = 0.0f, t_exit = 0.0f;
      if (!volume_box.intersect(ray, 0.0f, std::numeric_limits<float>::max(), &t_vol0,
                                &t_vol1) ||
          !brick.world_box.intersect(ray, t_vol0, t_vol1, &t_enter, &t_exit)) {
        ++seen->missed;
        continue;
      }
      const auto sample = [&](Vec3 p) {
        const Vec3 gv = (p / extent) * dims_f;
        const Vec3 local{(gv.x - padded_origin_f.x - 0.5f) * inv_m + 0.5f,
                         (gv.y - padded_origin_f.y - 0.5f) * inv_m + 0.5f,
                         (gv.z - padded_origin_f.z - 0.5f) * inv_m + 0.5f};
        return texture.sample(local);
      };
      const auto transfer = [&](float s) { return transfer_tex.sample(s); };
      const MarchResult res =
          march_ray(ray, t_vol0, t_enter, t_exit, dt, decimation,
                    frame.cast.opacity_correction(), frame.cast.ert_threshold, sample, transfer);
      out.samples += res.samples;
      if (res.terminated_early) ++seen->terminated;
      if (res.color.a > 0.0f) {
        const size_t slot = static_cast<size_t>(gy) * row_threads + gx;
        out.keys[slot] = static_cast<std::uint32_t>(py * camera.width() + px);
        RayFragment frag;
        frag.set_color(res.color);
        frag.depth = t_enter;
        frag.brick = static_cast<std::uint32_t>(brick.id);
        out.fragments[slot] = frag;
        ++seen->fragments;
      }
    }
  }
  return out;
}

enum class View { Orbit, Inside, AxisAligned };

struct PacketCase {
  const char* name;
  const char* volume;
  int brick_size;
  int decimation;
  float ert;           // >= 1 disables ERT
  float sampling_rate;
  int lod_stride;
  View view;
  int width, height;   // odd sizes put a pixel centre on the optical axis
};

std::ostream& operator<<(std::ostream& os, const PacketCase& c) { return os << c.name; }

Camera make_camera(const PacketCase& c, const Aabb& box, Pcg32& rng) {
  switch (c.view) {
    case View::AxisAligned:
      // Looking down -z with an exact basis: the middle pixel column and
      // row have exactly-zero x / y direction components.
      return Camera::orbit(box, 0.0f, 0.0f, 1.6f, 0.7f, c.width, c.height);
    case View::Inside:
      return Camera::orbit(box, rng.uniform(0.0f, 6.28f), rng.uniform(-1.2f, 1.2f), 0.2f,
                           1.0f, c.width, c.height);
    case View::Orbit:
      break;
  }
  return Camera::orbit(box, rng.uniform(0.0f, 6.28f), rng.uniform(-1.2f, 1.2f),
                       rng.uniform(1.1f, 2.5f), rng.uniform(0.4f, 0.9f), c.width, c.height);
}

class CastPackets : public testing::TestWithParam<PacketCase> {};

TEST_P(CastPackets, MatchScalarMarchRayBitForBit) {
  const PacketCase& c = GetParam();
  const Volume volume = datasets::by_name(c.volume, Int3{24, 20, 28});
  const BrickLayout layout(volume.dims(), volume.world_extent(), c.brick_size);
  gpusim::Texture1D transfer_tex(test_device(), 256);
  Coverage seen;
  std::uint64_t compared_threads = 0;

  std::uint64_t seed = 1469598103934665603ull;  // FNV-1a of the case name
  for (const char* ch = c.name; *ch != '\0'; ++ch) {
    seed = (seed ^ static_cast<unsigned char>(*ch)) * 1099511628211ull;
  }
  Pcg32 rng(seed, 5);
  for (int view = 0; view < 4; ++view) {
    FrameSetup frame;
    frame.camera = make_camera(c, volume.world_box(), rng);
    frame.transfer = view % 2 == 0 ? TransferFunction::bone() : TransferFunction::fire();
    frame.cast.decimation = c.decimation;
    frame.cast.ert_threshold = c.ert;
    frame.cast.sampling_rate = c.sampling_rate;
    frame.cast.lod_stride = c.lod_stride;
    transfer_tex.upload(frame.transfer.bake(256));

    for (const BrickInfo& brick : layout.bricks()) {
      const BrickCastOutput packets =
          cast_brick(test_device(), volume, brick, frame, transfer_tex);
      const BrickCastOutput oracle = scalar_oracle(volume, brick, frame, transfer_tex, &seen);
      ASSERT_EQ(packets.threads, oracle.threads) << "brick " << brick.id;
      ASSERT_EQ(packets.samples, oracle.samples) << "brick " << brick.id;
      ASSERT_EQ(packets.keys, oracle.keys) << "brick " << brick.id;
      ASSERT_EQ(packets.fragments.size(), oracle.fragments.size());
      for (size_t i = 0; i < oracle.fragments.size(); ++i) {
        ASSERT_EQ(std::memcmp(&packets.fragments[i], &oracle.fragments[i], sizeof(RayFragment)),
                  0)
            << "brick " << brick.id << " slot " << i << ": packet rgba "
            << packets.fragments[i].color() << " oracle " << oracle.fragments[i].color();
      }
      compared_threads += oracle.threads;
    }
  }

  // The case reached what it is named for.
  EXPECT_GT(compared_threads, 0u);
  EXPECT_GT(seen.fragments, 0u);
  EXPECT_GT(seen.tail_lanes, 0u);
  EXPECT_GT(seen.missed, 0u);
  if (c.ert < 1.0f) {
    EXPECT_GT(seen.terminated, 0u);
  }
  if (c.view == View::AxisAligned) {
    EXPECT_GT(seen.zero_direction, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CastPackets,
    testing::Values(
        PacketCase{"orbit_dec1", "skull", 8, 1, 2.0f, 1.0f, 1, View::Orbit, 37, 29},
        PacketCase{"orbit_dec1_ert", "supernova", 8, 1, 0.3f, 1.0f, 1, View::Orbit, 41, 35},
        PacketCase{"inside_ert", "plume", 12, 1, 0.5f, 2.0f, 1, View::Inside, 30, 27},
        PacketCase{"axis_aligned", "skull", 8, 1, kOpaqueAlpha, 1.0f, 1, View::AxisAligned,
                   33, 31},
        PacketCase{"axis_aligned_dec2", "supernova", 10, 2, 0.4f, 0.5f, 1,
                   View::AxisAligned, 35, 33},
        PacketCase{"dec2_lod2", "supernova", 8, 2, kOpaqueAlpha, 1.0f, 2, View::Orbit, 38,
                   22},
        PacketCase{"dec4_three_texel_bricks", "skull", 8, 4, kOpaqueAlpha, 1.0f, 1,
                   View::Orbit, 45, 30},
        PacketCase{"dec4_two_texel_bricks", "supernova", 4, 4, 0.1f, 2.0f, 1, View::Inside, 26,
                   19},
        PacketCase{"dec32", "supernova", 16, 32, kOpaqueAlpha, 1.0f, 1, View::Orbit, 39, 33}),
    [](const testing::TestParamInfo<PacketCase>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace vrmr::volren
