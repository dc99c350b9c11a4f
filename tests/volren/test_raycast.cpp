// Unit tests of the ray-cast map kernel (cast_brick / RayCastMapper):
// thread accounting, placeholder emission, screen-footprint gridding,
// sample charging, and the §3.1.1 every-thread-emits contract.

#include <gtest/gtest.h>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "volren/datasets.hpp"
#include "volren/raycast.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

gpusim::Device& test_device() {
  static gpusim::DeviceProps props = [] {
    gpusim::DeviceProps p;
    p.vram_bytes = 2ULL << 30;
    return p;
  }();
  static gpusim::Device dev(7, props);
  return dev;
}

struct KernelFixture {
  Volume volume = datasets::skull({48, 48, 48});
  RenderOptions options;
  FrameSetup frame;
  BrickLayout layout;
  gpusim::Texture1D transfer_tex;

  KernelFixture()
      : options([] {
          RenderOptions o;
          o.image_width = 96;
          o.image_height = 96;
          return o;
        }()),
        frame(make_frame(volume, options)),
        layout(volume.dims(), volume.world_extent(), 24, 1),
        transfer_tex(test_device(), 256) {
    transfer_tex.upload(frame.transfer.bake(256));
  }
};

TEST(CastBrick, ThreadCountMatchesPaddedGrid) {
  KernelFixture fx;
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  ASSERT_GT(out.threads, 0u);
  // Block-padded grid: threads are a multiple of 16x16 and cover the
  // projected rect.
  EXPECT_EQ(out.threads % 256, 0u);
  EXPECT_EQ(out.keys.size(), out.threads);
  EXPECT_EQ(out.fragments.size(), out.threads);
  const PixelRect rect = fx.frame.camera.project_box(fx.layout.brick(0).world_box);
  EXPECT_GE(static_cast<std::int64_t>(out.threads), rect.pixels());
}

TEST(CastBrick, EveryThreadHasAnEntry) {
  // §3.1.1: every thread emits a pair — fragment or placeholder. The
  // slot arrays are exactly thread-sized and every non-placeholder key
  // is a valid pixel inside the brick's rect.
  KernelFixture fx;
  const BrickInfo& brick = fx.layout.brick(fx.layout.num_bricks() / 2);
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, brick, fx.frame, fx.transfer_tex);
  const PixelRect rect = fx.frame.camera.project_box(brick.world_box);
  std::size_t fragments = 0;
  for (std::size_t i = 0; i < out.keys.size(); ++i) {
    if (out.keys[i] == mr::kPlaceholderKey) continue;
    ++fragments;
    const int px = static_cast<int>(out.keys[i] % 96);
    const int py = static_cast<int>(out.keys[i] / 96);
    EXPECT_GE(px, rect.x0);
    EXPECT_LT(px, rect.x1);
    EXPECT_GE(py, rect.y0);
    EXPECT_LT(py, rect.y1);
    // Fragment carries this brick's id and positive depth/alpha.
    EXPECT_EQ(out.fragments[i].brick, static_cast<std::uint32_t>(brick.id));
    EXPECT_GT(out.fragments[i].a, 0.0f);
    EXPECT_GT(out.fragments[i].depth, 0.0f);
  }
  EXPECT_GT(fragments, 0u);
  EXPECT_LT(fragments, out.threads);  // padding threads stay placeholders
}

TEST(CastBrick, BrickBehindCameraProducesOnlyPlaceholders) {
  KernelFixture fx;
  // Camera looking away from the volume: the projection falls back to
  // the conservative full-image rect (a box straddling/behind the near
  // plane has an unbounded projection), but every ray misses, so the
  // kernel emits placeholders only and charges zero samples.
  fx.frame.camera = Camera(Vec3{5, 5, 5}, Vec3{10, 10, 10}, Vec3{0, 1, 0}, 0.5f, 96, 96);
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  EXPECT_EQ(out.samples, 0u);
  for (std::size_t i = 0; i < out.keys.size(); ++i) {
    ASSERT_EQ(out.keys[i], mr::kPlaceholderKey) << "slot " << i;
  }
}

TEST(CastBrick, FullyOffscreenBrickLaunchesNothing) {
  KernelFixture fx;
  // Camera with the volume in front of the near plane but panned far
  // off to the side: the brick projects outside the image entirely =>
  // empty rect, zero threads.
  fx.frame.camera =
      Camera(Vec3{0.5f, 0.5f, 3.0f}, Vec3{5.0f, 0.5f, 2.0f}, Vec3{0, 1, 0}, 0.4f, 96, 96);
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  EXPECT_EQ(out.threads, 0u);
  EXPECT_EQ(out.samples, 0u);
  EXPECT_TRUE(out.keys.empty());
}

TEST(CastBrick, SamplesScaleWithSamplingRate) {
  KernelFixture fx;
  const BrickCastOutput base =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  fx.frame.cast.sampling_rate = 2.0f;  // half the step size => ~2x samples
  const BrickCastOutput dense =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  EXPECT_GT(dense.samples, base.samples * 3 / 2);
  EXPECT_LT(dense.samples, base.samples * 5 / 2);
}

TEST(CastBrick, VramIsReleasedAfterReturn) {
  KernelFixture fx;
  const std::uint64_t before = test_device().vram_used();
  (void)cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame,
                   fx.transfer_tex);
  EXPECT_EQ(test_device().vram_used(), before);
}

TEST(CastBrick, AccountsLogicalBytesUnderDecimation) {
  // Decimation stores a smaller proxy grid but must still charge the
  // brick's logical VRAM footprint while staged.
  const Volume big = datasets::skull({96, 96, 96});
  RenderOptions options;
  options.image_width = 64;
  options.image_height = 64;
  options.cast.decimation = 4;
  const FrameSetup frame = make_frame(big, options);
  const BrickLayout layout(big.dims(), big.world_extent(), 96, 1);
  gpusim::DeviceProps tight;
  // Logical brick = 96^3 * 4 B ≈ 3.4 MiB; proxy = 24^3 * 4 B ≈ 55 KiB.
  tight.vram_bytes = 2 << 20;  // too small for logical, plenty for proxy
  gpusim::Device small_dev(1, tight);
  gpusim::Texture1D tf(small_dev, 256);
  tf.upload(frame.transfer.bake(256));
  EXPECT_THROW((void)cast_brick(small_dev, big, layout.brick(0), frame, tf),
               gpusim::DeviceOutOfMemory);
}

TEST(RayCastMapper, RequiresBrickChunkAndInit) {
  const Volume volume = datasets::skull({16, 16, 16});
  RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  RayCastMapper mapper(volume, make_frame(volume, options));
  const BrickLayout layout(volume.dims(), volume.world_extent(), 16, 1);
  BrickChunk chunk(volume, layout.brick(0));
  mr::KvBuffer out(sizeof(RayFragment));
  // init() not called yet.
  EXPECT_THROW((void)mapper.map(test_device(), chunk, out), CheckError);
  mapper.init(test_device());
  // Wrong value size.
  mr::KvBuffer wrong(8);
  EXPECT_THROW((void)mapper.map(test_device(), chunk, wrong), CheckError);
  // Correct use.
  const mr::MapOutcome outcome = mapper.map(test_device(), chunk, out);
  EXPECT_EQ(out.size(), outcome.threads);
}

TEST(RayCastMapper, RejectsForeignVolumeChunk) {
  const Volume a = datasets::skull({16, 16, 16});
  const Volume b = datasets::supernova({16, 16, 16});
  RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  RayCastMapper mapper(a, make_frame(a, options));
  mapper.init(test_device());
  const BrickLayout layout(b.dims(), b.world_extent(), 16, 1);
  BrickChunk chunk(b, layout.brick(0));
  mr::KvBuffer out(sizeof(RayFragment));
  EXPECT_THROW((void)mapper.map(test_device(), chunk, out), CheckError);
}

TEST(RendererProperty, SendBufferSizeNeverChangesPixels) {
  // The buffered-streaming knob is pure scheduling: any buffer size
  // must yield the identical image.
  const Volume volume = datasets::supernova({32, 32, 32});
  RenderOptions opt;
  opt.image_width = 64;
  opt.image_height = 64;
  opt.brick_size = 16;
  auto render_with_buffer = [&](std::uint64_t bytes) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    const FrameSetup frame = make_frame(volume, opt);
    mr::JobConfig config;
    config.value_size = sizeof(RayFragment);
    config.domain.num_keys = 64 * 64;
    config.domain.image_width = 64;
    config.send_buffer_bytes = bytes;
    mr::FramePlan plan(cluster, config);
    plan.set_mapper_factory([&](int, gpusim::Device&) {
      return std::make_unique<RayCastMapper>(volume, frame);
    });
    std::vector<std::vector<FinishedPixel>> pieces(4);
    plan.set_reducer_factory([&](int r) {
      return std::make_unique<CompositeReducer>(opt.cast.ert_threshold, opt.background,
                                                &pieces[static_cast<size_t>(r)]);
    });
    const BrickLayout layout(volume.dims(), volume.world_extent(), 16, 1);
    for (const BrickInfo& info : layout.bricks())
      plan.add_chunk(std::make_unique<BrickChunk>(volume, info));
    (void)plan.run_to_completion();
    return stitch_image(64, 64, opt.background, pieces);
  };
  const Image tiny = render_with_buffer(1);
  const Image huge = render_with_buffer(64 << 20);
  EXPECT_EQ(compare_images(tiny, huge).max_abs, 0.0);
}

}  // namespace
}  // namespace vrmr::volren
