// Host payload lifetime: the render service materializes a brick's
// voxels only when the modeled GPU (re)stages the brick. A BrickCache
// entry keeps the payload from its first cast until it is evicted or
// withdrawn, so warm frames read no voxels, while eviction,
// invalidate_volume, a decimation change and coarse LOD levels all
// still render exactly what a cache-less service renders.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "cluster/cluster.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"

namespace vrmr::service {
namespace {

/// Skull voxels times a settable scale, counting every read.
class CountingSource final : public volren::VolumeSource {
 public:
  explicit CountingSource(Int3 dims) : base_(volren::datasets::skull(dims)) {}

  float voxel(Int3 p) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return base_.voxel_clamped(p) * scale_;
  }
  std::uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  void set_scale(float scale) { scale_ = scale; }

 private:
  volren::Volume base_;
  float scale_ = 1.0f;
  mutable std::atomic<std::uint64_t> reads_{0};
};

constexpr Int3 kDims{48, 48, 48};

volren::RenderOptions options_at(float azimuth) {
  volren::RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.brick_size = 24;
  options.azimuth = azimuth;
  return options;
}

ServiceConfig keeping_images(ServiceConfig config) {
  config.keep_images = true;
  return config;
}

/// One service over its own counted volume; frames are served one at a
/// time so voxel reads can be attributed per frame.
struct Served {
  sim::Engine engine;
  cluster::Cluster cluster{engine, cluster::ClusterConfig::with_total_gpus(2)};
  std::shared_ptr<CountingSource> source = std::make_shared<CountingSource>(kDims);
  volren::Volume volume{"counted-skull", kDims, source};
  RenderService service;
  Session session;

  explicit Served(ServiceConfig config)
      : service(cluster, keeping_images(config)),
        session(service.open_session("viewer")) {}

  /// Serve one frame; returns its record.
  FrameRecord render(const volren::RenderOptions& options) {
    RenderRequest request;
    request.volume = &volume;
    request.options = options;
    request.arrival_s = engine.now();
    session.submit(request);
    service.drain();
    return service.frames().back();
  }
};

ServiceConfig cached() { return ServiceConfig{}; }

ServiceConfig cacheless() {
  ServiceConfig config;
  config.enable_brick_cache = false;
  return config;
}

/// What a fresh, cache-less service renders for one frame.
volren::Image fresh_render(const volren::RenderOptions& options, float scale = 1.0f) {
  Served fresh(cacheless());
  fresh.source->set_scale(scale);
  return fresh.render(options).image;
}

void expect_same_pixels(const volren::Image& a, const volren::Image& b) {
  EXPECT_EQ(volren::compare_images(a, b).max_abs, 0.0);
}

TEST(HostPayloads, WarmOrbitFramesReadNoVoxels) {
  Served cold(cacheless());
  (void)cold.render(options_at(0.0f));
  const std::uint64_t one_frame = cold.source->reads();
  ASSERT_GT(one_frame, 0u);

  Served s(cached());
  const FrameRecord first = s.render(options_at(0.0f));
  // The first frame materializes every brick exactly once, like a
  // cache-less frame.
  EXPECT_EQ(s.source->reads(), one_frame);
  for (int f = 1; f < 4; ++f) {
    const FrameRecord warm = s.render(options_at(0.3f * static_cast<float>(f)));
    EXPECT_EQ(warm.cache_misses, 0u) << "frame " << f;
    EXPECT_EQ(warm.cache_hits, first.cache_misses) << "frame " << f;
    EXPECT_EQ(s.source->reads(), one_frame) << "frame " << f << " read voxels";
    expect_same_pixels(warm.image, fresh_render(options_at(0.3f * static_cast<float>(f))));
  }
}

TEST(HostPayloads, EvictedBrickIsRebuiltAndPixelsMatchCachelessRender) {
  // Room for one 26^3-float padded brick per GPU, four bricks per GPU
  // per frame: every frame evicts, and every evicted brick's payload
  // goes with its entry.
  ServiceConfig config;
  config.cache_capacity_override = 26u * 26u * 26u * sizeof(float) + 1024u;
  Served s(config);
  std::uint64_t reads = 0;
  for (int f = 0; f < 3; ++f) {
    const volren::RenderOptions options = options_at(0.4f * static_cast<float>(f));
    const FrameRecord record = s.render(options);
    EXPECT_GT(s.source->reads(), reads) << "frame " << f << " rebuilt nothing";
    reads = s.source->reads();
    expect_same_pixels(record.image, fresh_render(options));
  }
  EXPECT_GT(s.service.stats().cache.evictions, 0u);
}

TEST(HostPayloads, InvalidateVolumeRendersTheNewValues) {
  Served s(cached());
  const volren::RenderOptions options = options_at(0.5f);
  const FrameRecord before = s.render(options);
  expect_same_pixels(before.image, fresh_render(options));

  s.source->set_scale(0.5f);
  s.service.invalidate_volume(&s.volume);
  const std::uint64_t reads = s.source->reads();
  const FrameRecord after = s.render(options);
  EXPECT_GT(s.source->reads(), reads);
  expect_same_pixels(after.image, fresh_render(options, 0.5f));
  EXPECT_GT(volren::compare_images(before.image, after.image).max_abs, 0.0);
}

TEST(HostPayloads, DecimationChangeRebuildsThePayload) {
  // BrickKey does not carry the decimation, so these frames hit the
  // same cache entries; the payloads must still be rebuilt each time.
  Served s(cached());
  std::uint64_t reads = 0;
  for (const int decimation : {1, 2, 1}) {
    volren::RenderOptions options = options_at(0.7f);
    options.cast.decimation = decimation;
    const FrameRecord record = s.render(options);
    EXPECT_GT(s.source->reads(), reads) << "decimation " << decimation;
    reads = s.source->reads();
    expect_same_pixels(record.image, fresh_render(options));
  }
  EXPECT_EQ(s.service.frames()[1].cache_misses, 0u);
  EXPECT_EQ(s.service.frames()[2].cache_misses, 0u);
}

TEST(HostPayloads, DegradedFramesReuseCoarsePayloads) {
  volren::RenderOptions coarse = options_at(0.9f);
  coarse.max_lod = 1;

  Served s(cached());
  const FrameRecord first = s.render(coarse);
  ASSERT_EQ(first.lod, 1);
  expect_same_pixels(first.image, fresh_render(coarse));
  const std::uint64_t reads = s.source->reads();
  EXPECT_GT(reads, 0u);

  coarse.azimuth = 1.2f;
  const FrameRecord second = s.render(coarse);
  ASSERT_EQ(second.lod, 1);
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(s.source->reads(), reads);
  expect_same_pixels(second.image, fresh_render(coarse));

  // The full-resolution frame is a different set of entries: it reads.
  const FrameRecord full = s.render(options_at(1.2f));
  EXPECT_EQ(full.lod, 0);
  EXPECT_GT(s.source->reads(), reads);
  expect_same_pixels(full.image, fresh_render(options_at(1.2f)));
}

}  // namespace
}  // namespace vrmr::service
