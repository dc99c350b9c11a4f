// Micro-benchmarks (google-benchmark) of the functional kernel pieces:
// trilinear texture sampling, transfer-function lookup, the full
// per-brick cast (host wall time of the functional simulation — NOT
// simulated seconds), and the effect of early ray termination on
// charged sample counts.

#include <benchmark/benchmark.h>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "util/rng.hpp"
#include "volren/datasets.hpp"
#include "volren/raycast.hpp"
#include "volren/renderer.hpp"

namespace {

using namespace vrmr;

gpusim::Device& bench_device() {
  static gpusim::DeviceProps props = [] {
    gpusim::DeviceProps p;
    p.vram_bytes = 2ULL << 30;
    return p;
  }();
  static gpusim::Device dev(0, props);
  return dev;
}

void BM_Texture3DTrilinearSample(benchmark::State& state) {
  const Int3 dims{64, 64, 64};
  gpusim::Texture3D tex(bench_device(), dims);
  std::vector<float> voxels(static_cast<size_t>(dims.volume()));
  Pcg32 rng(3);
  for (auto& v : voxels) v = rng.next_float();
  tex.upload(voxels);
  Pcg32 coords(5);
  float acc = 0.0f;
  for (auto _ : state) {
    const Vec3 p{coords.uniform(0, 64), coords.uniform(0, 64), coords.uniform(0, 64)};
    acc += tex.sample(p);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Texture3DTrilinearSample);

void BM_TransferFunctionLookup(benchmark::State& state) {
  gpusim::Texture1D tex(bench_device(), 256);
  tex.upload(volren::TransferFunction::bone().bake(256));
  Pcg32 rng(9);
  Vec4 acc{};
  for (auto _ : state) {
    acc = acc + tex.sample(rng.next_float());
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransferFunctionLookup);

void BM_CastBrickFunctional(benchmark::State& state) {
  const int image = static_cast<int>(state.range(0));
  const volren::Volume volume = volren::datasets::skull({64, 64, 64});
  volren::RenderOptions options;
  options.image_width = image;
  options.image_height = image;
  const volren::FrameSetup frame = volren::make_frame(volume, options);
  const volren::BrickLayout layout(volume.dims(), volume.world_extent(), 64, 1);
  gpusim::Texture1D tf(bench_device(), 256);
  tf.upload(frame.transfer.bake(256));

  std::uint64_t samples = 0;
  for (auto _ : state) {
    const volren::BrickCastOutput out =
        volren::cast_brick(bench_device(), volume, layout.brick(0), frame, tf);
    samples = out.samples;
    benchmark::DoNotOptimize(out.keys.data());
  }
  state.counters["samples"] = static_cast<double>(samples);
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) * state.iterations());
}
BENCHMARK(BM_CastBrickFunctional)->Arg(128)->Arg(256);

void BM_EarlyRayTerminationSavings(benchmark::State& state) {
  // Dense transfer function: ERT should cut charged samples hard.
  const bool ert_on = state.range(0) != 0;
  const volren::Volume volume = volren::datasets::skull({64, 64, 64});
  volren::RenderOptions options;
  options.image_width = 128;
  options.image_height = 128;
  options.transfer = volren::TransferFunction::grayscale_ramp(0.9f);
  options.cast.ert_threshold = ert_on ? 0.98f : 2.0f;
  const volren::FrameSetup frame = volren::make_frame(volume, options);
  const volren::BrickLayout layout(volume.dims(), volume.world_extent(), 64, 1);
  gpusim::Texture1D tf(bench_device(), 256);
  tf.upload(frame.transfer.bake(256));

  std::uint64_t samples = 0;
  for (auto _ : state) {
    const volren::BrickCastOutput out =
        volren::cast_brick(bench_device(), volume, layout.brick(0), frame, tf);
    samples = out.samples;
  }
  state.counters["charged_samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_EarlyRayTerminationSavings)->Arg(0)->Arg(1);

void BM_GridLaunchOverhead(benchmark::State& state) {
  // Empty kernel over a 512²-pixel grid of 16x16 blocks: the functional
  // dispatch cost of the CUDA-style launch machinery.
  auto& dev = bench_device();
  for (auto _ : state) {
    dev.launch_2d(Int3{32, 32, 1}, Int3{16, 16, 1}, [](const gpusim::BlockCtx& block) {
      block.for_each_thread([](const gpusim::ThreadCtx& ctx) { benchmark::DoNotOptimize(ctx); });
    });
  }
  state.SetItemsProcessed(32 * 32 * 256 * state.iterations());
}
BENCHMARK(BM_GridLaunchOverhead);

}  // namespace

BENCHMARK_MAIN();
