// The MapReduce library as a general substrate (paper §7 hopes the
// library "would allow commodity GPUs to be added cheaply to large
// clusters ... for many tasks"): a scalar-field histogram job that has
// nothing to do with rendering. Bricks map to (bin, count) pairs; the
// reduce phase sums counts per bin.
//
//   $ ./examples/histogram_mr

#include <iostream>
#include <map>

#include "cluster/cluster.hpp"
#include "mr/frame_plan.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "volren/bricking.hpp"
#include "volren/datasets.hpp"
#include "volren/raycast.hpp"

namespace {

using namespace vrmr;

constexpr std::uint32_t kBins = 32;

/// Map: histogram one brick's core voxels locally on the "GPU", then
/// emit one (bin, count) pair per bin — a classic combiner-free
/// MapReduce formulation with a dense key domain, exactly the shape the
/// library's restrictions (§3.1.1) demand.
class HistogramMapper final : public mr::Mapper {
 public:
  explicit HistogramMapper(const volren::Volume& volume) : volume_(&volume) {}

  mr::MapOutcome map(gpusim::Device& device, const mr::Chunk& chunk,
                     mr::KvBuffer& out) override {
    const auto& brick_chunk = dynamic_cast<const volren::BrickChunk&>(chunk);
    const volren::BrickInfo& brick = brick_chunk.info();

    // Stage the brick (counts against VRAM like any other chunk).
    const gpusim::DeviceAllocation staged =
        device.allocate(brick.device_bytes(), "histogram-brick");

    std::vector<std::uint64_t> bins(kBins, 0);
    for (int z = 0; z < brick.core_dims.z; ++z) {
      for (int y = 0; y < brick.core_dims.y; ++y) {
        for (int x = 0; x < brick.core_dims.x; ++x) {
          const float v = volume_->voxel_clamped(brick.core_origin + Int3{x, y, z});
          const auto bin = std::min(kBins - 1, static_cast<std::uint32_t>(v * kBins));
          ++bins[bin];
        }
      }
    }
    for (std::uint32_t b = 0; b < kBins; ++b) {
      const std::uint64_t count = bins[b];
      out.append_typed(b, count);
    }
    mr::MapOutcome outcome;
    outcome.samples = static_cast<std::uint64_t>(brick.core_voxels());
    outcome.threads = kBins;
    return outcome;
  }

 private:
  const volren::Volume* volume_;
};

class BinSumReducer final : public mr::Reducer {
 public:
  explicit BinSumReducer(std::map<std::uint32_t, std::uint64_t>* totals)
      : totals_(totals) {}
  void reduce(std::uint32_t key, const std::byte* values, std::size_t count) override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t v;
      std::memcpy(&v, values + i * sizeof(v), sizeof(v));
      total += v;
    }
    (*totals_)[key] = total;
  }

 private:
  std::map<std::uint32_t, std::uint64_t>* totals_;
};

}  // namespace

int main() {
  const Int3 dims{128, 128, 128};
  const volren::Volume volume = volren::datasets::skull(dims);

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));

  mr::JobConfig config;
  config.value_size = sizeof(std::uint64_t);
  config.domain.num_keys = kBins;

  mr::FramePlan plan(cluster, config);
  plan.set_mapper_factory(
      [&](int, gpusim::Device&) { return std::make_unique<HistogramMapper>(volume); });
  std::map<std::uint32_t, std::uint64_t> totals;
  plan.set_reducer_factory(
      [&](int) { return std::make_unique<BinSumReducer>(&totals); });

  const volren::BrickLayout layout(dims, volume.world_extent(), 64, 0);
  for (const volren::BrickInfo& info : layout.bricks()) {
    plan.add_chunk(std::make_unique<volren::BrickChunk>(volume, info));
  }
  const mr::JobStats stats = plan.run_to_completion();

  std::uint64_t total_voxels = 0;
  for (const auto& [bin, count] : totals) total_voxels += count;

  std::cout << "scalar histogram of " << volume.name() << " " << dims << " via MapReduce ("
            << layout.num_bricks() << " bricks, " << cluster.total_gpus() << " GPUs, "
            << format_seconds(stats.runtime_s) << " simulated)\n\n";
  std::uint64_t peak = 1;
  for (const auto& [bin, count] : totals) peak = std::max(peak, count);
  for (std::uint32_t b = 0; b < kBins; ++b) {
    const std::uint64_t count = totals.count(b) ? totals[b] : 0;
    const int bar = static_cast<int>(60.0 * static_cast<double>(count) /
                                     static_cast<double>(peak));
    std::cout << vrmr::Table::num(static_cast<double>(b) / kBins, 2) << " | "
              << std::string(static_cast<size_t>(bar), '#') << " " << count << "\n";
  }
  std::cout << "\ntotal voxels binned: " << total_voxels << " (expected "
            << dims.volume() << ")\n";
  return total_voxels == static_cast<std::uint64_t>(dims.volume()) ? 0 : 1;
}
