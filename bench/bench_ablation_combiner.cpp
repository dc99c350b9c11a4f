// Ablation for §3.1's omission: "we specifically omitted partial
// reduce/combine because it didn't increase performance for our volume
// renderer". Two workloads make the decision quantitative:
//
//   1. the volume renderer itself — with bricks ≈ GPUs, one mapper
//      emits ~one fragment per pixel, so there is nothing to combine
//      and the extra grouping pass only costs CPU time (the paper's
//      conclusion);
//   2. a histogram reduction — thousands of pairs per key per mapper —
//      where the same combiner hook shrinks traffic by orders of
//      magnitude (why general MapReduce libraries keep the stage).

#include "common.hpp"

#include <map>

#include "mr/combiner.hpp"
#include "mr/frame_plan.hpp"
#include "util/rng.hpp"
#include "volren/fragment.hpp"

namespace {

using namespace vrmr;

/// Depth-sorts and pre-composites a mapper's fragments for one pixel
/// into a single fragment. Only applied when one mapper's fragments
/// are depth-contiguous per pixel — guaranteed here by measuring, not
/// assuming: the bench reports key-collision rates.
class FragmentCombiner final : public mr::Combiner {
 public:
  void combine(std::uint32_t key, const std::byte* values, std::size_t count,
               mr::KvBuffer& out) override {
    if (count == 1) {
      out.append(key, values);
      return;
    }
    std::vector<volren::RayFragment> frags(count);
    std::memcpy(frags.data(), values, count * sizeof(volren::RayFragment));
    std::sort(frags.begin(), frags.end());
    Rgba accum = Rgba::transparent();
    for (const auto& f : frags) accum = composite_over(accum, f.color());
    volren::RayFragment merged = frags.front();
    merged.set_color(accum);
    out.append_typed(key, merged);
  }
};

}  // namespace

int main() {
  using namespace vrmr;
  using namespace vrmr::bench;

  print_header("bench_ablation_combiner", "§3.1 (omitted combiner) ablation");

  // --- workload 1: the volume renderer -----------------------------------
  {
    Table table({"combiner", "gpus", "total_s", "pairs in", "pairs out",
                 "collision rate"});
    for (const int gpus : {4, 8}) {
      for (const bool enabled : {false, true}) {
        const volren::Volume volume = volren::datasets::skull({256, 256, 256});
        sim::Engine engine;
        cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
        volren::RenderOptions options;
        options.image_width = image_size();
        options.image_height = image_size();
        options.transfer = volren::TransferFunction::bone();
        options.distance = 1.2f;

        // Drive the pipeline manually so the combiner hook is reachable.
        const volren::FrameSetup frame = volren::make_frame(volume, options);
        mr::JobConfig config;
        config.value_size = sizeof(volren::RayFragment);
        config.domain.num_keys =
            static_cast<std::uint32_t>(options.image_width) * options.image_height;
        config.domain.image_width = static_cast<std::uint32_t>(options.image_width);
        mr::FramePlan plan(cluster, config);
        plan.set_mapper_factory([&](int, gpusim::Device&) {
          return std::make_unique<volren::RayCastMapper>(volume, frame);
        });
        std::vector<std::vector<volren::FinishedPixel>> pieces(
            static_cast<size_t>(gpus));
        plan.set_reducer_factory([&](int r) {
          return std::make_unique<volren::CompositeReducer>(
              options.cast.ert_threshold, options.background,
              &pieces[static_cast<size_t>(r)]);
        });
        if (enabled) {
          plan.set_combiner_factory(
              [](int) { return std::make_unique<FragmentCombiner>(); });
        }
        // Visibility-ordered slab assignment keeps one mapper's
        // fragments depth-contiguous per pixel (combining stays exact).
        const Int3 brick_dims = volren::BrickLayout::choose_brick_dims(
            volume.dims(), gpus);
        const volren::BrickLayout layout(volume.dims(), volume.world_extent(),
                                         brick_dims, 1);
        for (const volren::BrickInfo& info : layout.bricks()) {
          plan.add_chunk(std::make_unique<volren::BrickChunk>(volume, info));
        }
        const mr::JobStats stats = plan.run_to_completion();
        const double collision =
            stats.combine_input_pairs > 0
                ? static_cast<double>(stats.combine_input_pairs) /
                      std::max<std::uint64_t>(1, stats.combine_output_pairs)
                : static_cast<double>(stats.fragments) / std::max<std::uint64_t>(
                      1, stats.fragments);
        table.add_row({enabled ? "on" : "off", std::to_string(gpus),
                       Table::num(stats.runtime_s, 4),
                       std::to_string(enabled ? stats.combine_input_pairs
                                              : stats.fragments),
                       std::to_string(enabled ? stats.combine_output_pairs
                                              : stats.fragments),
                       Table::num(collision, 2) + "x"});
      }
    }
    std::cout << "volume rendering, 256^3 (bricks ≈ GPUs):\n" << table.to_string()
              << "expected: ~1x collisions — combining cannot shrink fragment\n"
                 "traffic, it only adds a grouping pass. The paper's omission.\n\n";
  }

  // --- workload 2: histogram reduction ------------------------------------
  {
    // Reuse the mr-level sum machinery from the histogram example shape.
    class HistChunk final : public mr::Chunk {
     public:
      explicit HistChunk(std::uint32_t n) : n_(n) {}
      std::uint64_t device_bytes() const override { return n_ * 4; }
      std::uint32_t n() const { return n_; }

     private:
      std::uint32_t n_;
    };
    class HistMapper final : public mr::Mapper {
     public:
      mr::MapOutcome map(gpusim::Device&, const mr::Chunk& chunk,
                         mr::KvBuffer& out) override {
        const auto& h = dynamic_cast<const HistChunk&>(chunk);
        Pcg32 rng(h.n());
        for (std::uint32_t i = 0; i < h.n(); ++i) {
          const std::uint64_t one = 1;
          out.append_typed(rng.next_below(256), one);
        }
        return {h.n(), out.size()};
      }
    };
    class SumCombiner final : public mr::Combiner {
     public:
      void combine(std::uint32_t key, const std::byte* values, std::size_t count,
                   mr::KvBuffer& out) override {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < count; ++i) {
          std::uint64_t v;
          std::memcpy(&v, values + i * 8, 8);
          total += v;
        }
        out.append_typed(key, total);
      }
    };
    class NullReducer final : public mr::Reducer {
     public:
      void reduce(std::uint32_t, const std::byte*, std::size_t) override {}
    };

    Table table({"combiner", "total_s", "net bytes", "pairs shipped"});
    for (const bool enabled : {false, true}) {
      sim::Engine engine;
      cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(8));
      mr::JobConfig config;
      config.value_size = 8;
      config.domain.num_keys = 256;
      mr::FramePlan plan(cluster, config);
      plan.set_mapper_factory(
          [](int, gpusim::Device&) { return std::make_unique<HistMapper>(); });
      plan.set_reducer_factory([](int) { return std::make_unique<NullReducer>(); });
      if (enabled) {
        plan.set_combiner_factory([](int) { return std::make_unique<SumCombiner>(); });
      }
      for (int c = 0; c < 32; ++c)
        plan.add_chunk(std::make_unique<HistChunk>(200000));
      const mr::JobStats stats = plan.run_to_completion();
      table.add_row({enabled ? "on" : "off", Table::num(stats.runtime_s, 4),
                     format_bytes(stats.bytes_net),
                     std::to_string(enabled ? stats.combine_output_pairs
                                            : stats.fragments)});
    }
    std::cout << "histogram reduction, 6.4M pairs over 256 keys:\n" << table.to_string()
              << "expected: the same hook collapses traffic by ~1000x here — the\n"
                 "combiner is valuable in general, just not for this renderer.\n";
  }
  return 0;
}
