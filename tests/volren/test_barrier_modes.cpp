// Barrier-mode tests: mr::BarrierMode::PerReducer (dataflow readiness,
// sort->reduce chaining) against Global (the paper's frame-wide
// barriers). The modes must agree on every pixel and every dataflow
// counter; PerReducer may only move the schedule — and must never make
// the first tile LATER.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/frame_plan.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

struct Scene {
  std::string dataset;
  Int3 dims;
  int gpus = 0;
  int target_bricks = 0;  // 0 = bricks == GPUs
  mr::PartitionStrategy partition = mr::PartitionStrategy::Striped;
};

std::vector<Scene> seed_scenes() {
  return {
      {"skull", {24, 24, 24}, 4, 0, mr::PartitionStrategy::Striped},
      {"supernova", {32, 32, 32}, 8, 16, mr::PartitionStrategy::Striped},
      {"skull", {16, 16, 16}, 2, 4, mr::PartitionStrategy::PixelRoundRobin},
      {"supernova", {24, 24, 24}, 4, 8, mr::PartitionStrategy::Tiled},
  };
}

RenderOptions options_for(const Scene& scene) {
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.partition = scene.partition;
  if (scene.target_bricks > 0) options.target_bricks = scene.target_bricks;
  return options;
}

struct ModeRun {
  RenderResult result;
  std::vector<double> tile_finish_s;   // per reducer, absolute
  std::vector<double> ready_s;         // per reducer, absolute
  std::vector<int> ready_order;        // reducer indices, firing order
  std::vector<double> sort_issue_s;    // per reducer, absolute
  std::vector<double> sort_done_s;     // per reducer, absolute
  std::vector<double> reduce_begin_s;  // per reducer, from the trace
  double first_tile_s = 0.0;
};

ModeRun run_scene(const Scene& scene, mr::BarrierMode mode) {
  const Volume volume = datasets::by_name(scene.dataset, scene.dims);
  sim::Engine engine;
  cluster::Cluster cluster(engine,
                           cluster::ClusterConfig::with_total_gpus(scene.gpus));
  RenderOptions options = options_for(scene);
  options.barrier_mode = mode;
  obs::TraceRecorder recorder;
  options.trace.recorder = &recorder;
  const BrickLayout layout = choose_layout(volume, options, scene.gpus);
  auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);

  ModeRun run;
  frame->plan().on_reducer_ready(
      [&](int r) { run.ready_order.push_back(r); });
  frame->plan().run_to_completion();

  run.first_tile_s = std::numeric_limits<double>::infinity();
  run.reduce_begin_s.assign(static_cast<std::size_t>(frame->num_tiles()), -1.0);
  for (int r = 0; r < frame->num_tiles(); ++r) {
    run.tile_finish_s.push_back(frame->plan().tile_finish_s(r));
    run.ready_s.push_back(frame->plan().reducer_ready_s(r));
    run.sort_issue_s.push_back(frame->plan().sort_issue_s(r));
    run.sort_done_s.push_back(frame->plan().sort_done_s(r));
    run.first_tile_s = std::min(run.first_tile_s, frame->plan().tile_finish_s(r));
  }
  for (const obs::TraceEvent& ev : recorder.events()) {
    if (ev.ph != 'B' || ev.name != "reduce") continue;
    const int r = ev.tid - options.trace.reducer_tid_base;
    run.reduce_begin_s.at(static_cast<std::size_t>(r)) = ev.ts_s;
  }
  run.result = frame->finish();
  return run;
}

void expect_totals_equal(const mr::JobStats& a, const mr::JobStats& b,
                         const std::string& label) {
  EXPECT_EQ(a.fragments, b.fragments) << label;
  EXPECT_EQ(a.placeholders, b.placeholders) << label;
  EXPECT_EQ(a.total_samples, b.total_samples) << label;
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d) << label;
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h) << label;
  EXPECT_EQ(a.bytes_net, b.bytes_net) << label;
  EXPECT_EQ(a.bytes_net_inter, b.bytes_net_inter) << label;
  EXPECT_EQ(a.net_messages, b.net_messages) << label;
  EXPECT_EQ(a.num_chunks, b.num_chunks) << label;
  // Busy-time integrals are analytic sums over the same operations;
  // the schedules accumulate them in different orders, so equality
  // holds to fp-summation-order precision, not to the bit.
  const auto near = [&](double x, double y) {
    EXPECT_NEAR(x, y, 1e-12 * std::max(1.0, std::max(x, y))) << label;
  };
  near(a.gpu_busy_s, b.gpu_busy_s);
  near(a.cpu_busy_s, b.cpu_busy_s);
  near(a.pcie_busy_s, b.pcie_busy_s);
  near(a.nic_busy_s, b.nic_busy_s);
  ASSERT_EQ(a.per_reducer.size(), b.per_reducer.size()) << label;
  for (std::size_t r = 0; r < a.per_reducer.size(); ++r) {
    EXPECT_EQ(a.per_reducer[r].pairs_in, b.per_reducer[r].pairs_in) << label;
    EXPECT_EQ(a.per_reducer[r].groups, b.per_reducer[r].groups) << label;
    EXPECT_EQ(a.per_reducer[r].sorted_on_gpu, b.per_reducer[r].sorted_on_gpu)
        << label;
  }
}

TEST(BarrierModes, PixelsAndStatsTotalsIdenticalOnEverySeedScene) {
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " " + std::to_string(scene.dims.x) +
                              "^3 g=" + std::to_string(scene.gpus);
    const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
    const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);
    const ImageDiff diff = compare_images(global.result.image, chained.result.image);
    EXPECT_EQ(diff.max_abs, 0.0) << label;
    expect_totals_equal(global.result.stats, chained.result.stats, label);
  }
}

TEST(BarrierModes, PerReducerFirstTileNeverLaterThanGlobal) {
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " " + std::to_string(scene.dims.x) +
                              "^3 g=" + std::to_string(scene.gpus);
    const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
    const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);
    EXPECT_LE(chained.first_tile_s, global.first_tile_s) << label;
    // And no mode finishes a frame before it streams its last tile:
    // the last tile IS the frame finish (fresh engine, so absolute
    // tile times equal plan-relative runtime).
    EXPECT_DOUBLE_EQ(*std::max_element(chained.tile_finish_s.begin(),
                                       chained.tile_finish_s.end()),
                     chained.result.stats.runtime_s)
        << label;
  }
}

TEST(BarrierModes, ReadinessFiresOncePerReducerInInboxCompletionOrder) {
  // Striped partitioning skews reducer loads, so inboxes complete at
  // genuinely different times; readiness must fire exactly once per
  // reducer, at nondecreasing engine times, in that completion order.
  const Scene scene{"supernova", {32, 32, 32}, 8, 16,
                    mr::PartitionStrategy::Striped};
  const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);

  ASSERT_EQ(chained.ready_order.size(), chained.ready_s.size());
  std::vector<int> seen(chained.ready_s.size(), 0);
  double last_ready = -1.0;
  for (const int r : chained.ready_order) {
    seen[static_cast<std::size_t>(r)] += 1;
    EXPECT_GE(chained.ready_s[static_cast<std::size_t>(r)], last_ready)
        << "reducer " << r << " became ready out of order";
    last_ready = chained.ready_s[static_cast<std::size_t>(r)];
  }
  for (std::size_t r = 0; r < seen.size(); ++r) {
    EXPECT_EQ(seen[r], 1) << "reducer " << r;
    // A reducer's sort cannot have started before its inbox completed:
    // its tile strictly follows its readiness.
    EXPECT_GE(chained.tile_finish_s[r], chained.ready_s[r]);
    // Sort and reduce quanta issue themselves: the sort at the reducer's
    // own readiness, the reduce at its own sort's completion — never at
    // the other reducers' barriers.
    EXPECT_EQ(chained.sort_issue_s[r], chained.ready_s[r]) << "reducer " << r;
    EXPECT_EQ(chained.reduce_begin_s[r], chained.sort_done_s[r]) << "reducer " << r;
  }
  // Per-reducer chaining is visible: some tile is composited before
  // the last sort completes.
  EXPECT_LT(chained.first_tile_s,
            *std::max_element(chained.sort_done_s.begin(), chained.sort_done_s.end()));
  // The self-issued chains produce the reference pixels.
  {
    const Volume volume = datasets::by_name(scene.dataset, scene.dims);
    sim::Engine engine;
    cluster::Cluster cluster(engine,
                             cluster::ClusterConfig::with_total_gpus(scene.gpus));
    RenderOptions reference = options_for(scene);
    reference.barrier_mode = mr::BarrierMode::Global;
    const RenderResult expected = render_mapreduce(cluster, volume, reference);
    EXPECT_EQ(compare_images(chained.result.image, expected.image).max_abs, 0.0);
  }
  // The dissolved barrier is visible: at least one reducer became
  // ready strictly before the last one (under Global they all fire at
  // the single routing-barrier event).
  const double first_ready =
      *std::min_element(chained.ready_s.begin(), chained.ready_s.end());
  const double last_ready_s =
      *std::max_element(chained.ready_s.begin(), chained.ready_s.end());
  EXPECT_LT(first_ready, last_ready_s);

  // Global mode: every reducer becomes ready at the same event.
  const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
  ASSERT_EQ(global.ready_order.size(), global.ready_s.size());
  for (std::size_t r = 1; r < global.ready_s.size(); ++r) {
    EXPECT_EQ(global.ready_s[r], global.ready_s[0]);
  }
  // And the per-reducer schedule's earliest readiness strictly beats
  // the global barrier on this skewed scene.
  EXPECT_LT(first_ready, global.ready_s[0]);
}

TEST(BarrierModes, ZeroFragmentFrameCascadesSafelyInBothModes) {
  // A camera that misses the volume makes every mapper emit only
  // placeholders: every reducer's inbox is empty, so the moment
  // routing resolves the whole sort+reduce chain of every reducer
  // cascades synchronously. Stage attribution must survive that
  // cascade (t_routed/t_sorted stamped before it runs), and the frame
  // must finish cleanly with background-only pixels.
  const Volume volume = datasets::skull({16, 16, 16});
  for (const mr::BarrierMode mode :
       {mr::BarrierMode::Global, mr::BarrierMode::PerReducer}) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    RenderOptions options;
    options.image_width = 32;
    options.image_height = 32;
    options.partition = mr::PartitionStrategy::Striped;
    options.barrier_mode = mode;
    options.distance = 60.0f;    // volume subtends well under one pixel
    options.elevation = 1.2f;    // and is pushed off-axis
    const BrickLayout layout = choose_layout(volume, options, 4);
    auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
    const mr::JobStats stats = frame->plan().run_to_completion();
    ASSERT_TRUE(frame->plan().finished()) << to_string(mode);
    ASSERT_EQ(stats.fragments, 0u) << "scene not degenerate; retune camera";
    EXPECT_GT(stats.placeholders, 0u);
    // Phase stamps ordered and attribution non-negative even though
    // the sort/reduce phases were synchronous cascades.
    EXPECT_GT(stats.t_routed, 0.0) << to_string(mode);
    EXPECT_GE(stats.t_sorted, stats.t_routed) << to_string(mode);
    EXPECT_GE(stats.runtime_s, stats.t_sorted) << to_string(mode);
    EXPECT_GE(stats.stage.sort_s, 0.0) << to_string(mode);
    EXPECT_GE(stats.stage.reduce_s, 0.0) << to_string(mode);
    EXPECT_GE(stats.stage.partition_io_s, 0.0) << to_string(mode);
    const RenderResult result = frame->finish();
    EXPECT_EQ(result.stats.fragments, 0u);
  }
}

}  // namespace
}  // namespace vrmr::volren
