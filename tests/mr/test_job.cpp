// Generic (non-rendering) MapReduce jobs: prove the runtime is a real
// MapReduce substrate, not a renderer with extra steps — and pin the
// pipeline behaviours the paper specifies (streaming overlap, placeholder
// discard, restriction enforcement, stage accounting).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>

#include "cluster/cluster.hpp"
#include "mr/analysis.hpp"
#include "mr/frame_plan.hpp"
#include "sim/engine.hpp"

namespace vrmr::mr {
namespace {

/// A chunk holding a range of integers [lo, hi).
class RangeChunk final : public Chunk {
 public:
  RangeChunk(std::uint32_t lo, std::uint32_t hi, std::uint64_t bytes = 1024)
      : lo_(lo), hi_(hi), bytes_(bytes) {}
  std::uint64_t device_bytes() const override { return bytes_; }
  std::string label() const override {
    return "range[" + std::to_string(lo_) + "," + std::to_string(hi_) + ")";
  }
  std::uint32_t lo() const { return lo_; }
  std::uint32_t hi() const { return hi_; }

 private:
  std::uint32_t lo_, hi_;
  std::uint64_t bytes_;
};

/// Emits (i % num_keys, i) for every i in the chunk's range, plus one
/// placeholder per `placeholders_per_chunk` to exercise the discard
/// path. Reports threads = pairs so the every-thread-emits check holds.
class ModuloMapper final : public Mapper {
 public:
  ModuloMapper(std::uint32_t num_keys, int placeholders_per_chunk)
      : num_keys_(num_keys), placeholders_(placeholders_per_chunk) {}

  MapOutcome map(gpusim::Device&, const Chunk& chunk, KvBuffer& out) override {
    const auto& range = dynamic_cast<const RangeChunk&>(chunk);
    for (std::uint32_t i = range.lo(); i < range.hi(); ++i) {
      out.append_typed(i % num_keys_, i);
    }
    for (int p = 0; p < placeholders_; ++p) out.append_placeholder();
    MapOutcome outcome;
    outcome.samples = (range.hi() - range.lo()) * 10;  // arbitrary model work
    outcome.threads = out.size();
    return outcome;
  }

 private:
  std::uint32_t num_keys_;
  int placeholders_;
};

/// Sums values per key into a shared map (reducers own disjoint keys).
class SumReducer final : public Reducer {
 public:
  explicit SumReducer(std::map<std::uint32_t, std::uint64_t>* sums) : sums_(sums) {}
  void reduce(std::uint32_t key, const std::byte* values, std::size_t count) override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t v;
      std::memcpy(&v, values + i * sizeof(std::uint32_t), sizeof(v));
      total += v;
    }
    (*sums_)[key] += total;
  }

 private:
  std::map<std::uint32_t, std::uint64_t>* sums_;
};

struct Harness {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::map<std::uint32_t, std::uint64_t> sums;

  explicit Harness(int gpus) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterConfig::with_total_gpus(gpus));
  }

  JobConfig config(std::uint32_t num_keys) {
    JobConfig cfg;
    cfg.value_size = sizeof(std::uint32_t);
    cfg.domain.num_keys = num_keys;
    return cfg;
  }

  std::unique_ptr<FramePlan> make_job(const JobConfig& cfg, std::uint32_t num_keys,
                                      int placeholders = 0) {
    auto job = std::make_unique<FramePlan>(*cluster, cfg);
    job->set_mapper_factory([num_keys, placeholders](int, gpusim::Device&) {
      return std::make_unique<ModuloMapper>(num_keys, placeholders);
    });
    job->set_reducer_factory(
        [this](int) { return std::make_unique<SumReducer>(&sums); });
    return job;
  }
};

TEST(Job, ComputesCorrectSumsAcrossGpus) {
  constexpr std::uint32_t kKeys = 13;
  constexpr std::uint32_t kN = 10000;
  Harness h(4);
  auto job = h.make_job(h.config(kKeys), kKeys);
  for (std::uint32_t lo = 0; lo < kN; lo += 1000) {
    job->add_chunk(std::make_unique<RangeChunk>(lo, std::min(lo + 1000, kN)));
  }
  const JobStats stats = job->run_to_completion();

  // Every key's expected sum: sum of all i in [0, kN) with i % kKeys == key.
  std::map<std::uint32_t, std::uint64_t> expected;
  for (std::uint32_t i = 0; i < kN; ++i) expected[i % kKeys] += i;
  EXPECT_EQ(h.sums, expected);
  EXPECT_EQ(stats.fragments, kN);
  EXPECT_EQ(stats.placeholders, 0u);
  EXPECT_EQ(stats.num_chunks, 10);
}

TEST(Job, PlaceholdersAreChargedThenDropped) {
  constexpr std::uint32_t kKeys = 5;
  Harness h(2);
  auto job = h.make_job(h.config(kKeys), kKeys, /*placeholders=*/50);
  job->add_chunk(std::make_unique<RangeChunk>(0, 100));
  const JobStats stats = job->run_to_completion();
  EXPECT_EQ(stats.fragments, 100u);
  EXPECT_EQ(stats.placeholders, 50u);
  // Placeholders crossed the PCIe bus: D2H bytes cover all 150 pairs.
  EXPECT_EQ(stats.bytes_d2h, 150u * (4 + 4));
  // But never the network.
  EXPECT_EQ(stats.bytes_net, 100u * (4 + 4));
}

TEST(Job, StageBreakdownSumsToRuntime) {
  Harness h(4);
  constexpr std::uint32_t kKeys = 64;
  auto job = h.make_job(h.config(kKeys), kKeys);
  for (int c = 0; c < 8; ++c)
    job->add_chunk(std::make_unique<RangeChunk>(c * 500, (c + 1) * 500));
  const JobStats stats = job->run_to_completion();
  EXPECT_GT(stats.runtime_s, 0.0);
  EXPECT_NEAR(stats.stage.map_s + stats.stage.partition_io_s + stats.stage.sort_s +
                  stats.stage.reduce_s,
              stats.runtime_s, 1e-9);
  EXPECT_GT(stats.stage.map_s, 0.0);
  EXPECT_GE(stats.t_routed, stats.t_map_done);
  EXPECT_GE(stats.t_sorted, stats.t_routed);
  EXPECT_GE(stats.runtime_s, stats.t_sorted);
}

TEST(Job, EveryThreadEmitsViolationDetected) {
  // A mapper that lies about its thread count.
  class LyingMapper final : public Mapper {
   public:
    MapOutcome map(gpusim::Device&, const Chunk&, KvBuffer& out) override {
      const std::uint32_t v = 1;
      out.append(0, &v);
      MapOutcome o;
      o.threads = 10;  // but only 1 pair emitted
      return o;
    }
  };
  Harness h(1);
  JobConfig cfg = h.config(4);
  auto job = std::make_unique<FramePlan>(*h.cluster, cfg);
  job->set_mapper_factory(
      [](int, gpusim::Device&) { return std::make_unique<LyingMapper>(); });
  job->set_reducer_factory([&](int) { return std::make_unique<SumReducer>(&h.sums); });
  job->add_chunk(std::make_unique<RangeChunk>(0, 1));
  EXPECT_THROW((void)job->run_to_completion(), vrmr::CheckError);
}

TEST(Job, RejectsChunksLargerThanVram) {
  Harness h(1);
  JobConfig cfg = h.config(4);
  auto job = h.make_job(cfg, 4);
  const std::uint64_t vram = h.cluster->config().hw.gpu.vram_bytes;
  EXPECT_THROW(job->add_chunk(std::make_unique<RangeChunk>(0, 10, vram + 1)),
               vrmr::CheckError);
  // Exactly VRAM-sized is allowed (the restriction is "must fit").
  job->add_chunk(std::make_unique<RangeChunk>(0, 10, vram));
}

TEST(Job, OutOfCoreModeChargesDisk) {
  constexpr std::uint32_t kKeys = 8;
  auto run = [&](bool disk) {
    Harness h(2);
    JobConfig cfg = h.config(kKeys);
    cfg.include_disk_io = disk;
    auto job = h.make_job(cfg, kKeys);
    for (int c = 0; c < 4; ++c)
      job->add_chunk(std::make_unique<RangeChunk>(c * 100, (c + 1) * 100, 1 << 20));
    return job->run_to_completion();
  };
  const JobStats without = run(false);
  const JobStats with = run(true);
  EXPECT_EQ(without.bytes_disk, 0u);
  EXPECT_EQ(with.bytes_disk, 4ull << 20);
  EXPECT_GT(with.disk_busy_s, 0.0);
  EXPECT_GT(with.runtime_s, without.runtime_s);
  // Identical data flow regardless of staging medium.
  EXPECT_EQ(with.fragments, without.fragments);
}

TEST(Job, GpuSortPlacementHonored) {
  constexpr std::uint32_t kKeys = 16;
  auto run = [&](SortPlacement placement) {
    Harness h(2);
    JobConfig cfg = h.config(kKeys);
    cfg.sort = placement;
    auto job = h.make_job(cfg, kKeys);
    job->add_chunk(std::make_unique<RangeChunk>(0, 5000));
    return job->run_to_completion();
  };
  const JobStats cpu = run(SortPlacement::Cpu);
  for (const auto& r : cpu.per_reducer) EXPECT_FALSE(r.sorted_on_gpu);
  const JobStats gpu = run(SortPlacement::Gpu);
  bool any_gpu = false;
  for (const auto& r : gpu.per_reducer) any_gpu |= r.sorted_on_gpu;
  EXPECT_TRUE(any_gpu);
}

TEST(Job, AutoSortUsesGpuAboveThreshold) {
  constexpr std::uint32_t kKeys = 4;
  Harness h(1);
  JobConfig cfg = h.config(kKeys);
  cfg.sort = SortPlacement::Auto;
  cfg.gpu_sort_threshold_pairs = 100;  // tiny threshold
  auto job = h.make_job(cfg, kKeys);
  job->add_chunk(std::make_unique<RangeChunk>(0, 1000));
  const JobStats stats = job->run_to_completion();
  EXPECT_TRUE(stats.per_reducer[0].sorted_on_gpu);
}

TEST(Job, ChunksCanBePinnedToGpus) {
  constexpr std::uint32_t kKeys = 4;
  Harness h(4);
  auto job = h.make_job(h.config(kKeys), kKeys);
  // Pin everything to GPU 2.
  for (int c = 0; c < 4; ++c)
    job->add_chunk(std::make_unique<RangeChunk>(c * 10, (c + 1) * 10), /*gpu=*/2);
  const JobStats stats = job->run_to_completion();
  EXPECT_EQ(stats.per_gpu[2].chunks, 4);
  EXPECT_EQ(stats.per_gpu[0].chunks, 0);
  EXPECT_EQ(stats.per_gpu[1].chunks, 0);
  EXPECT_EQ(stats.per_gpu[3].chunks, 0);
}

TEST(Job, MoreGpusReduceMapStageTime) {
  constexpr std::uint32_t kKeys = 32;
  auto map_time = [&](int gpus) {
    Harness h(gpus);
    auto job = h.make_job(h.config(kKeys), kKeys);
    for (int c = 0; c < 16; ++c)
      job->add_chunk(std::make_unique<RangeChunk>(c * 10000, (c + 1) * 10000, 4 << 20));
    return job->run_to_completion().stage.map_s;
  };
  const double one = map_time(1);
  const double four = map_time(4);
  const double sixteen = map_time(16);
  EXPECT_GT(one, four);
  EXPECT_GT(four, sixteen);
  // Mean per-GPU kernel time scales ~linearly with equal chunk deals.
  EXPECT_NEAR(one / four, 4.0, 0.5);
}

TEST(Job, IsSingleUse) {
  constexpr std::uint32_t kKeys = 4;
  Harness h(1);
  auto job = h.make_job(h.config(kKeys), kKeys);
  job->add_chunk(std::make_unique<RangeChunk>(0, 10));
  (void)job->run_to_completion();
  EXPECT_THROW((void)job->run_to_completion(), vrmr::CheckError);
  EXPECT_THROW(job->add_chunk(std::make_unique<RangeChunk>(0, 1)), vrmr::CheckError);
}

TEST(Job, RequiresFactoriesAndChunks) {
  Harness h(1);
  {
    auto job = std::make_unique<FramePlan>(*h.cluster, h.config(4));
    EXPECT_THROW((void)job->run_to_completion(), vrmr::CheckError);  // no factories
  }
  {
    auto job = h.make_job(h.config(4), 4);
    EXPECT_THROW((void)job->run_to_completion(), vrmr::CheckError);  // no chunks
  }
}

TEST(Job, ConfigValidation) {
  Harness h(1);
  JobConfig bad;
  EXPECT_THROW(FramePlan(*h.cluster, bad), vrmr::CheckError);  // value_size unset
  bad.value_size = 4;
  EXPECT_THROW(FramePlan(*h.cluster, bad), vrmr::CheckError);  // num_keys unset
  bad.domain.num_keys = 16;
  bad.partition = PartitionStrategy::Tiled;
  EXPECT_THROW(FramePlan(*h.cluster, bad), vrmr::CheckError);  // tiled needs width
}

TEST(Job, SequentialJobsOnOneClusterAccumulateIndependently) {
  constexpr std::uint32_t kKeys = 8;
  Harness h(2);
  JobConfig cfg = h.config(kKeys);
  auto first = h.make_job(cfg, kKeys);
  first->add_chunk(std::make_unique<RangeChunk>(0, 500));
  const JobStats s1 = first->run_to_completion();

  auto second = h.make_job(cfg, kKeys);
  second->add_chunk(std::make_unique<RangeChunk>(0, 500));
  const JobStats s2 = second->run_to_completion();

  // Same workload => same per-job deltas even though the simulated
  // clock keeps advancing (multi-frame rendering relies on this).
  EXPECT_NEAR(s1.runtime_s, s2.runtime_s, 1e-9);
  EXPECT_EQ(s1.fragments, s2.fragments);
  EXPECT_NEAR(s1.gpu_busy_s, s2.gpu_busy_s, 1e-9);
}


TEST(Job, BufferedSendsCoalesceSmallChunks) {
  // Many small chunks per GPU: with a large send buffer, each
  // (mapper, reducer) pair posts ONE coalesced message; with a tiny
  // buffer, every chunk flushes eagerly (the paper's "once enough pairs
  // have been generated" streaming). Data flow must be identical.
  constexpr std::uint32_t kKeys = 16;
  auto run = [&](std::uint64_t buffer_bytes) {
    Harness h(8);  // 2 nodes, so inter-node messages pay real overhead
    JobConfig cfg = h.config(kKeys);
    cfg.send_buffer_bytes = buffer_bytes;
    auto job = h.make_job(cfg, kKeys);
    for (int c = 0; c < 16; ++c)
      job->add_chunk(std::make_unique<RangeChunk>(c * 100, (c + 1) * 100));
    const JobStats stats = job->run_to_completion();
    return std::make_pair(stats, h.sums);
  };
  const auto [coalesced, sums_a] = run(64 << 20);
  const auto [eager, sums_b] = run(1);
  EXPECT_EQ(sums_a, sums_b);
  EXPECT_EQ(coalesced.fragments, eager.fragments);
  EXPECT_EQ(coalesced.bytes_net, eager.bytes_net);
  // Coalesced: <= one message per (mapper, reducer) pair; eager: one
  // per chunk per reducer.
  EXPECT_LE(coalesced.net_messages, 8u * 8u);
  EXPECT_GT(eager.net_messages, coalesced.net_messages);
  // Fewer messages => fewer per-message overheads => faster routing.
  EXPECT_LE(coalesced.t_routed, eager.t_routed);
}

TEST(Job, BufferedFlushHappensMidStream) {
  // With a buffer sized to a few chunks of output, flushes must happen
  // during the map phase (overlap), not only at the end.
  constexpr std::uint32_t kKeys = 4;
  Harness h(1);
  JobConfig cfg = h.config(kKeys);
  // Each chunk emits 400 pairs -> 100 pairs x 8 B... buffer of ~2
  // chunks' worth per reducer (single reducer gets everything).
  cfg.send_buffer_bytes = 2 * 400 * (4 + 4);
  auto job = h.make_job(cfg, kKeys);
  for (int c = 0; c < 10; ++c)
    job->add_chunk(std::make_unique<RangeChunk>(c * 400, (c + 1) * 400));
  const JobStats stats = job->run_to_completion();
  // 10 chunks x 400 pairs / (2 x 400 pairs per flush) => ~5 messages,
  // more than the single final flush but far fewer than one per chunk.
  EXPECT_GE(stats.net_messages, 4u);
  EXPECT_LE(stats.net_messages, 7u);
  EXPECT_EQ(stats.fragments, 4000u);
}

TEST(SpeedOfLight, BoundsAreConsistent) {
  constexpr std::uint32_t kKeys = 32;
  Harness h(4);
  auto job = h.make_job(h.config(kKeys), kKeys);
  for (int c = 0; c < 8; ++c)
    job->add_chunk(std::make_unique<RangeChunk>(c * 1000, (c + 1) * 1000, 1 << 20));
  const JobStats stats = job->run_to_completion();
  const SpeedOfLight sol = speed_of_light(stats, h.cluster->config());
  EXPECT_GT(sol.map_compute_s, 0.0);
  EXPECT_GE(sol.serial_bound_s, sol.pipelined_bound_s);
  // The achieved runtime can never beat the pipelined bound.
  EXPECT_LE(sol.pipelined_bound_s, stats.runtime_s + 1e-12);
  EXPECT_GT(sol.efficiency(stats.runtime_s), 0.0);
  EXPECT_LE(sol.efficiency(stats.runtime_s), 1.0 + 1e-12);
}

}  // namespace
}  // namespace vrmr::mr
