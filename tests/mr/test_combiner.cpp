// Combiner (mapper-side partial reduce) — the stage the paper omitted
// (§3.1). Correctness: results identical with and without combining for
// commutative reductions; traffic: combined jobs ship (and reduce) far
// fewer pairs when keys repeat within a mapper.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cluster/cluster.hpp"
#include "mr/combiner.hpp"
#include "mr/frame_plan.hpp"
#include "sim/engine.hpp"

namespace vrmr::mr {
namespace {

class RangeChunk final : public Chunk {
 public:
  RangeChunk(std::uint32_t lo, std::uint32_t hi) : lo_(lo), hi_(hi) {}
  std::uint64_t device_bytes() const override { return 1024; }
  std::uint32_t lo() const { return lo_; }
  std::uint32_t hi() const { return hi_; }

 private:
  std::uint32_t lo_, hi_;
};

class ModuloMapper final : public Mapper {
 public:
  explicit ModuloMapper(std::uint32_t num_keys) : num_keys_(num_keys) {}
  MapOutcome map(gpusim::Device&, const Chunk& chunk, KvBuffer& out) override {
    const auto& range = dynamic_cast<const RangeChunk&>(chunk);
    for (std::uint32_t i = range.lo(); i < range.hi(); ++i) {
      const std::uint64_t value = i;
      out.append_typed(i % num_keys_, value);
    }
    return {range.hi() - range.lo(), out.size()};
  }

 private:
  std::uint32_t num_keys_;
};

class SumReducer final : public Reducer {
 public:
  explicit SumReducer(std::map<std::uint32_t, std::uint64_t>* sums) : sums_(sums) {}
  void reduce(std::uint32_t key, const std::byte* values, std::size_t count) override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t v;
      std::memcpy(&v, values + i * sizeof(v), sizeof(v));
      total += v;
    }
    (*sums_)[key] += total;
  }

 private:
  std::map<std::uint32_t, std::uint64_t>* sums_;
};

/// Sums each group down to a single pair.
class SumCombiner final : public Combiner {
 public:
  void combine(std::uint32_t key, const std::byte* values, std::size_t count,
               KvBuffer& out) override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t v;
      std::memcpy(&v, values + i * sizeof(v), sizeof(v));
      total += v;
    }
    out.append_typed(key, total);
  }
};

/// Drops everything — exercises the empty-payload flush path.
class DropAllCombiner final : public Combiner {
 public:
  void combine(std::uint32_t, const std::byte*, std::size_t, KvBuffer&) override {}
};

struct RunResult {
  JobStats stats;
  std::map<std::uint32_t, std::uint64_t> sums;
};

RunResult run_sum_job(int gpus, std::uint32_t num_keys, bool with_combiner,
                      std::unique_ptr<Combiner> (*make)() = nullptr,
                      BarrierMode barrier_mode = BarrierMode::Global) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  JobConfig cfg;
  cfg.value_size = sizeof(std::uint64_t);
  cfg.domain.num_keys = num_keys;
  cfg.barrier_mode = barrier_mode;
  FramePlan plan(cluster, cfg);
  plan.set_mapper_factory(
      [num_keys](int, gpusim::Device&) { return std::make_unique<ModuloMapper>(num_keys); });
  RunResult result;
  plan.set_reducer_factory(
      [&result](int) { return std::make_unique<SumReducer>(&result.sums); });
  if (with_combiner) {
    plan.set_combiner_factory([make](int) {
      return make ? make() : std::unique_ptr<Combiner>(std::make_unique<SumCombiner>());
    });
  }
  for (int c = 0; c < 8; ++c)
    plan.add_chunk(std::make_unique<RangeChunk>(c * 1000, (c + 1) * 1000));
  result.stats = plan.run_to_completion();
  return result;
}

TEST(Combiner, PreservesReductionResult) {
  const RunResult plain = run_sum_job(4, 16, false);
  const RunResult combined = run_sum_job(4, 16, true);
  EXPECT_EQ(plain.sums, combined.sums);
}

TEST(Combiner, CollapsesRepeatedKeys) {
  // 8000 pairs over 16 keys: each mapper's buffer collapses to at most
  // 16 pairs, so network traffic shrinks by orders of magnitude.
  const RunResult plain = run_sum_job(4, 16, false);
  const RunResult combined = run_sum_job(4, 16, true);
  EXPECT_EQ(combined.stats.combine_input_pairs, 8000u);
  EXPECT_LE(combined.stats.combine_output_pairs, 4u * 16u);
  EXPECT_LT(combined.stats.bytes_net, plain.stats.bytes_net / 10);
  EXPECT_EQ(plain.stats.combine_input_pairs, 0u);  // no combiner configured
}

TEST(Combiner, UselessWhenKeysAreUnique) {
  // Dense unique keys (one pair per key per job): combining buys
  // nothing — the paper's situation for volume rendering with
  // bricks ≈ GPUs, and why §3.1 omitted the stage.
  const RunResult plain = run_sum_job(2, 8000, false);
  const RunResult combined = run_sum_job(2, 8000, true);
  EXPECT_EQ(plain.sums, combined.sums);
  EXPECT_EQ(combined.stats.combine_input_pairs, combined.stats.combine_output_pairs);
  EXPECT_EQ(combined.stats.bytes_net, plain.stats.bytes_net);
  // The combine pass itself costs CPU time: the combined run is slower.
  EXPECT_GT(combined.stats.runtime_s, plain.stats.runtime_s);
}

TEST(Combiner, MayDropEverything) {
  const RunResult dropped = run_sum_job(4, 16, true, +[]() {
    return std::unique_ptr<Combiner>(std::make_unique<DropAllCombiner>());
  });
  EXPECT_TRUE(dropped.sums.empty());
  EXPECT_EQ(dropped.stats.combine_output_pairs, 0u);
  EXPECT_EQ(dropped.stats.bytes_net, 0u);
}

TEST(Combiner, DroppedSendsCascadeSafelyUnderPerReducerBarriers) {
  // Every flush collapses to an empty payload, so every send resolves
  // through the empty-payload path and every reducer's inbox ends
  // empty. Under PerReducer barriers the final empty send can trigger
  // a fully synchronous zero-pair sort+reduce cascade that finishes
  // the frame — the routing/sort barrier stamps must land before that
  // cascade so stage attribution stays sane (regression: t_routed was
  // stamped after the cascade and sort_s absorbed the whole map span).
  for (const BarrierMode mode : {BarrierMode::Global, BarrierMode::PerReducer}) {
    const RunResult dropped = run_sum_job(4, 16, true, +[]() {
      return std::unique_ptr<Combiner>(std::make_unique<DropAllCombiner>());
    }, mode);
    EXPECT_TRUE(dropped.sums.empty());
    EXPECT_GT(dropped.stats.t_routed, 0.0) << to_string(mode);
    EXPECT_GE(dropped.stats.t_sorted, dropped.stats.t_routed) << to_string(mode);
    EXPECT_GE(dropped.stats.runtime_s, dropped.stats.t_sorted) << to_string(mode);
    EXPECT_GE(dropped.stats.stage.sort_s, 0.0) << to_string(mode);
    EXPECT_GE(dropped.stats.stage.reduce_s, 0.0) << to_string(mode);
    // The sort phase of an all-empty frame is a zero-length cascade,
    // not the whole pre-routing span.
    EXPECT_LT(dropped.stats.stage.sort_s, dropped.stats.t_routed) << to_string(mode);
  }
}

TEST(Combiner, WorksWithTinySendBuffers) {
  // Eager flushing combines per-chunk slices; totals must still match.
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  JobConfig cfg;
  cfg.value_size = sizeof(std::uint64_t);
  cfg.domain.num_keys = 16;
  cfg.send_buffer_bytes = 64;  // flush almost every chunk
  FramePlan plan(cluster, cfg);
  plan.set_mapper_factory(
      [](int, gpusim::Device&) { return std::make_unique<ModuloMapper>(16); });
  std::map<std::uint32_t, std::uint64_t> sums;
  plan.set_reducer_factory([&](int) { return std::make_unique<SumReducer>(&sums); });
  plan.set_combiner_factory([](int) { return std::make_unique<SumCombiner>(); });
  for (int c = 0; c < 4; ++c)
    plan.add_chunk(std::make_unique<RangeChunk>(c * 500, (c + 1) * 500));
  (void)plan.run_to_completion();

  std::map<std::uint32_t, std::uint64_t> expected;
  for (std::uint32_t i = 0; i < 2000; ++i) expected[i % 16] += i;
  EXPECT_EQ(sums, expected);
}

}  // namespace
}  // namespace vrmr::mr
