#pragma once

// A simulated multi-GPU cluster: N nodes × G GPUs per node, each node
// with a quad-core CPU pool, one disk, one PCIe link shared by its GPUs,
// and one NIC port pair on the shared fabric. This mirrors the paper's
// testbed topology, where 4 logical GPUs share a node's host resources
// — the contention that shapes Fig. 3 at high GPU counts.

#include <memory>
#include <string>
#include <vector>

#include "cluster/hardware_model.hpp"
#include "gpusim/device.hpp"
#include "io/disk.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace vrmr::cluster {

struct ClusterConfig {
  int num_nodes = 1;
  int gpus_per_node = 1;
  HardwareModel hw = HardwareModel::ncsa_accelerator_cluster();

  int total_gpus() const { return num_nodes * gpus_per_node; }

  void validate() const {
    VRMR_CHECK_MSG(num_nodes >= 1, "need at least one node");
    VRMR_CHECK_MSG(gpus_per_node >= 1, "need at least one GPU per node");
  }

  /// The paper's sweep points: `gpus` total GPUs packed up to 4 per
  /// node (§4.1), e.g. 8 GPUs = 2 nodes. Nodes are uniform, so the
  /// per-node count is the largest divisor of `gpus` that fits.
  static ClusterConfig with_total_gpus(int gpus,
                                       HardwareModel hw = HardwareModel::ncsa_accelerator_cluster()) {
    VRMR_CHECK(gpus >= 1);
    constexpr int kMaxGpusPerNode = 4;
    ClusterConfig cfg;
    cfg.hw = std::move(hw);
    cfg.gpus_per_node = 1;
    for (int per_node = std::min(gpus, kMaxGpusPerNode); per_node >= 1; --per_node) {
      if (gpus % per_node == 0) {
        cfg.gpus_per_node = per_node;
        break;
      }
    }
    cfg.num_nodes = gpus / cfg.gpus_per_node;
    VRMR_CHECK(cfg.total_gpus() == gpus);
    return cfg;
  }
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterConfig config, ThreadPool* pool = nullptr);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  sim::Engine& engine() { return *engine_; }
  net::Fabric& fabric() { return *fabric_; }

  int num_nodes() const { return config_.num_nodes; }
  int total_gpus() const { return config_.total_gpus(); }
  int node_of_gpu(int gpu) const {
    VRMR_DCHECK(gpu >= 0 && gpu < total_gpus());
    return gpu / config_.gpus_per_node;
  }

  gpusim::Device& gpu(int gpu) { return *gpus_.at(static_cast<size_t>(gpu)); }
  sim::Resource& gpu_stream(int gpu) { return *gpu_streams_.at(static_cast<size_t>(gpu)); }
  io::VirtualDisk& disk(int node) { return *disks_.at(static_cast<size_t>(node)); }
  sim::Resource& pcie(int node) { return *pcie_.at(static_cast<size_t>(node)); }
  sim::ResourcePool& cpu(int node) { return *cpus_.at(static_cast<size_t>(node)); }

  /// Sum of GPU kernel busy time across all devices.
  double total_gpu_busy() const;
  /// Sum of PCIe busy time across nodes.
  double total_pcie_busy() const;
  /// Sum of NIC (tx) busy time across nodes.
  double total_nic_busy() const;
  /// Sum of disk busy time across nodes.
  double total_disk_busy() const;

 private:
  sim::Engine* engine_;
  ClusterConfig config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<gpusim::Device>> gpus_;
  std::vector<std::unique_ptr<sim::Resource>> gpu_streams_;
  std::vector<std::unique_ptr<io::VirtualDisk>> disks_;
  std::vector<std::unique_ptr<sim::Resource>> pcie_;
  std::vector<std::unique_ptr<sim::ResourcePool>> cpus_;
};

}  // namespace vrmr::cluster
