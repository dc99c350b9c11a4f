// Quickstart: render one frame of the synthetic Skull dataset on a
// simulated 8-GPU cluster (2 nodes × 4 GPUs, the paper's testbed
// packing) and write the image plus a run report.
//
//   $ ./examples/quickstart [out.ppm]

#include <iostream>

#include "cluster/cluster.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "volren/datasets.hpp"
#include "volren/renderer.hpp"

int main(int argc, char** argv) {
  using namespace vrmr;
  const std::string out_path = argc > 1 ? argv[1] : "quickstart.ppm";

  // 1. A volume. Datasets are procedural proxies of the paper's Skull /
  //    Supernova / Plume (volren/datasets.hpp); any VolumeSource works.
  const volren::Volume volume = volren::datasets::skull({128, 128, 128});

  // 2. A simulated cluster: 8 GPUs packed 4 per node, hardware model
  //    calibrated to the paper's NCSA Accelerator Cluster.
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(8));

  // 3. Render options: image size, camera orbit, transfer function,
  //    bricking (defaults to ≈ one brick per GPU, the paper's sweet
  //    spot), and the MapReduce knobs (§3.1).
  volren::RenderOptions options;
  options.image_width = 512;
  options.image_height = 512;
  options.transfer = volren::TransferFunction::bone();
  options.azimuth = 0.7f;
  options.elevation = 0.25f;

  const volren::RenderResult result = volren::render_mapreduce(cluster, volume, options);
  result.image.write_ppm(out_path);

  // 4. The paper's figures of merit (§4.2) plus the Fig.-3 stage split.
  std::cout << "Rendered " << volume.name() << " " << volume.dims() << " on "
            << cluster.total_gpus() << " GPUs (" << cluster.num_nodes() << " nodes)\n"
            << "  bricks:     " << result.num_bricks << " of edge " << result.brick_size
            << "\n"
            << "  frame time: " << format_seconds(result.stats.runtime_s) << "  ("
            << Table::num(result.fps(), 2) << " fps)\n"
            << "  throughput: " << Table::num(result.mvps(), 1) << " Mvox/s\n"
            << "  fragments:  " << result.stats.fragments << " (+"
            << result.stats.placeholders << " placeholders discarded)\n\n";

  Table stage({"stage", "time", "share"});
  const auto& s = result.stats.stage;
  auto row = [&](const char* name, double t) {
    stage.add_row({name, format_seconds(t), Table::num(100.0 * t / s.total_s, 1) + " %"});
  };
  row("map (ray casting)", s.map_s);
  row("partition + I/O", s.partition_io_s);
  row("sort", s.sort_s);
  row("reduce (compositing)", s.reduce_s);
  row("total", s.total_s);
  std::cout << stage.to_string() << "\nimage written to " << out_path << "\n";
  return 0;
}
