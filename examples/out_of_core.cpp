// Out-of-core rendering (paper §1/§6.2): the volume lives in a bricked
// file on disk, bricks stream through the pipeline, and no GPU ever
// holds more than its chunk.
//
// This example exercises the real artifacts end to end:
//   1. brick the Plume proxy into a VRBF file on the actual filesystem,
//   2. read it back brick by brick (BrickFileReader),
//   3. render with include_disk_io so every staging read is charged to
//      the simulated per-node disks (calibrated: 64³ brick ≈ 20 ms),
//   4. compare against the in-core run: same pixels, slower frame.
//
//   $ ./examples/out_of_core [out.ppm]

#include <filesystem>
#include <numeric>
#include <iostream>

#include "cluster/cluster.hpp"
#include "io/brick_file.hpp"
#include "io/brick_streamer.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"
#include "volren/bricking.hpp"
#include "volren/datasets.hpp"
#include "volren/renderer.hpp"

int main(int argc, char** argv) {
  using namespace vrmr;
  namespace fs = std::filesystem;
  const std::string out_path = argc > 1 ? argv[1] : "out_of_core.ppm";

  // The paper's non-cubic dataset, scaled down: 64 x 64 x 256 plume.
  const Int3 dims{64, 64, 256};
  const volren::Volume source = volren::datasets::plume(dims);
  const int brick_size = 64;
  const volren::BrickLayout layout(dims, source.world_extent(), brick_size, 1);

  // --- 1. offline bricking to a VRBF file (untimed, like the paper) ---
  const fs::path vrbf = fs::temp_directory_path() / "vrmr_plume.vrbf";
  {
    io::BrickFileWriter writer(vrbf, dims, brick_size, 1, layout.num_bricks());
    for (const volren::BrickInfo& b : layout.bricks()) {
      writer.append_brick(b.grid_pos, b.padded_dims,
                          source.materialize(b.padded_origin, b.padded_dims));
    }
    writer.finalize();
  }
  std::cout << "bricked " << source.name() << " " << dims << " -> " << vrbf << " ("
            << format_bytes(fs::file_size(vrbf)) << ", " << layout.num_bricks()
            << " bricks)\n";

  // --- 2. reload the volume through the prefetching streamer -----------
  // The streamer keeps a bounded window resident (here: 2 bricks), the
  // shape of the paper's out-of-core streaming — the full volume never
  // sits in memory twice.
  auto opened = io::BrickFileReader::open(vrbf);
  if (!opened) {
    std::cerr << "cannot reload " << vrbf << ": " << opened.error().message << "\n";
    return 1;
  }
  io::BrickFileReader& reader = *opened;
  std::vector<int> schedule(static_cast<size_t>(reader.num_bricks()));
  std::iota(schedule.begin(), schedule.end(), 0);
  io::BrickStreamer streamer(reader, schedule, /*window=*/2);
  std::vector<float> voxels(static_cast<size_t>(dims.volume()));
  while (!streamer.done()) {
    const int i = streamer.next_brick();
    const io::BrickRecord& rec = reader.record(i);
    const auto consumed = streamer.try_consume();
    if (!consumed) {
      std::cerr << "brick " << i << ": " << consumed.error().message << "\n";
      return 1;
    }
    const std::vector<float>& payload = *consumed;
    const volren::BrickInfo& info = layout.brick(layout.brick_id(rec.grid_pos));
    // Scatter the padded payload's core region into the dense array.
    size_t src = 0;
    for (int z = 0; z < rec.padded_dims.z; ++z) {
      for (int y = 0; y < rec.padded_dims.y; ++y) {
        for (int x = 0; x < rec.padded_dims.x; ++x, ++src) {
          const Int3 g = info.padded_origin + Int3{x, y, z};
          voxels[(static_cast<size_t>(g.z) * dims.y + g.y) * dims.x + g.x] = payload[src];
        }
      }
    }
  }
  const volren::Volume volume("plume-from-disk", dims,
                              std::make_shared<volren::ArraySource>(dims, std::move(voxels)));
  std::cout << "streamed " << streamer.reads() << " bricks ("
            << format_bytes(streamer.bytes_read()) << ") through a 2-brick window\n";

  // --- 3. render in-core vs out-of-core --------------------------------
  volren::RenderOptions options;
  options.image_width = 384;
  options.image_height = 384;
  options.transfer = volren::TransferFunction::fire();
  options.brick_size = brick_size;
  options.elevation = 0.15f;

  auto render_with = [&](bool disk) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    volren::RenderOptions opt = options;
    opt.include_disk_io = disk;
    return volren::render_mapreduce(cluster, volume, opt);
  };
  const volren::RenderResult in_core = render_with(false);
  const volren::RenderResult out_of_core = render_with(true);
  out_of_core.image.write_ppm(out_path);

  const volren::ImageDiff diff =
      volren::compare_images(in_core.image, out_of_core.image);
  std::cout << "in-core frame:     " << format_seconds(in_core.stats.runtime_s) << "\n"
            << "out-of-core frame: " << format_seconds(out_of_core.stats.runtime_s)
            << "  (disk read " << format_bytes(out_of_core.stats.bytes_disk) << ", busy "
            << format_seconds(out_of_core.stats.disk_busy_s) << ")\n"
            << "image difference:  " << diff.max_abs << " (identical pixels expected)\n"
            << "image written to " << out_path << "\n";

  fs::remove(vrbf);
  return diff.max_abs == 0.0 ? 0 : 1;
}
