#pragma once

// Shared harness for the figure-reproduction benches.
//
// Scale: by default every bench runs the paper's exact evaluation
// geometry — 512² images (§5) and logical volumes up to 1024³ — with
// the functional sampling loop decimated per RaycastSettings::decimation
// (stored proxy grids, every logical step charged to the simulated
// clock). Set
// VRMR_FAST=1 to drop to 256² images for quicker iteration; the bench
// header lines record whichever scale was used.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "volren/datasets.hpp"
#include "volren/renderer.hpp"

namespace vrmr::bench {

inline bool fast_mode() {
  const char* env = std::getenv("VRMR_FAST");
  return env != nullptr && env[0] == '1';
}

/// VRMR_CSV_PATH=<file>: CSV blocks append to this file instead of
/// interleaving with the stdout tables (setting it implies CSV mode).
inline const char* csv_path() {
  const char* env = std::getenv("VRMR_CSV_PATH");
  return (env != nullptr && env[0] != '\0') ? env : nullptr;
}

/// VRMR_CSV=1: figure benches also emit machine-readable CSV blocks
/// (for regenerating the plots).
inline bool csv_mode() {
  const char* env = std::getenv("VRMR_CSV");
  return (env != nullptr && env[0] == '1') || csv_path() != nullptr;
}

/// VRMR_TRACE=<path>: flight-recorder export for a bench run. The
/// benches attach this recorder to their serving layers and write the
/// Chrome trace-event JSON at exit (open in Perfetto). Unset (the
/// default, and how the gates run in CI) returns nullptr — the benches
/// then exercise and measure the recorder-off zero-cost path.
inline obs::TraceRecorder* trace_recorder() {
  const char* env = std::getenv("VRMR_TRACE");
  if (env == nullptr || env[0] == '\0') return nullptr;
  static obs::TraceRecorder recorder;
  return &recorder;
}

/// Export the VRMR_TRACE trace (no-op when unset); call once at exit.
inline void write_trace() {
  const char* env = std::getenv("VRMR_TRACE");
  if (env == nullptr || env[0] == '\0') return;
  if (trace_recorder()->write_file(env)) {
    std::cout << "trace: " << trace_recorder()->size() << " events -> " << env
              << "\n";
  }
}

/// Machine-readable bench summary: writes BENCH_<name>.json (cwd, or
/// $VRMR_BENCH_JSON_DIR when set) with the scale tag and a flat metric
/// map, so the perf trajectory stays comparable across PRs without
/// parsing stdout tables. Metrics print with full double precision.
inline void write_json_summary(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  const char* dir = std::getenv("VRMR_BENCH_JSON_DIR");
  const std::string path = (dir != nullptr && dir[0] != '\0')
                               ? std::string(dir) + "/BENCH_" + name + ".json"
                               : "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    VRMR_ERROR("bench") << "write_json_summary: cannot open " << path;
    return;
  }
  out.precision(17);
  out << "{\n  \"bench\": \"" << name << "\",\n  \"scale\": \""
      << (fast_mode() ? "fast" : "paper") << "\"";
  for (const auto& [key, value] : metrics) {
    // JSON has no inf/nan literals; emit null so parsers keep working.
    out << ",\n  \"" << key << "\": ";
    if (std::isfinite(value)) out << value;
    else out << "null";
  }
  out << "\n}\n";
}

/// Gating benches all publish the same result triple — the measured
/// speedup (or ratio), the threshold it is gated against, and whether
/// the gate passed — so the CI summary step can parse one shape out of
/// every BENCH_*.json. Appends {gate_speedup, gate_threshold,
/// gate_pass (1/0)} to `metrics` and writes the summary.
inline void write_gate_summary(
    const std::string& name, double speedup, double threshold, bool pass,
    std::vector<std::pair<std::string, double>> metrics) {
  metrics.emplace_back("gate_speedup", speedup);
  metrics.emplace_back("gate_threshold", threshold);
  metrics.emplace_back("gate_pass", pass ? 1.0 : 0.0);
  write_json_summary(name, metrics);
}

inline void maybe_print_csv(const std::string& name, const Table& table) {
  if (!csv_mode()) return;
  if (const char* path = csv_path()) {
    std::ofstream out(path, std::ios::app);
    if (!out) {
      VRMR_ERROR("bench") << "VRMR_CSV_PATH: cannot open " << path
                          << " for append";
      return;
    }
    out << "--- csv: " << name << " ---\n" << table.to_csv() << "--- end csv ---\n";
    return;
  }
  std::cout << "--- csv: " << name << " ---\n" << table.to_csv() << "--- end csv ---\n";
}

// Sharding sweeps: every row carries a leading "shards" column so the
// VRMR_CSV_PATH output stays machine-parseable alongside the
// single-cluster benches (parsers key on the column name, and rows
// from different shard counts land in one CSV block).
inline std::vector<std::string> shards_headers(std::vector<std::string> rest) {
  rest.insert(rest.begin(), "shards");
  return rest;
}

inline std::vector<std::string> shards_row(int shards,
                                           std::vector<std::string> rest) {
  rest.insert(rest.begin(), std::to_string(shards));
  return rest;
}

inline int image_size() { return fast_mode() ? 256 : 512; }

/// Functional decimation for a logical volume: exact up to 128³, then
/// proportional (1024³ -> stride 8). Cost accounting always uses the
/// logical resolution.
inline int decimation_for(Int3 dims) {
  const int max_dim = std::max({dims.x, dims.y, dims.z});
  return std::max(1, max_dim / 128);
}

struct SweepPoint {
  std::string dataset;
  Int3 dims;
  int gpus = 1;
};

inline std::string dims_label(Int3 d) {
  if (d.x == d.y && d.y == d.z) return std::to_string(d.x) + "^3";
  return std::to_string(d.x) + "x" + std::to_string(d.y) + "x" + std::to_string(d.z);
}

/// Render one sweep point on a fresh simulated cluster with the paper's
/// configuration (bone TF for skull, fire otherwise; bricks ≈ GPUs).
inline volren::RenderResult run_point(const SweepPoint& point,
                                      volren::RenderOptions options = {}) {
  const volren::Volume volume = volren::datasets::by_name(point.dataset, point.dims);
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(point.gpus));

  options.image_width = image_size();
  options.image_height = image_size();
  options.cast.decimation = decimation_for(point.dims);
  options.transfer = point.dataset == "skull" ? volren::TransferFunction::bone()
                                              : volren::TransferFunction::fire();
  // Frame the volume like the paper's teaser renders: close enough to
  // fill most of the image.
  options.distance = 1.2f;
  options.azimuth = 0.65f;
  options.elevation = 0.3f;
  // At least two bricks whenever one would overflow VRAM (1024³ floats
  // exceed a 4 GiB device once the ghost shell is added).
  // A staged brick must fit VRAM alongside the mapper's static data
  // (transfer-function texture, output slots) — leave headroom.
  const std::uint64_t vram_budget = cluster.config().hw.gpu.vram_bytes - (64u << 20);
  options.target_bricks = point.gpus;
  while (true) {
    const Int3 brick_dims = volren::BrickLayout::choose_brick_dims(
        point.dims, options.target_bricks);
    const Int3 padded{std::min(point.dims.x, brick_dims.x + 2),
                      std::min(point.dims.y, brick_dims.y + 2),
                      std::min(point.dims.z, brick_dims.z + 2)};
    if (static_cast<std::uint64_t>(padded.volume()) * sizeof(float) <= vram_budget) {
      break;
    }
    options.target_bricks *= 2;
  }
  return volren::render_mapreduce(cluster, volume, options);
}

inline void print_header(const std::string& bench, const std::string& figure) {
  std::cout << "=== " << bench << " — reproduces " << figure << " ===\n"
            << "image " << image_size() << "x" << image_size()
            << (fast_mode() ? " (VRMR_FAST)" : " (paper scale)")
            << "; times are simulated seconds on the calibrated NCSA "
               "Accelerator Cluster model (cluster/hardware_model.hpp)\n\n";
}

}  // namespace vrmr::bench
