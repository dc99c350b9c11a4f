// Bit-exact golden digests of the ray-cast kernel's output.
//
// The pipeline-equivalence tests compare the MapReduce render with the
// reference within a tolerance; this test pins both renderers to the
// exact bits they produced before the host hot path was optimized
// (payload reuse, per-block sample counts, the zero-alpha skip, the
// interior trilinear fetch). Any change to the floating-point
// arithmetic — even a harmless-looking reassociation — moves a digest.
//
// The cases cover every dataset proxy, decimation 1/2/4/8, ERT on and
// off, sampling rates 0.5/1/2 (so the opacity-correction exponent is
// both == 1 and != 1), the bone/fire/mist transfer functions and
// 4/8/16 GPUs. Each case records the MapReduce image digest, the
// fragment/placeholder/sample counts and, at decimation 1, the
// single-pass reference image digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>

#include "cluster/cluster.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/reference.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

struct GoldenCase {
  const char* volume;
  int decimation;
  bool ert;
  float sampling_rate;
  const char* transfer;
  int gpus;
  // Recorded digests.
  std::uint64_t image_digest;
  std::uint64_t fragments;
  std::uint64_t placeholders;
  std::uint64_t samples;
  std::uint64_t reference_digest;  // 0 when decimation != 1
};

Volume make_volume(const std::string& name) {
  if (name == "skull") return datasets::skull({48, 48, 48});
  if (name == "supernova") return datasets::supernova({48, 48, 48});
  return datasets::plume({24, 24, 96});
}

TransferFunction make_transfer(const std::string& name) {
  if (name == "bone") return TransferFunction::bone();
  if (name == "fire") return TransferFunction::fire();
  return TransferFunction::mist();
}

/// FNV-1a over the bit patterns of every pixel channel.
std::uint64_t digest(const Image& image) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Vec3& p : image.pixels()) {
    mix(p.x);
    mix(p.y);
    mix(p.z);
  }
  return h;
}

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.volume << " decimation=" << c.decimation << " ert=" << c.ert
      << " sampling_rate=" << c.sampling_rate << " tf=" << c.transfer
      << " gpus=" << c.gpus;
}

class PixelGolden : public testing::TestWithParam<GoldenCase> {};

TEST_P(PixelGolden, MatchesRecordedDigests) {
  const GoldenCase& c = GetParam();
  const Volume volume = make_volume(c.volume);

  RenderOptions opt;
  opt.image_width = 96;
  opt.image_height = 80;
  opt.azimuth = 0.8f;
  opt.elevation = 0.4f;
  opt.transfer = make_transfer(c.transfer);
  opt.cast.decimation = c.decimation;
  opt.cast.sampling_rate = c.sampling_rate;
  opt.cast.ert_threshold = c.ert ? 0.95f : 2.0f;

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(c.gpus));
  const RenderResult result = render_mapreduce(cluster, volume, opt);

  EXPECT_EQ(digest(result.image), c.image_digest)
      << std::hex << "image digest 0x" << digest(result.image);
  EXPECT_EQ(result.stats.fragments, c.fragments);
  EXPECT_EQ(result.stats.placeholders, c.placeholders);
  EXPECT_EQ(result.stats.total_samples, c.samples);

  if (c.decimation == 1) {
    const ReferenceResult reference =
        render_reference(volume, make_frame(volume, opt), opt.background);
    EXPECT_EQ(digest(reference.image), c.reference_digest)
        << std::hex << "reference digest 0x" << digest(reference.image);
  }
}

std::string case_name(const testing::TestParamInfo<GoldenCase>& info) {
  const GoldenCase& c = info.param;
  const char* rate = c.sampling_rate < 1.0f ? "r05" : c.sampling_rate > 1.0f ? "r2" : "r1";
  return std::string(c.volume) + "_d" + std::to_string(c.decimation) +
         (c.ert ? "_ert_" : "_exact_") + rate + "_" + c.transfer + "_g" +
         std::to_string(c.gpus);
}

// clang-format off
INSTANTIATE_TEST_SUITE_P(
    KernelSweep, PixelGolden,
    testing::Values(
        GoldenCase{"skull",     1, false, 1.0f, "bone", 4,  0xf2b70537a94d3607ULL, 1130, 6550, 61409, 0x129ecf799a63886fULL},
        GoldenCase{"skull",     1, true,  0.5f, "bone", 8,  0x427246f19240a483ULL, 1399, 7305, 25251, 0xd1e4e82c0f12e569ULL},
        GoldenCase{"skull",     2, true,  2.0f, "fire", 16, 0xd38bd6a9d17d77eeULL, 5879, 10505, 112154, 0},
        GoldenCase{"skull",     4, false, 0.5f, "mist", 8,  0xefa4ba6eacd52535ULL, 4087, 4617, 37232, 0},
        GoldenCase{"supernova", 1, true,  1.0f, "fire", 4,  0x0009bccd4e1926d7ULL, 3392, 4288, 50589, 0xb4d46db71b88462eULL},
        GoldenCase{"supernova", 2, false, 1.0f, "mist", 16, 0xb35235cf501d8fbaULL, 5795, 10589, 64386, 0},
        GoldenCase{"supernova", 8, true,  2.0f, "bone", 8,  0xa678865a0aa0b1cdULL, 2483, 6221, 131448, 0},
        GoldenCase{"supernova", 1, false, 2.0f, "mist", 16, 0x5e7e169325d7ff96ULL, 5879, 10505, 122838, 0x29e868ad3929dc63ULL},
        GoldenCase{"plume",     1, true,  2.0f, "mist", 4,  0x9cd366aa9a6aae95ULL, 1422, 2674, 41138, 0xe44206a9f006b749ULL},
        GoldenCase{"plume",     4, true,  1.0f, "fire", 16, 0xf723f21d7d6f63bcULL, 2267, 6437, 24144, 0},
        GoldenCase{"plume",     8, false, 0.5f, "fire", 4,  0x6a47f2e2d989b7f6ULL, 1376, 2720, 15504, 0},
        GoldenCase{"plume",     2, true,  0.5f, "bone", 8,  0xc7c616615f1dc60dULL, 239, 6417, 11202, 0}),
    case_name);
// clang-format on

}  // namespace
}  // namespace vrmr::volren
