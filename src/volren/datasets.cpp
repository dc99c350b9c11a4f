#include "volren/datasets.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace vrmr::volren::datasets {

namespace {

/// Smooth value noise: trilinear interpolation of lattice hashes.
float value_noise(Vec3 p, std::uint32_t seed) {
  const int x0 = floor_to_int(p.x), y0 = floor_to_int(p.y), z0 = floor_to_int(p.z);
  const float tx = p.x - static_cast<float>(x0), ty = p.y - static_cast<float>(y0),
              tz = p.z - static_cast<float>(z0);
  auto n = [&](int dx, int dy, int dz) {
    return lattice_noise(x0 + dx, y0 + dy, z0 + dz, seed);
  };
  const float c00 = lerpf(n(0, 0, 0), n(1, 0, 0), tx);
  const float c10 = lerpf(n(0, 1, 0), n(1, 1, 0), tx);
  const float c01 = lerpf(n(0, 0, 1), n(1, 0, 1), tx);
  const float c11 = lerpf(n(0, 1, 1), n(1, 1, 1), tx);
  return lerpf(lerpf(c00, c10, ty), lerpf(c01, c11, ty), tz);
}

/// Fractal (fBm) noise, `octaves` layers of value noise.
float fbm(Vec3 p, int octaves, std::uint32_t seed) {
  float sum = 0.0f;
  float amp = 0.5f;
  float freq = 1.0f;
  for (int o = 0; o < octaves; ++o) {
    sum += amp * value_noise(p * freq, seed + static_cast<std::uint32_t>(o) * 101u);
    amp *= 0.5f;
    freq *= 2.0f;
  }
  return sum;
}

/// Normalized coordinates in [-1, 1] from a voxel index.
Vec3 centered(Int3 v, Int3 dims) {
  return {2.0f * (static_cast<float>(v.x) + 0.5f) / static_cast<float>(dims.x) - 1.0f,
          2.0f * (static_cast<float>(v.y) + 0.5f) / static_cast<float>(dims.y) - 1.0f,
          2.0f * (static_cast<float>(v.z) + 0.5f) / static_cast<float>(dims.z) - 1.0f};
}

float smoothstep(float lo, float hi, float x) {
  const float t = clampf((x - lo) / (hi - lo), 0.0f, 1.0f);
  return t * t * (3.0f - 2.0f * t);
}

float skull_field(Int3 v, Int3 dims) {
  const Vec3 p = centered(v, dims);
  // Slightly anisotropic head shape.
  const Vec3 q{p.x / 0.72f, p.y / 0.85f, p.z / 0.80f};
  const float r = length(q);
  // Shells: skin (soft), bone (dense), brain cavity (medium), ventricle.
  const float skin = smoothstep(0.96f, 0.90f, r) * 0.25f;
  const float bone = (smoothstep(0.88f, 0.84f, r) - smoothstep(0.78f, 0.74f, r)) * 0.95f;
  const float brain = smoothstep(0.72f, 0.60f, r) * 0.45f;
  const float ventricle = smoothstep(0.25f, 0.15f, r) * -0.25f;
  // Eye sockets: two low-density wells punched into the bone shell.
  auto socket = [&](float sx) {
    const Vec3 d{q.x - sx, q.y - 0.28f, q.z - 0.78f};
    return smoothstep(0.30f, 0.10f, length(d)) * -0.85f;
  };
  const float noise = 0.06f * fbm(p * 9.0f, 3, 0xBADC0DEu);
  return clampf(skin + bone + brain + ventricle + socket(-0.35f) + socket(0.35f) + noise,
                0.0f, 1.0f);
}

float supernova_field(Int3 v, Int3 dims) {
  const Vec3 p = centered(v, dims);
  const float r = length(p);
  // Dense remnant core.
  const float core = smoothstep(0.22f, 0.05f, r) * 0.9f;
  // Expanding shock shell with turbulent thickness modulation.
  const float shell_r = 0.62f;
  const float turb = fbm(p * 6.0f, 4, 0x5EEDFACEu);
  const float shell_width = 0.10f + 0.12f * turb;
  const float shell = std::exp(-((r - shell_r) * (r - shell_r)) /
                               (2.0f * shell_width * shell_width)) *
                      (0.35f + 0.65f * turb);
  // Wispy ejecta between core and shell.
  const float ejecta = smoothstep(0.6f, 0.2f, r) * 0.30f * fbm(p * 11.0f, 3, 0xA11CE5u);
  return clampf(core + shell + ejecta, 0.0f, 1.0f);
}

float plume_field(Int3 v, Int3 dims) {
  const Vec3 p = centered(v, dims);  // z is the long (rise) axis
  const float h = 0.5f * (p.z + 1.0f);  // height in [0, 1]
  // Column widens as it rises and meanders sideways.
  const float meander_x = 0.18f * std::sin(6.0f * h) * h;
  const float meander_y = 0.18f * std::cos(5.0f * h) * h;
  const float dx = p.x - meander_x;
  const float dy = p.y - meander_y;
  const float radius = 0.08f + 0.45f * h * h;
  const float rr = std::sqrt(dx * dx + dy * dy);
  const float column = smoothstep(radius, radius * 0.35f, rr);
  // Entrained turbulence grows with height; density decays with height.
  const float turb = fbm(Vec3{p.x * 5.0f, p.y * 5.0f, p.z * 2.0f + 3.0f * h}, 4,
                         0x9E3779B9u);
  const float density = column * (1.0f - 0.55f * h) * (0.55f + 0.6f * turb);
  return clampf(density, 0.0f, 1.0f);
}

}  // namespace

Volume skull(Int3 dims) {
  return Volume::procedural("skull", dims, [dims](Int3 v) { return skull_field(v, dims); });
}

Volume supernova(Int3 dims) {
  return Volume::procedural("supernova", dims,
                            [dims](Int3 v) { return supernova_field(v, dims); });
}

Volume plume(Int3 dims) {
  return Volume::procedural("plume", dims, [dims](Int3 v) { return plume_field(v, dims); });
}

Volume by_name(const std::string& name, Int3 dims) {
  if (name == "skull") return skull(dims);
  if (name == "supernova") return supernova(dims);
  if (name == "plume") return plume(dims);
  VRMR_CHECK_MSG(false, "unknown dataset '" << name << "'");
  return skull(dims);  // unreachable
}

}  // namespace vrmr::volren::datasets
