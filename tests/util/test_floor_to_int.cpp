// floor_to_int (util/vec.hpp) and its 4-lane packet form (util/simd.hpp)
// against the libm floor they replace: static_cast<int>(std::floor(x))
// for every |x| < 2^31.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/vec.hpp"

namespace vrmr {
namespace {

int libm_floor(float x) { return static_cast<int>(std::floor(x)); }

/// Runs both floors over `xs` and returns how many values either got
/// wrong, reporting the first few.
std::int64_t count_mismatches(const std::vector<float>& xs) {
  std::int64_t bad = 0;
  const auto report = [&](float x, int got, const char* which) {
    if (++bad <= 5) {
      ADD_FAILURE() << which << " floor_to_int(" << x << ") = " << got << ", libm floor "
                    << libm_floor(x);
    }
  };
  for (size_t i = 0; i + 4 <= xs.size(); i += 4) {
    alignas(16) int packet[4];
    simd::floor_to_int(simd::F4::load(&xs[i])).store(packet);
    for (size_t lane = 0; lane < 4; ++lane) {
      const float x = xs[i + lane];
      const int want = libm_floor(x);
      if (floor_to_int(x) != want) report(x, floor_to_int(x), "scalar");
      if (packet[lane] != want) report(x, packet[lane], "packet");
    }
  }
  for (size_t i = xs.size() / 4 * 4; i < xs.size(); ++i) {
    if (floor_to_int(xs[i]) != libm_floor(xs[i])) report(xs[i], floor_to_int(xs[i]), "scalar");
  }
  return bad;
}

TEST(FloorToInt, EveryIntegerUpTo2Pow24AndItsUlpNeighbours) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs;
  constexpr int kBatch = 1 << 20;
  xs.reserve(3 * kBatch);
  std::int64_t bad = 0;
  for (int n = -(1 << 24); n <= (1 << 24); ++n) {
    const float x = static_cast<float>(n);
    xs.push_back(x);
    xs.push_back(std::nextafter(x, -inf));
    xs.push_back(std::nextafter(x, inf));
    if (xs.size() >= 3 * kBatch) {
      bad += count_mismatches(xs);
      xs.clear();
    }
  }
  bad += count_mismatches(xs);
  EXPECT_EQ(bad, 0);
}

TEST(FloorToInt, EveryIntegerPlusMinusHalf) {
  std::vector<float> xs;
  for (int n = -(1 << 24); n <= (1 << 24); ++n) {
    xs.push_back(static_cast<float>(n) + 0.5f);
    xs.push_back(static_cast<float>(n) - 0.5f);
  }
  EXPECT_EQ(count_mismatches(xs), 0);
}

TEST(FloorToInt, SignedZerosAndTheInt32Edge) {
  // -0.0 floors to 0; the largest floats below 2^31 in magnitude.
  const float below = std::nextafter(2147483648.0f, 0.0f);
  const std::vector<float> xs = {0.0f, -0.0f, below, -below, -2147483648.0f,
                                 1e-45f, -1e-45f, 0.999999940f};
  EXPECT_EQ(count_mismatches(xs), 0);
}

TEST(FloorToInt, TenMillionSeededRandomFloatsBelow2Pow31) {
  // Uniform over bit patterns, so every exponent below 2^31 is covered
  // as densely as the small fractions are.
  Pcg32 rng(0xF1008);
  std::vector<float> xs;
  xs.reserve(10'000'000);
  while (xs.size() < 10'000'000) {
    const std::uint32_t bits = rng.next_u32();
    float x = 0.0f;
    std::memcpy(&x, &bits, sizeof x);
    if (std::isnan(x) || !(std::fabs(x) < 2147483648.0f)) continue;
    xs.push_back(x);
  }
  EXPECT_EQ(count_mismatches(xs), 0);
}

}  // namespace
}  // namespace vrmr
