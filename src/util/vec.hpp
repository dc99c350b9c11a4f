#pragma once

// Small fixed-size vector math used throughout the renderer.
//
// These mirror the float3/float4 types of the CUDA kernels in the paper.
// Everything is constexpr-friendly and passed by value; the renderer's
// inner sampling loop relies on these being trivially copyable.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>

namespace vrmr {

/// 3-component float vector (CUDA float3 analogue).
struct Vec3 {
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;

  constexpr Vec3() = default;
  constexpr Vec3(float vx, float vy, float vz) : x(vx), y(vy), z(vz) {}
  constexpr explicit Vec3(float v) : x(v), y(v), z(v) {}

  constexpr float operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }
  float& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }

  constexpr Vec3 operator-() const { return {-x, -y, -z}; }
  constexpr Vec3& operator+=(Vec3 o) { x += o.x; y += o.y; z += o.z; return *this; }
  constexpr Vec3& operator-=(Vec3 o) { x -= o.x; y -= o.y; z -= o.z; return *this; }
  constexpr Vec3& operator*=(float s) { x *= s; y *= s; z *= s; return *this; }
  constexpr Vec3& operator/=(float s) { x /= s; y /= s; z /= s; return *this; }

  friend constexpr Vec3 operator+(Vec3 a, Vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
  friend constexpr Vec3 operator-(Vec3 a, Vec3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
  friend constexpr Vec3 operator*(Vec3 a, Vec3 b) { return {a.x * b.x, a.y * b.y, a.z * b.z}; }
  friend constexpr Vec3 operator/(Vec3 a, Vec3 b) { return {a.x / b.x, a.y / b.y, a.z / b.z}; }
  friend constexpr Vec3 operator*(Vec3 a, float s) { return {a.x * s, a.y * s, a.z * s}; }
  friend constexpr Vec3 operator*(float s, Vec3 a) { return a * s; }
  friend constexpr Vec3 operator/(Vec3 a, float s) { return {a.x / s, a.y / s, a.z / s}; }
  friend constexpr bool operator==(Vec3 a, Vec3 b) { return a.x == b.x && a.y == b.y && a.z == b.z; }
};

constexpr float dot(Vec3 a, Vec3 b) { return a.x * b.x + a.y * b.y + a.z * b.z; }

constexpr Vec3 cross(Vec3 a, Vec3 b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

inline float length(Vec3 v) { return std::sqrt(dot(v, v)); }
constexpr float length_squared(Vec3 v) { return dot(v, v); }

inline Vec3 normalize(Vec3 v) {
  const float len = length(v);
  return len > 0.0f ? v / len : Vec3{0.0f, 0.0f, 0.0f};
}

constexpr Vec3 min(Vec3 a, Vec3 b) {
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::min(a.z, b.z)};
}
constexpr Vec3 max(Vec3 a, Vec3 b) {
  return {std::max(a.x, b.x), std::max(a.y, b.y), std::max(a.z, b.z)};
}
constexpr Vec3 clamp(Vec3 v, Vec3 lo, Vec3 hi) { return min(max(v, lo), hi); }
constexpr float clampf(float v, float lo, float hi) { return v < lo ? lo : (v > hi ? hi : v); }
constexpr Vec3 lerp(Vec3 a, Vec3 b, float t) { return a + (b - a) * t; }
constexpr float lerpf(float a, float b, float t) { return a + (b - a) * t; }

/// static_cast<int>(std::floor(x)) without the libm call: truncate, then
/// step down when truncation rounded a negative fraction up. Exact for
/// |x| < 2^31 (the truncated value is an integer-valued float, so the
/// int -> float round trip is exact).
inline int floor_to_int(float x) {
  const int i = static_cast<int>(x);
  return x < static_cast<float>(i) ? i - 1 : i;
}

inline std::ostream& operator<<(std::ostream& os, Vec3 v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

/// 4-component float vector (CUDA float4 analogue).
struct Vec4 {
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;
  float w = 0.0f;

  constexpr Vec4() = default;
  constexpr Vec4(float vx, float vy, float vz, float vw) : x(vx), y(vy), z(vz), w(vw) {}
  constexpr Vec4(Vec3 v, float vw) : x(v.x), y(v.y), z(v.z), w(vw) {}

  constexpr Vec3 xyz() const { return {x, y, z}; }

  friend constexpr Vec4 operator+(Vec4 a, Vec4 b) {
    return {a.x + b.x, a.y + b.y, a.z + b.z, a.w + b.w};
  }
  friend constexpr Vec4 operator-(Vec4 a, Vec4 b) {
    return {a.x - b.x, a.y - b.y, a.z - b.z, a.w - b.w};
  }
  friend constexpr Vec4 operator*(Vec4 a, float s) { return {a.x * s, a.y * s, a.z * s, a.w * s}; }
  friend constexpr Vec4 operator*(float s, Vec4 a) { return a * s; }
  friend constexpr bool operator==(Vec4 a, Vec4 b) {
    return a.x == b.x && a.y == b.y && a.z == b.z && a.w == b.w;
  }
};

constexpr float dot(Vec4 a, Vec4 b) { return a.x * b.x + a.y * b.y + a.z * b.z + a.w * b.w; }
constexpr Vec4 lerp(Vec4 a, Vec4 b, float t) { return a + (b - a) * t; }

inline std::ostream& operator<<(std::ostream& os, Vec4 v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ", " << v.w << ")";
}

/// Integer 3-vector for voxel coordinates, brick indices and grid dims.
struct Int3 {
  int x = 0;
  int y = 0;
  int z = 0;

  constexpr Int3() = default;
  constexpr Int3(int vx, int vy, int vz) : x(vx), y(vy), z(vz) {}
  constexpr explicit Int3(int v) : x(v), y(v), z(v) {}

  constexpr int operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }
  int& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }

  friend constexpr Int3 operator+(Int3 a, Int3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
  friend constexpr Int3 operator-(Int3 a, Int3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
  friend constexpr Int3 operator*(Int3 a, int s) { return {a.x * s, a.y * s, a.z * s}; }
  friend constexpr bool operator==(Int3 a, Int3 b) { return a.x == b.x && a.y == b.y && a.z == b.z; }
  friend constexpr bool operator!=(Int3 a, Int3 b) { return !(a == b); }

  /// Total element count, as 64-bit to survive 1024^3-scale volumes.
  constexpr std::int64_t volume() const {
    return static_cast<std::int64_t>(x) * y * z;
  }
};

constexpr Vec3 to_vec3(Int3 v) {
  return {static_cast<float>(v.x), static_cast<float>(v.y), static_cast<float>(v.z)};
}

constexpr Int3 min(Int3 a, Int3 b) {
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::min(a.z, b.z)};
}
constexpr Int3 max(Int3 a, Int3 b) {
  return {std::max(a.x, b.x), std::max(a.y, b.y), std::max(a.z, b.z)};
}

/// Ceiling division, used for brick-grid and kernel-grid sizing.
constexpr int ceil_div(int a, int b) { return (a + b - 1) / b; }
constexpr std::int64_t ceil_div64(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

inline std::ostream& operator<<(std::ostream& os, Int3 v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

}  // namespace vrmr
