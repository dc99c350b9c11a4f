#include "volren/camera.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace vrmr::volren {

Camera::Camera(Vec3 eye, Vec3 target, Vec3 up, float fovy, int image_width,
               int image_height, float znear, float zfar) {
  VRMR_CHECK(image_width > 0 && image_height > 0);
  VRMR_CHECK(fovy > 0.0f);
  eye_ = eye;
  forward_ = normalize(target - eye);
  right_ = normalize(cross(forward_, up));
  up_ = cross(right_, forward_);
  tan_half_fovy_ = std::tan(fovy * 0.5f);
  width_ = image_width;
  height_ = image_height;
  aspect_ = static_cast<float>(image_width) / static_cast<float>(image_height);
  znear_ = znear;
  view_proj_ = Mat4::perspective(fovy, aspect_, znear, zfar) *
               Mat4::look_at(eye, target, up);
}

Camera Camera::orbit(const Aabb& box, float azimuth, float elevation, float distance,
                     float fovy, int image_width, int image_height) {
  const Vec3 center = box.center();
  const float diag = length(box.extent());
  const float d = distance * diag;
  const Vec3 eye{center.x + d * std::cos(elevation) * std::sin(azimuth),
                 center.y + d * std::sin(elevation),
                 center.z + d * std::cos(elevation) * std::cos(azimuth)};
  return Camera(eye, center, Vec3{0, 1, 0}, fovy, image_width, image_height,
                0.01f * diag, 10.0f * d + diag);
}

Ray Camera::pixel_ray(int px, int py) const {
  // Pixel centers; NDC y grows upward while pixel y grows downward.
  const float ndc_x =
      (2.0f * (static_cast<float>(px) + 0.5f) / static_cast<float>(width_)) - 1.0f;
  const float ndc_y =
      1.0f - (2.0f * (static_cast<float>(py) + 0.5f) / static_cast<float>(height_));
  const Vec3 dir = forward_ + right_ * (ndc_x * tan_half_fovy_ * aspect_) +
                   up_ * (ndc_y * tan_half_fovy_);
  return Ray{eye_, normalize(dir)};
}

simd::F4x3 Camera::pixel_dirs(int px0, int py) const {
  using simd::F4;
  const F4 px = simd::to_float(simd::I4(px0) + simd::I4(0, 1, 2, 3));
  const F4 ndc_x =
      (F4(2.0f) * (px + F4(0.5f)) / F4(static_cast<float>(width_))) - F4(1.0f);
  const float ndc_y =
      1.0f - (2.0f * (static_cast<float>(py) + 0.5f) / static_cast<float>(height_));
  const F4 sx = ndc_x * F4(tan_half_fovy_) * F4(aspect_);
  const float sy = ndc_y * tan_half_fovy_;
  const simd::F4x3 dir{F4(forward_.x) + F4(right_.x) * sx + F4(up_.x * sy),
                       F4(forward_.y) + F4(right_.y) * sx + F4(up_.y * sy),
                       F4(forward_.z) + F4(right_.z) * sx + F4(up_.z * sy)};
  // normalize(): v / length(v), or zero when the length is not positive.
  const F4 len = simd::sqrt(dir.x * dir.x + dir.y * dir.y + dir.z * dir.z);
  const F4 positive = len > F4(0.0f);
  return {simd::select(positive, dir.x / len, F4(0.0f)),
          simd::select(positive, dir.y / len, F4(0.0f)),
          simd::select(positive, dir.z / len, F4(0.0f))};
}

bool Camera::project(Vec3 world, Vec3* pixel_depth) const {
  // Depth along the viewing direction (camera space -z).
  const float view_z = dot(world - eye_, forward_);
  if (view_z < znear_) return false;
  const Vec3 ndc = view_proj_.transform_point(world);
  if (pixel_depth) {
    pixel_depth->x = (ndc.x + 1.0f) * 0.5f * static_cast<float>(width_);
    pixel_depth->y = (1.0f - ndc.y) * 0.5f * static_cast<float>(height_);
    pixel_depth->z = view_z;
  }
  return true;
}

PixelRect Camera::project_box(const Aabb& box) const {
  float min_x = std::numeric_limits<float>::max();
  float min_y = std::numeric_limits<float>::max();
  float max_x = std::numeric_limits<float>::lowest();
  float max_y = std::numeric_limits<float>::lowest();
  bool any_behind = false;

  for (int corner = 0; corner < 8; ++corner) {
    const Vec3 p{(corner & 1) ? box.hi.x : box.lo.x, (corner & 2) ? box.hi.y : box.lo.y,
                 (corner & 4) ? box.hi.z : box.lo.z};
    Vec3 pd;
    if (!project(p, &pd)) {
      any_behind = true;
      continue;
    }
    min_x = std::min(min_x, pd.x);
    min_y = std::min(min_y, pd.y);
    max_x = std::max(max_x, pd.x);
    max_y = std::max(max_y, pd.y);
  }

  PixelRect rect;
  if (any_behind) {
    // Conservative: a box crossing the near plane covers an unbounded
    // projection; fall back to the full image.
    rect = PixelRect{0, 0, width_, height_};
    return rect;
  }
  if (min_x > max_x || min_y > max_y) return rect;  // empty

  rect.x0 = std::clamp(static_cast<int>(std::floor(min_x)), 0, width_);
  rect.y0 = std::clamp(static_cast<int>(std::floor(min_y)), 0, height_);
  rect.x1 = std::clamp(static_cast<int>(std::ceil(max_x)) + 1, 0, width_);
  rect.y1 = std::clamp(static_cast<int>(std::ceil(max_y)) + 1, 0, height_);
  return rect;
}

}  // namespace vrmr::volren
