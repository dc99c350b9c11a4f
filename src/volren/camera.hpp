#pragma once

// Perspective pinhole camera: generates the per-pixel rays the map
// kernel casts (§2.1: "for each screen pixel on the plane, a single ray
// is traversed from the eye into the volume") and projects brick
// corners to find each chunk's screen-space footprint (§3.2: "the grid
// is made to match the size of the sub-image onto which the current
// chunk projects").

#include "util/aabb.hpp"
#include "util/mat4.hpp"
#include "util/simd.hpp"
#include "util/vec.hpp"

namespace vrmr::volren {

/// Axis-aligned integer pixel rectangle [x0, x1) × [y0, y1).
struct PixelRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  bool empty() const { return x1 <= x0 || y1 <= y0; }
  std::int64_t pixels() const {
    return static_cast<std::int64_t>(width()) * height();
  }
};

class Camera {
 public:
  Camera() = default;

  /// `fovy` in radians; image dimensions in pixels.
  Camera(Vec3 eye, Vec3 target, Vec3 up, float fovy, int image_width, int image_height,
         float znear = 0.05f, float zfar = 100.0f);

  /// Orbiting camera around `box`, a turn of `azimuth`/`elevation`
  /// radians at `distance` multiples of the box diagonal.
  static Camera orbit(const Aabb& box, float azimuth, float elevation, float distance,
                      float fovy, int image_width, int image_height);

  int width() const { return width_; }
  int height() const { return height_; }
  Vec3 eye() const { return eye_; }

  /// World-space ray through the center of pixel (px, py); direction is
  /// normalized, so ray parameters are world distances.
  Ray pixel_ray(int px, int py) const;

  /// Directions of pixel_ray(px0 + i, py) in lane i = 0..3, each lane
  /// computed with the same IEEE operations as pixel_ray (which starts
  /// every ray at eye()).
  simd::F4x3 pixel_dirs(int px0, int py) const;

  /// Project a world point to pixel coordinates; returns false when the
  /// point is behind the near plane.
  bool project(Vec3 world, Vec3* pixel_depth) const;

  /// Conservative screen rectangle covering `box`'s projection, clipped
  /// to the image; the whole image when the box straddles the near
  /// plane. Returns an empty rect when fully off-screen.
  PixelRect project_box(const Aabb& box) const;

 private:
  Vec3 eye_{0, 0, 2};
  Vec3 forward_{0, 0, -1};
  Vec3 right_{1, 0, 0};
  Vec3 up_{0, 1, 0};
  float tan_half_fovy_ = 0.5f;
  float aspect_ = 1.0f;
  int width_ = 512;
  int height_ = 512;
  Mat4 view_proj_ = Mat4::identity();
  float znear_ = 0.05f;
};

}  // namespace vrmr::volren
