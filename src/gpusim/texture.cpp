#include "gpusim/texture.hpp"

namespace vrmr::gpusim {

Texture3D::Texture3D(Device& device, Int3 dims, std::uint64_t accounted_bytes)
    : dims_(dims) {
  VRMR_CHECK_MSG(dims.x > 0 && dims.y > 0 && dims.z > 0, "bad texture dims " << dims);
  vram_ = device.allocate(accounted_bytes == 0 ? bytes() : accounted_bytes, "texture3d");
}

void Texture3D::upload(std::span<const float> voxels) {
  upload(std::make_shared<const std::vector<float>>(voxels.begin(), voxels.end()));
}

void Texture3D::upload(std::shared_ptr<const std::vector<float>> voxels) {
  VRMR_CHECK(voxels != nullptr);
  VRMR_CHECK_MSG(voxels->size() == static_cast<size_t>(dims_.volume()),
                 "upload size " << voxels->size() << " != extent " << dims_.volume());
  data_ = std::move(voxels);
  texels_ = data_->data();
}

Texture1D::Texture1D(Device& device, int entries) {
  VRMR_CHECK(entries > 0);
  data_.assign(static_cast<size_t>(entries), Vec4{});
  vram_ = device.allocate(bytes(), "texture1d");
}

void Texture1D::upload(std::span<const Vec4> texels) {
  VRMR_CHECK_MSG(texels.size() == data_.size(),
                 "upload size " << texels.size() << " != entries " << data_.size());
  std::copy(texels.begin(), texels.end(), data_.begin());
}

}  // namespace vrmr::gpusim
