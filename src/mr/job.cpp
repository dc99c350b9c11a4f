#include "mr/job.hpp"

namespace vrmr::mr {

const char* to_string(BarrierMode mode) {
  switch (mode) {
    case BarrierMode::Global: return "global";
    case BarrierMode::PerReducer: return "per-reducer";
  }
  return "?";
}

void JobConfig::validate() const {
  VRMR_CHECK_MSG(value_size > 0, "JobConfig.value_size must be set");
  VRMR_CHECK_MSG(domain.num_keys > 0, "JobConfig.domain.num_keys must be set");
  if (partition == PartitionStrategy::Tiled) {
    VRMR_CHECK_MSG(domain.image_width > 0, "Tiled partitioning needs image_width");
  }
}

}  // namespace vrmr::mr
