#include "hybrid/pool.hpp"

#include <string>

#include "common/error.hpp"

namespace fth::hybrid {

DevicePool::DevicePool(PoolConfig cfg) {
  FTH_CHECK(cfg.devices >= 1, "a device pool needs at least one device");
  devs_.reserve(static_cast<std::size_t>(cfg.devices));
  for (int d = 0; d < cfg.devices; ++d) {
    DeviceConfig dc = cfg.device;
    dc.ordinal = d;
    if (dc.team_size == 0) dc.team_size = Team::default_size(cfg.devices);
    dc.name = cfg.device.name + " #" + std::to_string(d);
    devs_.push_back(std::make_unique<Device>(std::move(dc)));
  }
}

}  // namespace fth::hybrid
