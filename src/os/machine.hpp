// Machine: wires memory, bus, caches, the out-of-order core, and (optionally)
// the RSE framework with its four hardware modules into one simulated system.
//
// The cache hierarchy and latencies follow the paper's simulation setup
// (Figure 1 parameters + section 5.2): il1/dl1 8 KB direct-mapped, il2 64 KB
// 2-way, dl2 128 KB 2-way; pipelined memory with an 18-cycle first chunk and
// 2-cycle inter-chunk latency on the baseline machine, 19/3 when the RSE is
// present (the memory arbiter adds one cycle to each).
#pragma once

#include <memory>

#include "cpu/core.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "modules/ahbm/ahbm.hpp"
#include "modules/cfc/cfc.hpp"
#include "modules/ddt/ddt.hpp"
#include "modules/icm/icm.hpp"
#include "modules/mlr/mlr.hpp"
#include "rse/framework.hpp"

namespace rse::os {

struct MachineConfig {
  cpu::CoreConfig core;
  mem::CacheConfig il1{"il1", 8 * 1024, 1, 32, 1};
  mem::CacheConfig dl1{"dl1", 8 * 1024, 1, 32, 1};
  mem::CacheConfig il2{"il2", 64 * 1024, 2, 64, 6};
  mem::CacheConfig dl2{"dl2", 128 * 1024, 2, 64, 6};
  mem::BusTiming bus_baseline{18, 2, 8};
  mem::BusTiming bus_with_rse{19, 3, 8};

  /// Instantiate the RSE framework (arbiter penalty applies even with no
  /// module enabled — the Table 4 "Framework" configuration).
  bool framework_present = false;

  engine::SelfCheckConfig selfcheck{};
  modules::IcmConfig icm{};
  modules::MlrConfig mlr{};
  modules::DdtConfig ddt{};
  modules::AhbmConfig ahbm{};
  modules::CfcConfig cfc{};

  bool operator==(const MachineConfig&) const = default;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = MachineConfig{});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  mem::MainMemory& memory() { return memory_; }
  mem::BusArbiter& bus() { return bus_; }
  mem::Cache& il1() { return *il1_; }
  mem::Cache& dl1() { return *dl1_; }
  mem::Cache& il2() { return *il2_; }
  mem::Cache& dl2() { return *dl2_; }
  cpu::Core& core() { return *core_; }

  /// Null when framework_present == false.
  engine::Framework* framework() { return framework_.get(); }
  modules::IcmModule* icm() { return icm_; }
  modules::MlrModule* mlr() { return mlr_; }
  modules::DdtModule* ddt() { return ddt_; }
  modules::AhbmModule* ahbm() { return ahbm_; }
  modules::CfcModule* cfc() { return cfc_; }

  Cycle now() const { return now_; }

  /// Advance the whole machine by one cycle.
  void step() {
    ++now_;
    core_->cycle(now_);
    if (framework_) framework_->tick(now_);
  }

  /// Jump the machine clock forward without cycling any component — used by
  /// the fast-forward controller when transplanting fast-mode state into the
  /// cycle-accurate core.  Only legal while the core's RUU is empty and no
  /// module holds pending work (the controller guarantees both); never moves
  /// the clock backwards.
  void warp_to(Cycle target) {
    if (target > now_) now_ = target;
  }

  const MachineConfig& config() const { return config_; }

 private:
  MachineConfig config_;
  mem::MainMemory memory_;
  mem::BusArbiter bus_;
  mem::BusMemory pipeline_port_;
  std::unique_ptr<mem::Cache> il2_;
  std::unique_ptr<mem::Cache> dl2_;
  std::unique_ptr<mem::Cache> il1_;
  std::unique_ptr<mem::Cache> dl1_;
  std::unique_ptr<engine::Framework> framework_;
  modules::IcmModule* icm_ = nullptr;
  modules::MlrModule* mlr_ = nullptr;
  modules::DdtModule* ddt_ = nullptr;
  modules::AhbmModule* ahbm_ = nullptr;
  modules::CfcModule* cfc_ = nullptr;
  std::unique_ptr<cpu::Core> core_;
  Cycle now_ = 0;
};

}  // namespace rse::os
