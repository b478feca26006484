// Shared test/bench helper: assemble a guest program, run it on a configured
// machine under the guest OS, and expose the pieces for inspection.
#pragma once

#include <string>

#include "exec/fast_forward.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"

namespace rse::testing {

class SimRunner {
 public:
  explicit SimRunner(os::MachineConfig machine_config = {}, os::OsConfig os_config = {})
      : machine_(machine_config), os_(machine_, os_config) {}

  /// Assemble and load a program (does not run it yet).
  void load_source(const std::string& source) {
    program_ = isa::assemble(source);
    os_.load(program_);
  }

  void run() { os_.run(); }

  os::Machine& machine() { return machine_; }
  os::GuestOs& os() { return os_; }
  const isa::Program& program() const { return program_; }

  Cycle cycles() const { return machine_.now(); }
  const cpu::CoreStats& core_stats() { return machine_.core().stats(); }

 private:
  os::Machine machine_;
  os::GuestOs os_;
  isa::Program program_;
};

/// Convenience: run `source` to completion on a default machine and return
/// the guest's printed output.
inline std::string run_for_output(const std::string& source) {
  SimRunner runner;
  runner.load_source(source);
  runner.run();
  return runner.os().output();
}

/// The syscall schedule of `source`'s classic run on a default machine,
/// recorded by FastForwardController::map_boundaries on a replay to the
/// end: every syscall's classic commit cycle.  A FastSession armed with it
/// runs each non-whitelisted syscall as an excursion at that cycle.
inline exec::FastForwardController::SyscallSchedule classic_schedule(const std::string& source) {
  SimRunner replay;
  replay.load_source(source);
  exec::FastForwardController::SyscallSchedule schedule;
  exec::FastForwardController::map_boundaries(replay.os(), {replay.os().config().run_limit},
                                              &schedule);
  return schedule;
}

}  // namespace rse::testing
