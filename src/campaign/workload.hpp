// Campaign workload registry: named, fully configured guest programs that a
// fault-injection campaign can target.  Each setup bundles the instrumented
// assembly source with the machine/OS configuration and the modules the
// loader enables host-side, so golden and faulty runs are built identically.
#pragma once

#include <string>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/program.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"

namespace rse::campaign {

struct WorkloadSetup {
  std::string name;
  std::string source;  // assembly, already CHECK-instrumented
  os::MachineConfig machine;
  os::OsConfig os;
  std::vector<isa::ModuleId> host_enables;  // enabled after load (as a loader would)
};

/// A fresh machine and guest OS with `program` loaded and the setup's
/// modules enabled, bounded by `run_limit` cycles: how every golden run,
/// faulty run, boundary replay and snapshot pass starts.
struct BootedGuest {
  os::Machine machine;
  os::GuestOs guest;

  BootedGuest(const WorkloadSetup& setup, const isa::Program& program, Cycle run_limit);
};

/// Build a named workload.  Known names: "loop" (small checked loop,
/// thousands of cycles — the unit-test workhorse), "calls" (call/return
/// dominated leaf functions — the static-CFC showcase), "kmeans"
/// (reduced-size clustering, the campaign default), "kmeans-large"
/// (paper-sized kMeans), "server" (multithreaded network server with DDT
/// tracking).
/// Throws ConfigError on an unknown name.
WorkloadSetup make_workload(const std::string& name);

std::vector<std::string> workload_names();

}  // namespace rse::campaign
