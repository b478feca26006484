// Campaign workload registry: named, fully configured guest programs that a
// fault-injection campaign can target.  Each setup bundles the instrumented
// assembly source with the machine/OS configuration and the modules the
// loader enables host-side, so golden and faulty runs are built identically.
#pragma once

#include <memory>
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

  bool operator==(const WorkloadSetup&) const = default;
};

/// A fresh machine and guest OS with `program` loaded and the setup's
/// modules enabled, bounded by `run_limit` cycles: how every golden run,
/// faulty run, boundary replay and snapshot pass starts.  A non-null
/// `analysis` is the program's load analysis under the setup (a campaign's
/// GoldenRun::analysis), handed to GuestOs::load in place of an analyzer run.
struct BootedGuest {
  os::Machine machine;
  os::GuestOs guest;

  BootedGuest(const WorkloadSetup& setup, const isa::Program& program, Cycle run_limit,
              std::shared_ptr<const analysis::AnalysisResult> analysis = nullptr);
};

/// Build a named workload.  Known names: "loop" (small checked loop,
/// thousands of cycles — the unit-test workhorse), "calls" (call/return
/// dominated leaf functions — the static-CFC showcase), "kmeans"
/// (reduced-size clustering, the campaign default), "kmeans-large"
/// (paper-sized kMeans), "server" (multithreaded network server with DDT
/// tracking).
/// Throws ConfigError on an unknown name.
WorkloadSetup make_workload(const std::string& name);

/// Every name make_workload builds, in listing order (one table backs both).
std::vector<std::string> workload_names();

}  // namespace rse::campaign
