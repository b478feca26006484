// Whole-machine snapshot/restore for the campaign engine's checkpoint-fork
// injection path (and any other consumer that wants to fork a simulation).
//
// A MachineSnapshot is the complete *value* state of a quiescent machine +
// guest-OS pair: the sparse memory image, core pipeline context, cache/bus
// timing state, the RSE framework (IOQ, MAU horizon, latched events,
// self-check state) and all five modules, plus the OS scheduler,
// threads, network, DDT SavePage history (the CheckpointStore — note that
// store alone is *not* a machine checkpoint; see src/os/checkpoint.hpp) and
// statistics.
//
// Restore is not hydration from nothing: the target must be a machine/OS
// pair constructed with the same MachineConfig/OsConfig that has load()ed
// the same program and enabled the same modules.  That reconstructs all
// wiring — interconnect pointers, module handler lambdas, the program
// analysis — and restore then overwrites every value-state member, making
// the pair bit-identical to the captured one.  A forked run then steps
// exactly like an uninterrupted run (the determinism contract
// tests/campaign/snapshot_property_test.cpp asserts).
//
// Capture requires quiescence: the MAU's in-flight requests hold raw
// module-buffer pointers and completion callbacks that cannot be
// serialized, so a capture point must satisfy quiescent() — callers step
// the machine until it does (bounded; see CampaignRunner).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"

namespace rse::os {

struct MachineSnapshot {
  Cycle at = 0;             // machine cycle the state was captured at
  std::vector<u8> bytes;    // serialized value state (snap::Writer image)

  bool empty() const { return bytes.empty(); }

  /// True when the machine holds no unserializable in-flight work: the MAU
  /// is idle and no module is mid-operation with a callback outstanding
  /// (ICM CheckerMemory fill, MLR blocking-op state machine).  Machines
  /// without a framework are always quiescent.
  static bool quiescent(Machine& machine);

  /// Serialize the full value state.  Precondition: quiescent(machine).
  static MachineSnapshot capture(Machine& machine, GuestOs& guest);

  /// Overwrite `machine`/`guest` with the captured state.  Precondition:
  /// the pair was constructed with the same configs, load()ed the same
  /// program, had the same modules enabled, and has not been stepped past
  /// the capture cycle.  Throws SimError on archive/precondition mismatch.
  static void restore(const MachineSnapshot& snapshot, Machine& machine, GuestOs& guest);

  /// FNV-1a digest over the sparse memory image (test helper: cheap
  /// bit-identity evidence without holding two full machines alive).
  static u64 memory_digest(const mem::MainMemory& memory);
};

}  // namespace rse::os
