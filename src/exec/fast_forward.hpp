// FastForwardController: the switchover driver between the fast functional
// engine and the cycle-accurate core (docs/execution.md).
//
// A fault-injection campaign addresses injection points in *cycles*, but the
// fast engine advances in *instructions*.  The controller bridges the two
// with one instrumented cycle-accurate replay of the fault-free run: it
// samples cpu::Core::functional_pos() at every requested cycle, plus the
// pipeline's in-flight address ranges, which decide memory-word-fault
// eligibility.  Each injected run then fast-executes to its position,
// transplants the architectural state into the core, and runs the injection
// window and everything after it fully modeled.  A prefix that meets a
// syscall outside the strict whitelist bails, and the run starts again from
// reset.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "exec/fast_session.hpp"
#include "isa/program.hpp"
#include "os/guest_os.hpp"

namespace rse::exec {

class FastForwardController {
 public:
  /// Everything one instrumented replay learns about an injection cycle.
  struct Boundary {
    /// Functional-stream position at the cycle (see functional_pos()).
    u64 position = 0;
    /// Guest-address ranges the pipeline held in flight at the cycle: the
    /// PC of every fetched/undispatched and in-RUU instruction, and the
    /// byte range of every dispatched-but-uncommitted store.  A memory word
    /// flipped at this cycle is invisible to those in the classic run (the
    /// clean word was captured earlier, or will be overwritten at store
    /// commit), while the fast prefix — which has no pipeline — would
    /// observe the flip; overlapping memory-word faults are ineligible.
    std::vector<std::pair<Addr, u32>> inflight;

    bool conflicts(Addr addr, u32 size) const {
      for (const auto& [lo, len] : inflight) {
        if (addr < lo + len && lo < addr + size) return true;
      }
      return false;
    }
  };

  /// inject cycle -> boundary at that cycle.  Cycles at which the
  /// fault-free run has already finished get no entry — a fault there would
  /// never be applied, and the caller falls back to the classic path.
  using BoundaryMap = std::map<Cycle, Boundary>;

  /// Unused; it stays only because perfbench/ names it.
  using SyscallSchedule = std::map<u64, Cycle>;

  /// One instrumented cycle-accurate replay over a freshly loaded guest.
  /// The stepping loop replicates the classic injected-run loop
  /// ("step while now < inject_cycle"), so the sampled position is taken at
  /// exactly the machine state a classic run applies its fault in.  The
  /// `schedule` parameter is unused; it stays only because perfbench/
  /// passes it.
  static BoundaryMap map_boundaries(os::GuestOs& guest, std::vector<Cycle> cycles,
                                    SyscallSchedule* schedule = nullptr);

  /// Fast-forward a freshly loaded guest to `position` through a strict
  /// session and transplant at `inject_cycle`.  Returns false when fast
  /// mode could not reach the position — the caller must then rerun
  /// classically; the guest is not reusable.  On failure `bail` (when
  /// non-null) receives the reason for fallback accounting.  The `schedule`
  /// parameter is unused; it stays only because perfbench/ passes it.
  static bool fast_forward_to(os::GuestOs& guest, const isa::Program& program, u64 position,
                              Cycle inject_cycle, const SyscallSchedule* schedule = nullptr,
                              FastSession::BailReason* bail = nullptr);
};

}  // namespace rse::exec
