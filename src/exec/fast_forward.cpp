#include "exec/fast_forward.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rse::exec {

FastForwardController::BoundaryMap FastForwardController::map_boundaries(
    os::GuestOs& guest, std::vector<Cycle> cycles, SyscallSchedule* schedule) {
  std::sort(cycles.begin(), cycles.end());
  cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());

  cpu::Core& core = guest.machine().core();
  if (schedule != nullptr) {
    // The hook fires before commit advances functional_pos() past the
    // syscall, so the key equals FastEngine::executed() at the moment a
    // fast prefix stops ON the same syscall.
    core.set_commit_observer([&core, schedule](Cycle now, const engine::CommitInfo& info) {
      if (info.instr.op == isa::Op::kSyscall) (*schedule)[core.functional_pos()] = now;
    });
  }

  BoundaryMap map;
  for (const Cycle cycle : cycles) {
    // A guest that finished or reached its run limit never applies a fault
    // at this cycle or any later one.
    if (!guest.run_until(cycle)) break;
    Boundary boundary;
    boundary.position = core.functional_pos();
    boundary.inflight = core.inflight_ranges();
    map.emplace(cycle, std::move(boundary));
  }
  if (schedule != nullptr) core.set_commit_observer(nullptr);
  return map;
}

bool FastForwardController::fast_forward_to(os::GuestOs& guest, const isa::Program& program,
                                            u64 position, Cycle inject_cycle,
                                            const SyscallSchedule* schedule,
                                            FastSession::BailReason* bail) {
  FastSessionConfig config;  // strict syscall whitelist
  config.syscall_schedule = schedule;
  FastSession session(guest, config);
  session.seed_leaders(program);
  FastSession::Status status;
  try {
    status = session.run_until(position);
  } catch (const SimError&) {
    // A host-side trap in the fault-free prefix cannot happen on the
    // classic path (the golden run completed); treat it as a bail so the
    // classic rerun decides.
    if (bail != nullptr) *bail = FastSession::BailReason::kIllegal;
    return false;
  }
  if (status != FastSession::Status::kBoundary || session.executed() != position) {
    if (bail != nullptr) *bail = session.bail_reason();
    return false;
  }
  session.transplant(inject_cycle);
  return true;
}

}  // namespace rse::exec
