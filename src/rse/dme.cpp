#include "rse/dme.hpp"

#include <utility>

#include "exec/fast_session.hpp"

namespace rse::dme {

namespace {

/// Run `guest` to its end with `observer` on the core's commit observer,
/// and remove the observer again on the way out, thrown or not.
void run_observed(os::GuestOs& guest, const isa::Program& program, bool prefer_fast,
                  cpu::Core::CommitObserver observer) {
  cpu::Core& core = guest.machine().core();
  core.set_commit_observer(std::move(observer));
  struct Uninstall {
    cpu::Core& core;
    ~Uninstall() { core.set_commit_observer(nullptr); }
  } uninstall{core};
  if (prefer_fast) {
    // Second consumer of the fast-path engine: the fault-free variant body
    // runs functionally, and any bail (non-whitelisted syscall, threads,
    // illegal word) transplants into the cycle-accurate core, which keeps
    // feeding the same observer.
    exec::FastSession session(guest, exec::FastSessionConfig{});
    session.seed_leaders(program);
    session.run_to_end();
  } else {
    guest.run();
  }
}

}  // namespace

CanonicalTrace record_trace(os::GuestOs& guest, const isa::Program& program) {
  CanonicalTrace trace;
  run_observed(guest, program, /*prefer_fast=*/true,
               [map = RegionMap::of(guest), &trace](Cycle, const engine::CommitInfo& info) {
                 if (trace.records.size() >= kMaxRecords) {
                   trace.truncated = true;
                   return;
                 }
                 trace.records.push_back(make_record(map, info));
               });
  return trace;
}

TraceChecker check_trace(os::GuestOs& guest, const isa::Program& program,
                         const CanonicalTrace& reference, bool prefer_fast) {
  TraceChecker checker(&reference, RegionMap::of(guest));
  run_observed(guest, program, prefer_fast,
               [&checker](Cycle, const engine::CommitInfo& info) { checker.push(info); });
  checker.finish_clean();
  return checker;
}

}  // namespace rse::dme
