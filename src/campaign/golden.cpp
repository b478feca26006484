#include "campaign/golden.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"

namespace rse::campaign {

namespace {

/// A golden run's load-time inputs: the assembled program and its static
/// analysis, each computed once here and handed to every later load.
GoldenRun assembled(const WorkloadSetup& setup) {
  GoldenRun golden;
  golden.program = isa::assemble(setup.source);
  golden.analysis = os::load_analysis(golden.program, setup.os);
  return golden;
}

}  // namespace

GoldenRun simulate_golden(const WorkloadSetup& setup) {
  GoldenRun golden = assembled(setup);

  BootedGuest boot(setup, golden.program, setup.os.run_limit, golden.analysis);
  os::Machine& machine = boot.machine;
  os::GuestOs& guest = boot.guest;
  guest.run();
  if (!guest.finished()) {
    throw ConfigError("golden run of workload '" + setup.name + "' hit the run limit");
  }

  golden.output = guest.output();
  golden.exit_code = guest.exit_code();
  golden.cycles = machine.now();
  golden.instructions = machine.core().stats().instructions;
  if (auto* icm = machine.icm()) golden.icm_mismatches = icm->stats().mismatches;
  if (auto* cfc = machine.cfc()) golden.cfc_violations = cfc->stats().violations;
  if (auto* fw = machine.framework()) golden.selfcheck_trips = fw->stats().selfcheck_trips;
  if (auto* ddt = machine.ddt()) {
    golden.ddt_footprint_violations = ddt->stats().footprint_violations;
  }
  golden.os_recoveries = guest.stats().recoveries;
  golden.ioq_slots = setup.machine.core.ruu_size;
  return golden;
}

GoldenRun simulate_golden_fast(const WorkloadSetup& setup) {
  GoldenRun golden = assembled(setup);

  BootedGuest boot(setup, golden.program, setup.os.run_limit, golden.analysis);
  os::Machine& machine = boot.machine;
  os::GuestOs& guest = boot.guest;

  exec::FastSession session(guest, exec::FastSessionConfig{/*relaxed=*/true});
  session.seed_leaders(golden.program);
  // Outside fast mode's envelope (threads, network I/O, crash recovery) the
  // cycle-accurate machine finishes the run: output and exit state stay
  // exact, only timing is hybrid.
  session.run_to_end();
  if (!guest.finished()) {
    throw ConfigError("fast golden run of workload '" + setup.name + "' hit the run limit");
  }

  golden.output = guest.output();
  golden.exit_code = guest.exit_code();
  golden.cycles = std::max<Cycle>(machine.now(), session.virtual_now());
  // Match CoreStats::instructions, which reports CHKs separately.
  golden.instructions = session.executed() - session.engine().chks_executed() +
                        machine.core().stats().instructions;
  golden.ioq_slots = setup.machine.core.ruu_size;
  return golden;
}

std::shared_ptr<const GoldenRun> GoldenCache::get(const WorkloadSetup& setup) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : runs_) {
    if (entry.setup == setup) {
      ++hits_;
      return entry.golden;
    }
  }
  ++misses_;
  auto golden = std::make_shared<const GoldenRun>(simulate_golden(setup));
  runs_.push_back(Entry{setup, golden});
  return golden;
}

}  // namespace rse::campaign
