// The golden run's static analysis (GoldenRun::analysis): computed once with
// the golden run, handed to every boot of a campaign, and installed by the
// loader in place of its own analyzer run.  Loads without a handed result
// keep analysing for themselves.
#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"

namespace rse::campaign {
namespace {

WorkloadSetup static_setup(const char* workload) {
  CampaignSpec spec;
  spec.workload = workload;
  spec.static_cfc = true;
  spec.static_ddt = true;
  return CampaignRunner::setup_for(spec);
}

TEST(SharedAnalysis, BootedGuestInstallsTheGoldenRunsResult) {
  GoldenCache cache;
  const WorkloadSetup setup = static_setup("calls");
  const std::shared_ptr<const GoldenRun> golden = cache.get(setup);
  ASSERT_NE(golden->analysis, nullptr);
  // The shared result is the one the loader would compute for this setup.
  EXPECT_EQ(analysis::to_json(golden->program, *golden->analysis),
            analysis::to_json(golden->program, *os::load_analysis(golden->program, setup.os)));

  BootedGuest boot(setup, golden->program, setup.os.run_limit, golden->analysis);
  EXPECT_EQ(boot.guest.program_analysis(), golden->analysis.get());
  ASSERT_NE(boot.machine.ddt(), nullptr);
  EXPECT_TRUE(boot.machine.ddt()->has_footprint());
  boot.guest.run();
  EXPECT_TRUE(boot.guest.finished());
  EXPECT_EQ(boot.guest.output(), golden->output);
  EXPECT_EQ(boot.machine.now(), golden->cycles);
  EXPECT_GT(boot.machine.cfc()->stats().indirect_static_checks, 0u);
}

TEST(SharedAnalysis, GoldenRunWithoutStaticFlagsHoldsNull) {
  GoldenCache cache;
  const WorkloadSetup setup = make_workload("calls");
  EXPECT_EQ(cache.get(setup)->analysis, nullptr);
  EXPECT_EQ(simulate_golden_fast(setup).analysis, nullptr);
  EXPECT_NE(simulate_golden_fast(static_setup("calls")).analysis, nullptr);
}

TEST(SharedAnalysis, LoadWithoutAHandedResultStillAnalyses) {
  const WorkloadSetup setup = static_setup("calls");
  const isa::Program program = isa::assemble(setup.source);
  BootedGuest boot(setup, program, setup.os.run_limit);
  ASSERT_NE(boot.guest.program_analysis(), nullptr);
  EXPECT_EQ(analysis::to_json(program, *boot.guest.program_analysis()),
            analysis::to_json(program, *os::load_analysis(program, setup.os)));
}

TEST(SharedAnalysis, AHandedResultIsIgnoredWithoutStaticFlags) {
  const WorkloadSetup setup = make_workload("calls");
  const isa::Program program = isa::assemble(setup.source);
  os::Machine machine(setup.machine);
  os::GuestOs guest(machine, setup.os);
  guest.load(program, os::load_analysis(program, static_setup("calls").os));
  EXPECT_EQ(guest.program_analysis(), nullptr);
  EXPECT_EQ(os::load_analysis(program, setup.os), nullptr);
}

}  // namespace
}  // namespace rse::campaign
