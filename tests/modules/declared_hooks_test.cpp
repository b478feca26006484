// The framework calls a module hook only on the modules that declare it
// (engine::Module::hooks), so a shipped module that overrides a hook it does
// not declare would lose those calls without a sound.  Two guards: no
// shipped module overrides a hook it leaves undeclared, and at a quiescent
// mid-run cycle of kmeans and server, calling every hook a module does not
// declare, with events built from the next commit, changes neither the
// module's snapshot bytes nor its stats.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "campaign/workload.hpp"
#include "common/serialize.hpp"
#include "isa/assembler.hpp"
#include "os/snapshot.hpp"

namespace rse::modules {
namespace {

using engine::Hook;
using engine::Module;

/// Whether module type M overrides `hook`: `&M::hook` names Module's own
/// member exactly when M does not.
template <class M>
bool overrides(Hook hook) {
  switch (hook) {
    case Hook::kDispatch:
      return !std::is_same_v<decltype(&M::on_dispatch), decltype(&Module::on_dispatch)>;
    case Hook::kExecute:
      return !std::is_same_v<decltype(&M::on_execute), decltype(&Module::on_execute)>;
    case Hook::kCommit:
      return !std::is_same_v<decltype(&M::on_commit), decltype(&Module::on_commit)>;
    case Hook::kStoreCommit:
      return !std::is_same_v<decltype(&M::on_store_commit), decltype(&Module::on_store_commit)>;
    case Hook::kSquash:
      return !std::is_same_v<decltype(&M::on_squash), decltype(&Module::on_squash)>;
    case Hook::kTick:
      return !std::is_same_v<decltype(&M::tick), decltype(&Module::tick)>;
  }
  return true;
}

const std::vector<Hook> kEveryHook = {Hook::kDispatch, Hook::kExecute, Hook::kCommit,
                                      Hook::kStoreCommit, Hook::kSquash, Hook::kTick};

template <class M>
void expect_declares_its_overrides(const M& module) {
  for (const Hook hook : kEveryHook) {
    if (overrides<M>(hook)) {
      EXPECT_TRUE(module.hooks().has(hook))
          << module.name() << " overrides hook " << static_cast<int>(hook)
          << " but does not declare it";
    }
  }
}

TEST(DeclaredHooks, NoShippedModuleOverridesAHookItDoesNotDeclare) {
  os::MachineConfig config;
  config.framework_present = true;
  os::Machine machine(config);
  expect_declares_its_overrides(*machine.icm());
  expect_declares_its_overrides(*machine.mlr());
  expect_declares_its_overrides(*machine.ddt());
  expect_declares_its_overrides(*machine.ahbm());
  expect_declares_its_overrides(*machine.cfc());
}

/// The pipeline events of one instruction, as the core would tap them.
struct Events {
  engine::DispatchInfo dispatch;
  engine::ExecuteInfo execute;
  engine::CommitInfo commit;
};

/// A module's value state: its snapshot bytes (stats included) and, on
/// their own, its stats.
struct ModuleState {
  std::vector<u8> image;
  std::vector<u8> stats;
  bool operator==(const ModuleState&) const = default;
};

template <class M>
ModuleState state_of(M& module) {
  snap::Writer image;
  module.serialize_state(image);
  auto stats_copy = module.stats();
  snap::Writer stats;
  stats.field(stats_copy);
  return {image.take(), stats.take()};
}

/// Call every hook `module` does not declare, through the base class.
void call_undeclared_hooks(Module& module, const Events& events, Cycle now) {
  const engine::HookSet declared = module.hooks();
  for (const Hook hook : kEveryHook) {
    if (declared.has(hook)) continue;
    switch (hook) {
      case Hook::kDispatch: module.on_dispatch(events.dispatch, now); break;
      case Hook::kExecute: module.on_execute(events.execute, now); break;
      case Hook::kCommit: module.on_commit(events.commit, now); break;
      case Hook::kStoreCommit:
        EXPECT_EQ(module.on_store_commit(events.commit, now), 0u) << module.name();
        break;
      case Hook::kSquash: module.on_squash(events.commit.tag, now); break;
      case Hook::kTick: module.tick(now); break;
    }
  }
}

template <class M>
void expect_undeclared_hooks_change_nothing(M& module, const Events& events, Cycle now,
                                            const std::string& workload) {
  module.set_enabled(true);
  const ModuleState before = state_of(module);
  call_undeclared_hooks(module, events, now);
  EXPECT_EQ(state_of(module), before) << workload << ": " << module.name();
}

class DeclaredHooksMidRun : public ::testing::TestWithParam<const char*> {};

TEST_P(DeclaredHooksMidRun, UndeclaredHooksChangeNoModuleState) {
  const campaign::WorkloadSetup setup = campaign::make_workload(GetParam());
  const isa::Program program = isa::assemble(setup.source);
  const Cycle run_limit = setup.os.run_limit;

  Cycle golden_cycles = 0;
  {
    campaign::BootedGuest golden(setup, program, run_limit);
    golden.guest.run();
    golden_cycles = golden.machine.now();
  }

  // Pause at the first quiescent cycle from mid-run on.
  campaign::BootedGuest paused(setup, program, run_limit);
  while (paused.machine.now() < golden_cycles / 2 ||
         !os::MachineSnapshot::quiescent(paused.machine)) {
    paused.guest.step();
  }
  ASSERT_FALSE(paused.guest.finished());

  // The next commit, taken from a copy so the paused machine does not move.
  campaign::BootedGuest ahead(setup, program, run_limit);
  os::MachineSnapshot::restore(os::MachineSnapshot::capture(paused.machine, paused.guest),
                               ahead.machine, ahead.guest);
  bool committed = false;
  Events events;
  ahead.machine.core().set_commit_observer([&](Cycle, const engine::CommitInfo& info) {
    if (committed) return;
    committed = true;
    events.commit = info;
  });
  while (!committed && !ahead.guest.finished()) ahead.guest.step();
  ASSERT_TRUE(committed);

  const engine::CommitInfo& commit = events.commit;
  events.dispatch.tag = commit.tag;
  events.dispatch.pc = commit.pc;
  events.dispatch.instr = commit.instr;
  events.dispatch.thread = commit.thread;
  const isa::Instr::Sources sources = commit.instr.source_regs();
  for (u8 i = 0; i < sources.count; ++i) {
    events.dispatch.operands[events.dispatch.operand_count++] =
        paused.machine.core().reg(sources.regs[i]);
  }
  events.execute.tag = commit.tag;
  events.execute.eff_addr = commit.eff_addr;
  events.execute.is_mem = commit.instr.is_mem();

  const Cycle now = paused.machine.now() + 1;
  expect_undeclared_hooks_change_nothing(*paused.machine.icm(), events, now, GetParam());
  expect_undeclared_hooks_change_nothing(*paused.machine.mlr(), events, now, GetParam());
  expect_undeclared_hooks_change_nothing(*paused.machine.ddt(), events, now, GetParam());
  expect_undeclared_hooks_change_nothing(*paused.machine.ahbm(), events, now, GetParam());
  expect_undeclared_hooks_change_nothing(*paused.machine.cfc(), events, now, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeclaredHooksMidRun, ::testing::Values("kmeans", "server"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace rse::modules
