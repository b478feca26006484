// Property: sharing the golden run's static analysis across a campaign is
// exact.  Every boot of a campaign (each run, the fast-forward boundary
// replay, the snapshot chain) loads with GoldenRun::analysis instead of
// re-running the analyzer.  Each case runs one 64-run plan of a workload with
// both static tables through one prefix path twice, on four workers that
// read the one shared result: once against the cached golden run, once
// against a copy of it whose analysis is null, so that every boot analyses
// for itself.  Both must return field-identical RunResults.  On args, whose
// outcomes depend on the context depth, a shared result analysed under other
// options than the setup's changes several runs of the plan.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "campaign/runner.hpp"

namespace rse::campaign {
namespace {

constexpr u32 kRuns = 64;
constexpr u32 kJobs = 4;

class SharedAnalysisProperty : public ::testing::Test {
 protected:
  void prepare(const char* workload) {
    spec_.workload = workload;
    spec_.runs = kRuns;
    spec_.static_cfc = true;
    spec_.static_ddt = true;
    setup_ = CampaignRunner::setup_for(spec_);
    shared_ = runner_.cache().get(setup_);
    ASSERT_NE(shared_->analysis, nullptr);
    own_ = *shared_;
    own_.analysis = nullptr;
    plan_.emplace(runner_.plan_for(spec_, *shared_, setup_));
    // A 2x hang budget keeps hung server runs cheap; both arms share it.
    budget_ = shared_->cycles * 2 + 20'000;
  }

  std::vector<RunResult> run_plan(const std::function<RunResult(const InjectionRecord&)>& run) {
    std::vector<RunResult> results(kRuns);
    for_each_run(0, kRuns, kJobs, [&](u32 i) { results[i] = run(plan_->record(i)); });
    return results;
  }

  CampaignRunner runner_;
  CampaignSpec spec_;
  WorkloadSetup setup_;
  std::shared_ptr<const GoldenRun> shared_;  // the cache's: analysis set
  GoldenRun own_;                            // the same run, analysis null
  std::optional<InjectionPlan> plan_;
  Cycle budget_ = 0;
};

void expect_identical(const std::vector<RunResult>& shared, const std::vector<RunResult>& own,
                      const char* path) {
  ASSERT_EQ(shared.size(), own.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    const RunResult& a = shared[i];
    const RunResult& b = own[i];
    EXPECT_TRUE(a == b) << path << " run " << i << " (" << describe(a.record)
                        << "): shared analysis " << to_string(a.outcome) << " after "
                        << a.cycles << " cycles, fault applied " << a.fault_applied
                        << "; own analysis " << to_string(b.outcome) << " after " << b.cycles
                        << " cycles, fault applied " << b.fault_applied;
  }
}

TEST_F(SharedAnalysisProperty, CallsClassic) {
  prepare("calls");
  const auto classic = [&](const GoldenRun& golden) {
    return run_plan([&](const InjectionRecord& record) {
      return runner_.run_one_with_budget(setup_, golden, record, budget_);
    });
  };
  expect_identical(classic(*shared_), classic(own_), "classic");
}

TEST_F(SharedAnalysisProperty, CallsFastForward) {
  prepare("calls");
  const auto fast_forward = [&](const GoldenRun& golden) {
    // The boundary replay boots with the runs' golden run, as run() does.
    std::vector<Cycle> cycles;
    for (u32 i = 0; i < kRuns; ++i) cycles.push_back(plan_->record(i).inject_cycle);
    BootedGuest boot(setup_, golden.program, budget_, golden.analysis);
    exec::FastForwardController::SyscallSchedule schedule;
    const exec::FastForwardController::BoundaryMap boundaries =
        exec::FastForwardController::map_boundaries(boot.guest, std::move(cycles), &schedule);
    return run_plan([&](const InjectionRecord& record) {
      return runner_.run_one_fast_forward(setup_, golden, record, budget_, boundaries,
                                          &schedule);
    });
  };
  const std::vector<RunResult> shared = fast_forward(*shared_);
  EXPECT_GT(runner_.fast_forward_stats().fast, 0u) << "no run took a fast-forward prefix";
  expect_identical(shared, fast_forward(own_), "fast-forward");
}

TEST_F(SharedAnalysisProperty, ArgsClassic) {
  prepare("args");
  const auto classic = [&](const GoldenRun& golden) {
    return run_plan([&](const InjectionRecord& record) {
      return runner_.run_one_with_budget(setup_, golden, record, budget_);
    });
  };
  expect_identical(classic(*shared_), classic(own_), "classic");
}

TEST_F(SharedAnalysisProperty, ServerClassic) {
  prepare("server");
  const auto classic = [&](const GoldenRun& golden) {
    return run_plan([&](const InjectionRecord& record) {
      return runner_.run_one_with_budget(setup_, golden, record, budget_);
    });
  };
  expect_identical(classic(*shared_), classic(own_), "classic");
}

TEST_F(SharedAnalysisProperty, ServerSnapshotFork) {
  prepare("server");
  const SnapshotChain shared_chain =
      runner_.build_snapshot_chain(setup_, *shared_, spec_, budget_, false);
  const SnapshotChain own_chain =
      runner_.build_snapshot_chain(setup_, own_, spec_, budget_, false);
  ASSERT_FALSE(shared_chain.snaps.empty());
  ASSERT_EQ(shared_chain.snaps.size(), own_chain.snaps.size());
  for (std::size_t i = 0; i < shared_chain.snaps.size(); ++i) {
    EXPECT_EQ(shared_chain.snaps[i].at, own_chain.snaps[i].at) << "snapshot " << i;
  }
  const auto forked = [&](const GoldenRun& golden, const SnapshotChain& chain) {
    return run_plan([&](const InjectionRecord& record) {
      return runner_.run_one_forked(setup_, golden, record, budget_, chain);
    });
  };
  expect_identical(forked(*shared_, shared_chain), forked(own_, own_chain), "snapshot-fork");
}

}  // namespace
}  // namespace rse::campaign
