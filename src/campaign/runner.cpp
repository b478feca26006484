#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "campaign/stats.hpp"
#include "common/error.hpp"

namespace rse::campaign {

void for_each_run(u32 lo, u32 hi, u32 jobs, const std::function<void(u32)>& run) {
  if (lo >= hi) return;
  std::atomic<u32> next{lo};
  std::mutex failure_mu;  // guards the lowest failing index and its exception
  u32 failed_index = hi;
  std::exception_ptr failure;
  const auto worker = [&] {
    for (u32 index; (index = next.fetch_add(1, std::memory_order_relaxed)) < hi;) {
      try {
        run(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mu);
        if (index < failed_index) {
          failed_index = index;
          failure = std::current_exception();
        }
      }
    }
  };
  // The calling thread is one of the `jobs` workers.  A host that refuses a
  // thread leaves the work to the ones already running: every index still
  // runs once, into its own slot, whatever number of threads started.
  const u32 pool_size = std::min(jobs, hi - lo);
  std::vector<std::thread> helpers;
  helpers.reserve(pool_size > 1 ? pool_size - 1 : 0);
  for (u32 j = 1; j < pool_size; ++j) {
    try {
      helpers.emplace_back(worker);
    } catch (const std::exception&) {
      break;
    }
  }
  worker();
  for (std::thread& t : helpers) t.join();
  if (failure == nullptr) return;
  const std::string run_name = "run " + std::to_string(failed_index) + ": ";
  try {
    std::rethrow_exception(failure);
  } catch (const std::exception& e) {
    throw SimError(run_name + e.what());
  } catch (...) {
    throw SimError(run_name + "unknown exception");
  }
}

u32 max_runs(const CampaignSpec& spec) {
  if (spec.ci_threshold <= 0.0) return spec.runs;
  const u64 cap = spec.ci_max_runs != 0 ? spec.ci_max_runs
                                        : std::min<u64>(u64{4} * spec.runs, kMaxRuns);
  return static_cast<u32>(std::max<u64>(cap, spec.runs));
}

CampaignRunner::CampaignRunner(GoldenCache* cache)
    : cache_(cache != nullptr ? cache : &own_cache_) {}

Cycle CampaignRunner::budget_for(const GoldenRun& golden, double hang_factor) const {
  // The additive slack keeps very short workloads from classifying ordinary
  // detection/retry overhead as a hang.
  return static_cast<Cycle>(static_cast<double>(golden.cycles) * hang_factor) + 20'000;
}

WorkloadSetup CampaignRunner::setup_for(const CampaignSpec& spec) {
  WorkloadSetup setup = make_workload(spec.workload);
  setup.os.static_cfc = spec.static_cfc;
  setup.os.static_ddt = spec.static_ddt;
  setup.os.footprint_summaries = spec.footprint_summaries;
  setup.os.context_depth = spec.context_depth;
  setup.os.field_sensitive = spec.field_sensitive;
  if (spec.static_ddt && std::find(setup.host_enables.begin(), setup.host_enables.end(),
                                   isa::ModuleId::kDdt) == setup.host_enables.end()) {
    // The footprint check rides the DDT's commit taps: the mode implies
    // enabling the module for the golden and every faulty run.
    setup.host_enables.push_back(isa::ModuleId::kDdt);
  }
  if (spec.dme) {
    // Variant A *is* the campaign.  The golden run is keyed on its
    // randomized layout.
    dme::make_variant(setup.machine, setup.os, spec.dme_seed_a);
  }
  return setup;
}

InjectionPlan CampaignRunner::plan_for(const CampaignSpec& spec, const GoldenRun& golden,
                                       const WorkloadSetup& setup) const {
  (void)setup;
  validate(spec);
  InjectionSpace space;
  space.cycles = golden.cycles;
  space.text_base = golden.program.text_base;
  space.text_words = static_cast<u32>(golden.program.text.size());
  space.data_base = golden.program.data_base;
  space.data_words = static_cast<u32>(golden.program.data.size() / 4);
  space.ioq_slots = golden.ioq_slots;
  space.num_regs = isa::kNumRegs;
  space.targets = spec.targets;
  if (spec.window_lo != 0.0 || spec.window_hi != 1.0) {
    // Leaving the defaults (0/0) at spec default [0, 1] keeps the historical
    // full-range RNG draw bit-for-bit (InjectionSpace::window_lo).
    space.window_lo = std::max<Cycle>(
        1, static_cast<Cycle>(spec.window_lo * static_cast<double>(golden.cycles)));
    space.window_hi = std::max(
        space.window_lo, static_cast<Cycle>(spec.window_hi * static_cast<double>(golden.cycles)));
  }
  return InjectionPlan(spec.seed, std::move(space));
}

bool CampaignRunner::apply_fault(os::Machine& machine, const InjectionRecord& record) const {
  switch (record.target) {
    case InjectTarget::kRegisterBit: {
      cpu::Core& core = machine.core();
      if (record.reg == kPcPseudoReg) {
        // One-shot corruption of the next-PC latch: the first control-flow
        // instruction to commit after the injection cycle lands on a wrong
        // target.  The binary in memory is untouched, so only the CFC (or
        // the fetch protection fence) can see it.
        core.set_branch_fault_hook(
            [mask = record.mask, fired = false](Addr, Addr next) mutable {
              if (fired) return next;
              fired = true;
              return next ^ mask;
            });
        return true;
      }
      core.set_reg(record.reg, core.reg(record.reg) ^ record.mask);
      return true;
    }
    case InjectTarget::kInstructionWord:
    case InjectTarget::kDataWord: {
      mem::MainMemory& memory = machine.memory();
      memory.write_u32(record.addr, memory.read_u32(record.addr) ^ record.mask);
      return true;
    }
    case InjectTarget::kConfigBit: {
      engine::Framework* fw = machine.framework();
      if (fw == nullptr) return false;
      if (record.config_kind == ConfigFaultKind::kIoqStuck) {
        fw->ioq().inject_stuck_fault(record.ioq_slot, record.ioq_fault);
        return true;
      }
      engine::Module* module = fw->module(record.module);
      if (module == nullptr) return false;
      module->inject_fault(record.module_fault);
      return true;
    }
  }
  return false;
}

RunResult CampaignRunner::run_one(const WorkloadSetup& setup, const GoldenRun& golden,
                                  const InjectionRecord& record,
                                  const dme::CanonicalTrace* dme_reference) const {
  const Cycle budget = budget_for(golden, /*hang_factor=*/8.0);
  return run_one_with_budget(setup, golden, record, budget, dme_reference);
}

namespace {

/// Classify a completed (or budget-bounded) faulty run from its machine and
/// guest state: the run pipeline's last step.  A non-null `checker`
/// contributes the DME trace-comparison evidence: a length shortfall only
/// counts as divergence when the run itself ended cleanly (a crash or hang
/// truncates the trace for reasons the crash/hang outcome already explains).
void finish_run(os::Machine& machine, os::GuestOs& guest, const GoldenRun& golden,
                bool host_trap, dme::TraceChecker* checker, RunResult* result) {
  RunEvidence evidence;
  evidence.finished = guest.finished() || host_trap;
  evidence.output = guest.output();
  evidence.exit_code = guest.exit_code();
  if (auto* icm = machine.icm()) evidence.icm_mismatches = icm->stats().mismatches;
  if (auto* cfc = machine.cfc()) evidence.cfc_violations = cfc->stats().violations;
  if (auto* fw = machine.framework()) evidence.selfcheck_trips = fw->stats().selfcheck_trips;
  if (auto* ddt = machine.ddt()) {
    evidence.ddt_footprint_violations = ddt->stats().footprint_violations;
  }
  evidence.recoveries = guest.stats().recoveries;
  evidence.crashes = guest.stats().crashes + (host_trap ? 1 : 0);
  evidence.illegal_traps = guest.stats().illegal_traps;

  if (checker != nullptr) {
    if (guest.finished() && !host_trap && evidence.crashes == 0 &&
        evidence.illegal_traps == 0) {
      checker->finish_clean();
    }
    evidence.dme_divergences = checker->divergences();
    evidence.dme_first_divergence = checker->first_divergence();
  }

  result->outcome = classify(evidence, golden);
  result->cycles = machine.now();
}

}  // namespace

u64 commit_records(os::Machine& machine, const os::GuestOs& guest) {
  // Each core commit is an instruction, a CHK or an invalid word, which
  // the OS takes as an illegal trap.
  const cpu::CoreStats& stats = machine.core().stats();
  return stats.instructions + stats.chk_committed + guest.stats().illegal_traps;
}

/// What a run's prefix may start from.  Neither source: every run starts
/// from reset.  A chain: the latest snapshot at or before the injection
/// cycle (checkpoint-fork).  A boundary map: a fast-engine prefix up to the
/// injection cycle (fast-forward).
struct CampaignRunner::Prefixes {
  const SnapshotChain* chain = nullptr;
  const exec::FastForwardController::BoundaryMap* boundaries = nullptr;
};

/// The prefix one run starts from: a snapshot, a fast-forward boundary, or
/// (both null) reset, with the reason it fell back to reset if it did.
struct CampaignRunner::Route {
  const os::MachineSnapshot* snapshot = nullptr;
  const exec::FastForwardController::Boundary* boundary = nullptr;
  Fallback fallback = kNoFallback;
};

CampaignRunner::Route CampaignRunner::route(const GoldenRun& golden,
                                            const InjectionRecord& record, Cycle budget,
                                            const Prefixes& prefixes) {
  // No prefix may end past the hang budget: a from-reset run stops there
  // without applying its fault, and every route must observe the same.
  if (prefixes.chain != nullptr) {
    Route latest{.fallback = kUnmapped};
    for (const os::MachineSnapshot& snap : prefixes.chain->snaps) {
      if (snap.at > record.inject_cycle || snap.at > budget) break;
      latest = Route{.snapshot = &snap};
    }
    return latest;
  }
  if (prefixes.boundaries == nullptr) return Route{};

  // Register-bit faults fast-forward whenever their cycle is mapped;
  // instruction-/data-word faults fast-forward unless the word was in flight
  // in the pipeline at the boundary (fetched-but-uncommitted text, or the
  // target of a dispatched store) — the classic run's pipeline holds the
  // clean word across the flip there, which the pipeline-less fast prefix
  // cannot reproduce.  Config faults interact with in-flight CHK IOQ entries
  // and stay classic.  Records whose injection cycle the fault-free run never
  // reaches have no boundary entry (the classic path applies no fault there
  // either).
  const bool memory_fault = record.target == InjectTarget::kInstructionWord ||
                            record.target == InjectTarget::kDataWord;
  if (record.target != InjectTarget::kRegisterBit && !memory_fault) {
    return Route{.fallback = kTarget};
  }
  const auto boundary = prefixes.boundaries->find(record.inject_cycle);
  if (record.inject_cycle >= budget || boundary == prefixes.boundaries->end()) {
    return Route{.fallback = kUnmapped};
  }
  if (memory_fault && boundary->second.conflicts(record.addr, 4)) {
    return Route{.fallback = kConflict};
  }
  // An instruction-word fault on an ICM-checked instruction (one preceded
  // by a `chk icm`) stays classic: the ICM compares the fetched word at
  // dispatch, including wrong-path dispatches that are later squashed, so
  // whether the corrupted word is ever *checked* depends on branch-predictor
  // and pipeline state at the injection cycle — state the pipeline-less fast
  // prefix cannot reproduce.  Faults on unchecked words (and on the chk
  // words themselves) have no speculation-visible detector, so the committed
  // path the transplant reproduces fully determines their classification.
  if (record.target == InjectTarget::kInstructionWord &&
      record.addr >= golden.program.text_base + 4) {
    const std::size_t prev = (record.addr - 4 - golden.program.text_base) / 4;
    if (prev < golden.program.text.size()) {
      const isa::Instr before = isa::decode(golden.program.text[prev]);
      if (before.op == isa::Op::kChk && before.chk_module == isa::ModuleId::kIcm) {
        return Route{.fallback = kChecked};
      }
    }
  }
  return Route{.boundary = &boundary->second};
}

RunResult CampaignRunner::run_pipeline(const WorkloadSetup& setup, const GoldenRun& golden,
                                       const InjectionRecord& record, Cycle budget,
                                       const Prefixes& prefixes,
                                       const dme::CanonicalTrace* dme_reference) const {
  Route route = CampaignRunner::route(golden, record, budget, prefixes);
  std::optional<BootedGuest> boot(std::in_place, setup, golden.program, budget,
                                  golden.analysis);
  if (route.snapshot != nullptr) {
    // Restore failures are campaign bugs, not guest crashes: let them escape
    // rather than classify as kCrash (run() reports them with the run index).
    os::MachineSnapshot::restore(*route.snapshot, boot->machine, boot->guest);
    forked_.fetch_add(1, std::memory_order_relaxed);
  } else if (route.boundary != nullptr) {
    exec::FastSession::BailReason bail = exec::FastSession::BailReason::kNone;
    if (!exec::FastForwardController::fast_forward_to(boot->guest, golden.program,
                                                      route.boundary->position,
                                                      record.inject_cycle, nullptr, &bail)) {
      // Fast mode bailed (a syscall outside the whitelist, early exit, an
      // illegal word) and left the guest unusable: start again from reset.
      switch (bail) {
        case exec::FastSession::BailReason::kSyscall: route = Route{.fallback = kSyscall}; break;
        case exec::FastSession::BailReason::kIllegal: route = Route{.fallback = kIllegal}; break;
        case exec::FastSession::BailReason::kNone: route = Route{.fallback = kOther}; break;
      }
      boot.emplace(setup, golden.program, budget, golden.analysis);
    }
  }
  if (prefixes.boundaries != nullptr) {
    ff_counts_[route.fallback].fetch_add(1, std::memory_order_relaxed);
  }
  os::Machine& machine = boot->machine;
  os::GuestOs& guest = boot->guest;

  // The trace checker streams every commit after the prefix.  A fast-forward
  // prefix committed `position` instructions that it never saw, and a
  // restored snapshot the records before its cycle; start the checker past
  // them so the suffix compares against the right reference records.  Valid
  // because the campaign offers DME runs a prefix only when the fault-free
  // baseline does not diverge (the skipped prefix matches).
  std::optional<dme::TraceChecker> checker;
  if (dme_reference != nullptr) {
    checker.emplace(dme_reference, dme::RegionMap::of(guest));
    if (route.boundary != nullptr) checker->set_position(route.boundary->position);
    if (route.snapshot != nullptr) checker->set_position(commit_records(machine, guest));
    machine.core().set_commit_observer(
        [&checker](Cycle, const engine::CommitInfo& info) { checker->push(info); });
  }

  RunResult result;
  result.record = record;

  // A corrupted guest can reach states the OS model treats as fatal host-side
  // errors (unknown syscall number, wild memory access).  Those are crashes
  // of the faulty run, not of the campaign.
  bool host_trap = false;
  try {
    // The guest's run limit is the budget (BootedGuest).
    if (guest.run_until(record.inject_cycle)) result.fault_applied = apply_fault(machine, record);
    guest.run();
  } catch (const SimError&) {
    host_trap = true;
  }

  finish_run(machine, guest, golden, host_trap, checker ? &*checker : nullptr, &result);
  return result;
}

RunResult CampaignRunner::run_one_with_budget(const WorkloadSetup& setup,
                                              const GoldenRun& golden,
                                              const InjectionRecord& record, Cycle budget,
                                              const dme::CanonicalTrace* dme_reference) const {
  return run_pipeline(setup, golden, record, budget, Prefixes{}, dme_reference);
}

RunResult CampaignRunner::run_one_fast_forward(
    const WorkloadSetup& setup, const GoldenRun& golden, const InjectionRecord& record,
    Cycle budget, const exec::FastForwardController::BoundaryMap& boundaries,
    const exec::FastForwardController::SyscallSchedule* /*schedule*/,
    const dme::CanonicalTrace* dme_reference) const {
  return run_pipeline(setup, golden, record, budget, Prefixes{nullptr, &boundaries},
                      dme_reference);
}

RunResult CampaignRunner::run_one_forked(const WorkloadSetup& setup, const GoldenRun& golden,
                                         const InjectionRecord& record, Cycle budget,
                                         const SnapshotChain& chain) const {
  return run_pipeline(setup, golden, record, budget, Prefixes{&chain}, nullptr);
}

FastForwardStats CampaignRunner::fast_forward_stats() const {
  const auto count = [this](Fallback f) { return ff_counts_[f].load(std::memory_order_relaxed); };
  return FastForwardStats{count(kNoFallback), count(kTarget),  count(kUnmapped),
                          count(kConflict),   count(kChecked), count(kSyscall),
                          0,                  count(kIllegal), count(kOther)};
}

u64 CampaignRunner::forked_runs() const { return forked_.load(std::memory_order_relaxed); }

SnapshotChain CampaignRunner::build_snapshot_chain(const WorkloadSetup& setup,
                                                   const GoldenRun& golden,
                                                   const CampaignSpec& spec, Cycle budget,
                                                   bool /*use_fast_forward*/) const {
  // One from-reset pass through the classic prefix's stepping loop
  // (GuestOs::run_until) captures every bucket boundary, so each snapshot is
  // bit-identical to the machine state a classic run reaches at that cycle.
  SnapshotChain chain;
  const u32 buckets = std::max(1u, spec.snapshot_buckets);
  BootedGuest boot(setup, golden.program, budget, golden.analysis);
  os::Machine& machine = boot.machine;
  os::GuestOs& guest = boot.guest;
  for (u32 b = 0; b < buckets; ++b) {
    // To the bucket's bound, then one cycle at a time to a quiescent cycle.
    bool live = guest.run_until(golden.cycles * b / buckets);
    while (live && !os::MachineSnapshot::quiescent(machine)) {
      live = guest.run_until(machine.now() + 1);
    }
    if (guest.finished() || !os::MachineSnapshot::quiescent(machine)) break;
    if (!chain.snaps.empty() && chain.snaps.back().at == machine.now()) continue;
    chain.snaps.push_back(os::MachineSnapshot::capture(machine, guest));
  }
  return chain;
}

CampaignReport CampaignRunner::run(const CampaignSpec& spec) {
  return run_campaign(spec, /*from_reset=*/false);
}

CampaignReport CampaignRunner::run_from_reset(const CampaignSpec& spec) {
  return run_campaign(spec, /*from_reset=*/true);
}

CampaignReport CampaignRunner::run_campaign(const CampaignSpec& spec, bool from_reset) {
  validate(spec);
  const WorkloadSetup setup = setup_for(spec);
  const std::shared_ptr<const GoldenRun> golden = cache_->get(setup);
  const InjectionPlan plan = plan_for(spec, *golden, setup);
  const Cycle budget = budget_for(*golden, spec.hang_factor);

  // DME reference: record variant B (same program, distinct MLR seed) once,
  // then establish the fault-free baseline by streaming variant A through
  // the checker every faulty run uses.  Both boot like every run, with the
  // golden run's analysis.  The baseline lives on a local golden copy — the
  // shared cache entry stays DME-agnostic.
  dme::CanonicalTrace reference;
  GoldenRun golden_local;
  const GoldenRun* golden_ptr = golden.get();
  if (spec.dme) {
    const Cycle limit = std::min<Cycle>(setup.os.run_limit, budget);
    {
      WorkloadSetup setup_b = setup;
      dme::make_variant(setup_b.machine, setup_b.os, spec.dme_seed_b);
      BootedGuest variant_b(setup_b, golden->program, limit, golden->analysis);
      reference = dme::record_trace(variant_b.guest, golden->program);
    }
    BootedGuest variant_a(setup, golden->program, limit, golden->analysis);
    const dme::TraceChecker baseline =
        dme::check_trace(variant_a.guest, golden->program, reference);
    golden_local = *golden;
    golden_local.dme_divergences = baseline.divergences();
    golden_local.dme_first_divergence = baseline.first_divergence();
    golden_ptr = &golden_local;
  }

  // This shard executes the contiguous plan range [shard_lo, shard_hi).
  // Unsharded campaigns cover the whole plan; merging every shard's report
  // reproduces the unsharded digest byte-for-byte (campaign/shard.hpp).
  const u32 shard_lo = static_cast<u32>(u64{spec.runs} * spec.shard_index / spec.shard_count);
  const u32 shard_hi =
      static_cast<u32>(u64{spec.runs} * (spec.shard_index + 1) / spec.shard_count);

  // The prefix every run is offered (run()'s rule).  Fast-forward needs one
  // instrumented cycle-accurate replay that maps each eligible injection
  // cycle to its functional-stream position.  A golden run with baseline
  // detector activity rules the fast path out — the detector events of the
  // fault-free prefix would be missing from a fast-forwarded run, skewing
  // the against-golden classification; such campaigns fork instead.  A DME
  // baseline divergence (variant B disagrees with fault-free variant A)
  // rules out both prefixes: the skipped prefix could hide where the
  // baseline diverges, so set_position would desynchronize the checker.
  for (std::atomic<u64>& count : ff_counts_) count.store(0, std::memory_order_relaxed);
  forked_.store(0, std::memory_order_relaxed);
  Prefixes prefixes;
  exec::FastForwardController::BoundaryMap boundaries;
  const bool dme_baseline_clean = !spec.dme || golden_ptr->dme_divergences == 0;
  const bool golden_baseline_clean =
      golden->icm_mismatches == 0 && golden->cfc_violations == 0 &&
      golden->selfcheck_trips == 0 && golden->os_recoveries == 0 &&
      golden->ddt_footprint_violations == 0 && dme_baseline_clean;
  const bool use_fast_forward = !from_reset && spec.fast_forward && golden_baseline_clean;
  const bool use_fork = !from_reset && !use_fast_forward && dme_baseline_clean;
  if (use_fast_forward) {
    std::vector<Cycle> cycles;
    for (u32 i = shard_lo; i < shard_hi; ++i) {
      const InjectionRecord record = plan.record(i);
      const bool eligible = record.target == InjectTarget::kRegisterBit ||
                            record.target == InjectTarget::kInstructionWord ||
                            record.target == InjectTarget::kDataWord;
      if (eligible) cycles.push_back(record.inject_cycle);
    }
    if (!cycles.empty()) {
      BootedGuest boot(setup, golden->program, budget, golden->analysis);
      boundaries = exec::FastForwardController::map_boundaries(boot.guest, std::move(cycles));
    }
    prefixes = Prefixes{nullptr, &boundaries};
  }

  u32 jobs =
      spec.jobs != 0 ? spec.jobs : std::clamp(std::thread::hardware_concurrency(), 1u, kMaxJobs);
  jobs = std::min(jobs, std::max(1u, shard_hi - shard_lo));

  const auto start = std::chrono::steady_clock::now();

  // The snapshot chain counts toward wall time — it is checkpoint-fork's
  // setup cost, amortized across every run that forks from it.
  SnapshotChain chain;
  if (use_fork) {
    chain = build_snapshot_chain(setup, *golden, spec, budget, /*use_fast_forward=*/false);
    prefixes = Prefixes{&chain};
  }

  // Execute plan indices [lo, hi), appending to `results` in index order.
  // Each run writes its own preallocated slot, so any --jobs value yields
  // identical results.
  std::vector<RunResult> results;
  const auto execute = [&](u32 lo, u32 hi) {
    const size_t base = results.size();
    results.resize(base + (hi - lo));
    for_each_run(lo, hi, jobs, [&](u32 index) {
      results[base + (index - lo)] = run_pipeline(setup, *golden_ptr, plan.record(index), budget,
                                                  prefixes, spec.dme ? &reference : nullptr);
    });
  };

  execute(shard_lo, shard_hi);

  // Sequential refinement: while any outcome stratum's Wilson interval still
  // straddles the reporting threshold, append the next deterministic batch
  // of plan indices.  The executed run set — and therefore the digest — is a
  // pure function of (spec, classified outcomes), independent of --jobs.
  if (spec.ci_threshold > 0.0) {
    const u32 batch = spec.ci_batch != 0 ? spec.ci_batch : std::max(16u, spec.runs / 2);
    const u32 cap = max_runs(spec);
    u32 total = spec.runs;
    while (total < cap) {
      std::array<u32, kNumOutcomes> by_outcome{};
      for (const RunResult& result : results) {
        by_outcome[static_cast<size_t>(result.outcome)]++;
      }
      if (strata_needing_refinement(by_outcome, static_cast<u32>(results.size()),
                                    spec.ci_threshold)
              .empty()) {
        break;
      }
      const u32 step = std::min(batch, cap - total);
      execute(total, total + step);
      total += step;
    }
  }

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  CampaignSpec recorded = spec;
  recorded.jobs = jobs;
  // Refinement grows the executed run set; the recorded spec reflects it so
  // the report is self-consistent.  Shards keep spec.runs — the *plan* size —
  // which merging needs to re-derive the partition.
  if (spec.ci_threshold > 0.0) recorded.runs = static_cast<u32>(results.size());
  return aggregate(recorded, golden->cycles, golden->instructions, std::move(results),
                   wall_seconds);
}

}  // namespace rse::campaign
