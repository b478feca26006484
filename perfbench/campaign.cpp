// The three campaign workloads.
//
// Untraced (--trace 0): set up the campaign several times and report the
// median set-up time, then time the whole CampaignRunner::run, with a cold
// GoldenCache, on the campaign and again on its first eighth, which must
// reproduce the campaign's runs exactly.
//
// Traced (--trace 1): one untraced run() for reference, then the same spec
// driven through the runner's public phase and per-run functions with the
// same job count, spans around every call.  The traced campaign must
// reproduce run()'s deterministic digest byte for byte.  A sample of its runs
// is re-run on the classic from-reset path, and standalone probes measure
// each layer on the workload's inputs.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "campaign/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rse::campaign;
using rse::Cycle;
using rse::u32;
using rse::u64;
using rse::exec::FastForwardController;

namespace {

constexpr int kSetupRepeats = 3;
constexpr u32 kGateSample = 16;  // classic from-reset re-runs per traced pass
// Hang budget = 2x the golden run's cycles (the tools default to 8x).  A
// hung run then costs at most about two golden runs, so how many runs of a
// campaign hang changes its cost little from seed to seed.
constexpr double kHangFactor = 2.0;
// The measured campaign's first 1/kRepeatShards is run a second time.
constexpr u32 kRepeatShards = 8;

/// The workload's campaign.  Its size grows with --seconds, so that one
/// untraced invocation measures about that long on a 4-core host; the runs
/// are a function of (seed, seconds) alone, never of the host's speed.
std::optional<CampaignSpec> spec_for(const std::string& workload, u64 seed, double seconds) {
  CampaignSpec spec;
  spec.seed = seed;
  spec.jobs = job_count();
  spec.hang_factor = kHangFactor;
  double runs_per_second = 0;
  if (workload == "kmeans-ff") {
    spec.workload = "kmeans-large";
    spec.fast_forward = true;
    runs_per_second = 36;
  } else if (workload == "server-fork") {
    spec.workload = "server";
    spec.snapshot_fork = true;
    spec.static_cfc = true;
    spec.static_ddt = true;
    runs_per_second = 14;
  } else if (workload == "calls-static") {
    spec.workload = "calls";
    spec.static_cfc = true;
    spec.static_ddt = true;
    runs_per_second = 1850;
  } else {
    return std::nullopt;
  }
  spec.runs = static_cast<u32>(std::clamp(runs_per_second * seconds, 16.0, 1e6));
  return spec;
}

/// Everything CampaignRunner::run computes before its fan-out, built through
/// the same public calls and in the same order.
struct Prepared {
  WorkloadSetup setup;
  std::shared_ptr<const GoldenRun> golden;
  std::vector<InjectionRecord> records;
  Cycle budget = 0;
  bool use_fast_forward = false;
  FastForwardController::BoundaryMap boundaries;
  FastForwardController::SyscallSchedule schedule;
  SnapshotChain chain;
};

bool is_memory_fault(const InjectionRecord& r) {
  return r.target == InjectTarget::kInstructionWord || r.target == InjectTarget::kDataWord;
}

Prepared prepare(const CampaignSpec& spec, CampaignRunner& runner, Tracer* tracer,
                 std::uint32_t parent) {
  Prepared p;
  {
    Scope s(tracer, "campaign.setup", parent);
    // The spec-to-setup knobs CampaignRunner::run applies.
    p.setup = make_workload(spec.workload);
    p.setup.os.static_cfc = spec.static_cfc;
    p.setup.os.static_ddt = spec.static_ddt;
    p.setup.os.footprint_summaries = spec.footprint_summaries;
    p.setup.os.context_depth = spec.context_depth;
    p.setup.os.field_sensitive = spec.field_sensitive;
    auto& enables = p.setup.host_enables;
    if (spec.static_ddt &&
        std::find(enables.begin(), enables.end(), rse::isa::ModuleId::kDdt) == enables.end()) {
      enables.push_back(rse::isa::ModuleId::kDdt);
    }
  }
  {
    Scope s(tracer, "campaign.golden", parent);
    p.golden = runner.cache().get(p.setup);
  }
  {
    Scope s(tracer, "campaign.plan", parent);
    const InjectionPlan plan = runner.plan_for(spec, *p.golden, p.setup);
    p.records.reserve(spec.runs);
    for (u32 i = 0; i < spec.runs; ++i) p.records.push_back(plan.record(i));
  }
  // CampaignRunner's hang budget: golden cycles x hang_factor + fixed slack.
  p.budget = static_cast<Cycle>(static_cast<double>(p.golden->cycles) * spec.hang_factor) + 20'000;
  const GoldenRun& g = *p.golden;
  p.use_fast_forward = spec.fast_forward && g.icm_mismatches == 0 && g.cfc_violations == 0 &&
                       g.selfcheck_trips == 0 && g.os_recoveries == 0 &&
                       g.ddt_footprint_violations == 0;
  if (p.use_fast_forward && !spec.snapshot_fork) {
    Scope s(tracer, "exec.map_boundaries", parent);
    std::vector<Cycle> cycles;
    for (const InjectionRecord& r : p.records) {
      if (r.target == InjectTarget::kRegisterBit || is_memory_fault(r)) {
        cycles.push_back(r.inject_cycle);
      }
    }
    LoadedGuest loaded(p.setup, g.program, p.budget);
    p.boundaries =
        FastForwardController::map_boundaries(loaded.guest, std::move(cycles), &p.schedule);
  }
  if (spec.snapshot_fork) {
    Scope s(tracer, "os.snapshot_chain", parent);
    p.chain = runner.build_snapshot_chain(p.setup, g, spec, p.budget, p.use_fast_forward);
  }
  return p;
}

/// The path a run takes, decided from the same inputs the runner's
/// eligibility checks read.  Fast-forward runs that bail inside the fast
/// engine at run time still count as "ff" here; fast_forward_stats() counts
/// those bails by reason.
const char* path_of(const CampaignSpec& spec, const Prepared& p, const InjectionRecord& r) {
  if (spec.snapshot_fork) {
    if (!p.chain.exact && r.target != InjectTarget::kRegisterBit) return "classic";
    if (p.chain.snaps.empty() || p.chain.snaps.front().at > r.inject_cycle) return "classic";
    return "fork";
  }
  if (!p.use_fast_forward) return "classic";
  if (r.target != InjectTarget::kRegisterBit && !is_memory_fault(r)) return "classic";
  const auto boundary = p.boundaries.find(r.inject_cycle);
  if (boundary == p.boundaries.end()) return "classic";
  if (is_memory_fault(r) && boundary->second.conflicts(r.addr, 4)) return "classic";
  const rse::isa::Program& program = p.golden->program;
  if (r.target == InjectTarget::kInstructionWord && r.addr >= program.text_base + 4) {
    const std::size_t prev = (r.addr - 4 - program.text_base) / 4;
    if (prev < program.text.size()) {
      const rse::isa::Instr before = rse::isa::decode(program.text[prev]);
      if (before.op == rse::isa::Op::kChk && before.chk_module == rse::isa::ModuleId::kIcm) {
        return "classic";
      }
    }
  }
  return "ff";
}

std::string hex(u64 value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// Digest, golden and simulated outcome figures: all must repeat exactly.
std::string simulated_line(const CampaignReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "digest=%s golden_cycles=%llu golden_instructions=%llu coverage=%.17g "
                "sdc_rate=%.17g faults_applied=%u",
                hex(fnv1a(deterministic_digest(report))).c_str(),
                static_cast<unsigned long long>(report.golden_cycles),
                static_cast<unsigned long long>(report.golden_instructions), report.coverage(),
                report.sdc_rate(), report.faults_applied);
  return buf;
}

/// Runs of `got` (plan indices 0, 1, ...) whose record, outcome or length
/// differs from the reference's run of the same index.
u32 run_mismatches(const std::vector<RunResult>& reference, const std::vector<RunResult>& got) {
  if (got.size() > reference.size()) return static_cast<u32>(got.size());
  u32 mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const RunResult& a = reference[i];
    const RunResult& b = got[i];
    if (a.outcome != b.outcome || a.fault_applied != b.fault_applied || a.cycles != b.cycles ||
        a.record.run_index != b.record.run_index || a.record.inject_cycle != b.record.inject_cycle) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Prepare the campaign kSetupRepeats times, each with a cold golden cache;
/// returns the median CPU time and keeps the first preparation in `keep`
/// when it is non-null.
double setup_seconds(const CampaignSpec& spec, Tracer* tracer, Sheet& sheet,
                     std::optional<Prepared>* keep) {
  std::vector<double> samples;
  std::string first;
  for (int i = 0; i < kSetupRepeats; ++i) {
    CampaignRunner runner;
    const std::uint32_t span = tracer ? tracer->begin("campaign.prepare") : 0;
    const double start = cpu_seconds();
    Prepared p = prepare(spec, runner, tracer, span);
    samples.push_back(cpu_seconds() - start);
    if (tracer) tracer->end(span);
    const std::string golden = std::to_string(p.golden->cycles) + "/" +
                               std::to_string(p.golden->instructions) + "/" +
                               hex(fnv1a(p.golden->output));
    if (i == 0) {
      first = golden;
      sheet.note("golden cycles/instructions/output-hash: " + golden);
      if (keep != nullptr) *keep = std::move(p);
    } else if (golden != first) {
      sheet.fail("golden run differs between set-ups: " + golden + " vs " + first);
    }
  }
  return median(samples);
}

/// The whole campaign, then its first eighth again as shard 0 of 8: every
/// run of the eighth must repeat the full campaign's run of the same plan
/// index exactly.  Both are timed; run_cpu_ms pools them.
void measure(const CampaignSpec& spec, Sheet& sheet) {
  std::optional<Prepared> prepared;
  sheet.set("setup_s", setup_seconds(spec, nullptr, sheet, &prepared));

  const CampaignSpec eighth = [&] {
    CampaignSpec s = spec;
    s.shard_count = kRepeatShards;
    return s;
  }();
  std::optional<CampaignReport> full;
  double cpu_total = 0, runs_total = 0;
  for (const CampaignSpec* s : {&spec, &eighth}) {
    CampaignRunner runner;  // cold golden cache: run() pays its golden run
    const u32 planned = s == &spec ? spec.runs : spec.runs / kRepeatShards;
    sheet.attempted += planned;
    try {
      const double cpu = cpu_seconds();
      const auto start = Clock::now();
      CampaignReport report = runner.run(*s);
      const double wall = seconds_since(start);
      const double used = cpu_seconds() - cpu;
      const double runs = static_cast<double>(report.results.size());
      cpu_total += used;
      runs_total += runs;
      char line[192];
      std::snprintf(line, sizeof line,
                    "%s: %.0f runs, %.4f CPU ms/run; wall %.3f s (run() reports %.3f s), "
                    "%.2f runs/s",
                    s == &spec ? "campaign" : "eighth  ", runs, used * 1e3 / runs, wall,
                    report.wall_seconds, runs / wall);
      sheet.note(line);
      if (report.golden_cycles != prepared->golden->cycles ||
          report.golden_instructions != prepared->golden->instructions) {
        sheet.fail("run()'s golden run differs from the set-up's");
      }
      if (!full) {
        sheet.note("simulated: " + simulated_line(report));
        if (report.results.size() != spec.runs) sheet.fail("the campaign lost runs");
        full = std::move(report);
        continue;
      }
      const u32 mismatches = run_mismatches(full->results, report.results);
      sheet.failed += mismatches;
      if (mismatches != 0 || report.results.size() != planned) {
        sheet.fail("the eighth does not repeat the campaign's runs exactly");
      }
    } catch (const std::exception& e) {
      sheet.failed += planned;
      sheet.fail(std::string("CampaignRunner::run threw: ") + e.what());
    }
  }
  sheet.set("run_cpu_ms", runs_total > 0 ? cpu_total * 1e3 / runs_total : 0);
  sheet.set("peak_rss_mb", peak_rss_mb());
}

void trace(const CampaignSpec& spec, const Options& options, Sheet& sheet) {
  Tracer tracer;
  setup_seconds(spec, &tracer, sheet, nullptr);

  // Untraced reference: the whole run(), timed from outside.
  CampaignRunner ref_runner;
  const auto ref_start = Clock::now();
  const CampaignReport ref = ref_runner.run(spec);
  const double untraced_wall = seconds_since(ref_start);
  sheet.attempted += spec.runs;

  // The same campaign through the public phase and per-run functions.
  CampaignRunner runner;
  const std::uint32_t root = tracer.begin("campaign.traced");
  const auto traced_start = Clock::now();
  const Prepared p = prepare(spec, runner, &tracer, root);
  std::vector<RunResult> results(spec.runs);
  const u32 jobs = std::min(spec.jobs, spec.runs);
  const auto fanout_start = Clock::now();
  {
    Scope fanout(&tracer, "campaign.fanout", root);
    fan_out(spec.runs, jobs, [&](u32 i) {
      const InjectionRecord& record = p.records[i];
      Scope run(&tracer, "campaign.run", fanout.id(), i, path_of(spec, p, record));
      if (spec.snapshot_fork) {
        results[i] = runner.run_one_forked(p.setup, *p.golden, record, p.budget, p.chain);
      } else if (p.use_fast_forward) {
        results[i] = runner.run_one_fast_forward(p.setup, *p.golden, record, p.budget,
                                                 p.boundaries, &p.schedule);
      } else {
        results[i] = runner.run_one_with_budget(p.setup, *p.golden, record, p.budget);
      }
    });
  }
  const double fanout_wall = seconds_since(fanout_start);
  CampaignReport traced;
  {
    Scope s(&tracer, "campaign.aggregate", root);
    CampaignSpec recorded = spec;
    recorded.jobs = jobs;
    traced = aggregate(recorded, p.golden->cycles, p.golden->instructions, results, fanout_wall);
  }
  const double traced_wall = seconds_since(traced_start);
  tracer.end(root);
  sheet.attempted += spec.runs;

  sheet.note("untraced run(): " + simulated_line(ref));
  sheet.note("traced pass:    " + simulated_line(traced));
  if (deterministic_digest(traced) != deterministic_digest(ref)) {
    sheet.fail("the traced pass does not reproduce run()'s deterministic digest");
  }
  sheet.failed += run_mismatches(ref.results, traced.results);

  // Correctness gate: a deterministic sample re-run classic, from reset.
  std::vector<u32> sample;
  const u32 stride = std::max(1u, spec.runs / kGateSample);
  for (u32 i = 0; i < spec.runs && sample.size() < kGateSample; i += stride) sample.push_back(i);
  if (spec.snapshot_fork || p.use_fast_forward) {
    std::vector<RunResult> classic(sample.size());
    const std::uint32_t gate = tracer.begin("campaign.gate");
    fan_out(static_cast<u32>(sample.size()), jobs, [&](u32 k) {
      Scope run(&tracer, "campaign.gate_run", gate, sample[k], "classic");
      classic[k] = runner.run_one_with_budget(p.setup, *p.golden, p.records[sample[k]], p.budget);
    });
    tracer.end(gate);
    u32 mismatches = 0;
    for (std::size_t k = 0; k < sample.size(); ++k) {
      if (classic[k].outcome != results[sample[k]].outcome) ++mismatches;
    }
    sheet.attempted += sample.size();
    sheet.failed += mismatches;
    sheet.set("campaign.gate_runs", static_cast<double>(sample.size()));
    sheet.set("campaign.gate_mismatches", mismatches);
  }

  // Phase and per-run figures from the spans.
  const auto span_median = [&](const char* name) { return median(tracer.durations_ms(name)); };
  sheet.set("campaign.golden_s", span_median("campaign.golden") / 1e3);
  sheet.set("campaign.plan_ms", span_median("campaign.plan"));
  sheet.set("exec.map_boundaries_s", span_median("exec.map_boundaries") / 1e3);
  sheet.set("os.snapshot_chain_s", span_median("os.snapshot_chain") / 1e3);
  sheet.set("campaign.aggregate_ms", span_median("campaign.aggregate"));

  const std::vector<double> all_runs = tracer.durations_ms("campaign.run");
  const Tail overall = tail(all_runs);
  sheet.set("campaign.run_p50_ms", median(all_runs));
  sheet.set("campaign.run_tail_ms", overall.value);
  sheet.set("campaign.run_tail_pct", overall.percentile);
  for (const char* path : {"classic", "ff", "fork"}) {
    const std::vector<double> ms = tracer.durations_ms("campaign.run", path);
    const Tail t = tail(ms);
    sheet.set(std::string("campaign.") + path + "_run_p50_ms", median(ms));
    sheet.set(std::string("campaign.") + path + "_run_tail_ms", t.value);
    char line[160];
    std::snprintf(line, sizeof line, "%-7s runs: %zu, p50 %.3f ms, p%g %.3f ms", path, ms.size(),
                  median(ms), t.percentile, t.value);
    sheet.note(line);
  }
  double busy_ms = 0;
  for (double ms : all_runs) busy_ms += ms;
  sheet.set("campaign.parallel_efficiency", busy_ms / 1e3 / (jobs * fanout_wall));

  const FastForwardStats ff = runner.fast_forward_stats();
  const double ff_total = static_cast<double>(ff.fast + ff.fallbacks());
  sheet.set("campaign.ff_fast_share", ff_total > 0 ? static_cast<double>(ff.fast) / ff_total : 0);
  sheet.set("campaign.ff_fast", static_cast<double>(ff.fast));
  sheet.set("campaign.ff_fallback_target", static_cast<double>(ff.fallback_target));
  sheet.set("campaign.ff_fallback_unmapped", static_cast<double>(ff.fallback_unmapped));
  sheet.set("campaign.ff_fallback_conflict", static_cast<double>(ff.fallback_conflict));
  sheet.set("campaign.ff_fallback_checked", static_cast<double>(ff.fallback_checked));
  sheet.set("campaign.ff_fallback_syscall", static_cast<double>(ff.fallback_syscall));
  sheet.set("campaign.ff_fallback_suspend", static_cast<double>(ff.fallback_suspend));
  sheet.set("campaign.ff_fallback_illegal", static_cast<double>(ff.fallback_illegal));
  sheet.set("campaign.ff_fallback_other", static_cast<double>(ff.fallback_other));

  sheet.set("campaign.runs", spec.runs);
  sheet.set("campaign.coverage", ref.coverage());
  sheet.set("campaign.sdc_rate", ref.sdc_rate());
  sheet.set("campaign.runs_per_s", static_cast<double>(ref.results.size()) / untraced_wall);
  sheet.set("campaign.unreported_s", untraced_wall - ref.wall_seconds);
  sheet.set("campaign.untraced_wall_s", untraced_wall);
  sheet.set("campaign.traced_wall_s", traced_wall);
  sheet.set("campaign.trace_overhead", traced_wall / untraced_wall - 1);

  // Standalone layer probes on this workload's inputs.
  probe_load_path(p.setup, sheet);
  probe_step(p.setup, sheet);
  if (p.use_fast_forward) {
    probe_fast_exec(p.setup, /*superblock_ab=*/false, sheet);
    // fast_forward_to alone, on the fast-forward-eligible runs of the sample.
    std::vector<double> prefix_ms;
    for (u32 i : sample) {
      const InjectionRecord& r = p.records[i];
      if (std::string(path_of(spec, p, r)) != "ff") continue;
      LoadedGuest loaded(p.setup, p.golden->program, p.budget);
      const auto start = Clock::now();
      FastForwardController::fast_forward_to(loaded.guest, p.golden->program,
                                             p.boundaries.at(r.inject_cycle).position,
                                             r.inject_cycle, &p.schedule);
      prefix_ms.push_back(seconds_since(start) * 1e3);
    }
    sheet.set("exec.ff_prefix_ms", median(prefix_ms));
  }
  if (spec.snapshot_fork && !p.chain.snaps.empty()) {
    // Restore the chain's middle snapshot into fresh machines and capture it
    // again; the recapture must be bit-exact.
    const rse::os::MachineSnapshot& mid = p.chain.snaps[p.chain.snaps.size() / 2];
    std::vector<double> capture_ms, restore_ms;
    for (int i = 0; i < 5; ++i) {
      LoadedGuest loaded(p.setup, p.golden->program, p.budget);
      auto start = Clock::now();
      rse::os::MachineSnapshot::restore(mid, loaded.machine, loaded.guest);
      restore_ms.push_back(seconds_since(start) * 1e3);
      start = Clock::now();
      const rse::os::MachineSnapshot again =
          rse::os::MachineSnapshot::capture(loaded.machine, loaded.guest);
      capture_ms.push_back(seconds_since(start) * 1e3);
      if (again.bytes != mid.bytes) sheet.fail("snapshot recaptured after restore differs");
    }
    double bytes = 0;
    for (const rse::os::MachineSnapshot& s : p.chain.snaps) bytes += s.bytes.size();
    sheet.set("os.snapshot_capture_ms", median(capture_ms));
    sheet.set("os.snapshot_restore_ms", median(restore_ms));
    sheet.set("os.snapshot_kb", bytes / static_cast<double>(p.chain.snaps.size()) / 1024);
  }
  write_spans(options, tracer, sheet);
}

}  // namespace

bool run_campaign_workload(const Options& options, Sheet& sheet) {
  const std::optional<CampaignSpec> spec =
      spec_for(options.workload, options.seed, options.seconds);
  if (!spec) return false;
  sheet.note("workload " + options.workload + ": " + spec->workload + " campaign, " +
             std::to_string(spec->runs) + " runs, seed " + std::to_string(spec->seed) +
             ", jobs " + std::to_string(spec->jobs));
  if (options.trace) {
    trace(*spec, options, sheet);
  } else {
    measure(*spec, sheet);
  }
  return true;
}

}  // namespace perfbench
