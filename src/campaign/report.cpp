#include "campaign/report.hpp"

#include <iomanip>
#include <sstream>

#include "campaign/stats.hpp"
#include "common/error.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

namespace rse::campaign {

void validate(const CampaignSpec& spec) {
  const auto check = [](bool ok, const std::string& rule) {
    if (!ok) throw ConfigError("campaign " + rule);
  };
  const std::string max_runs = std::to_string(kMaxRuns);
  check(spec.runs >= 1 && spec.runs <= kMaxRuns && spec.ci_max_runs <= kMaxRuns,
        "runs must lie in [1, " + max_runs + "] and the refinement cap in [0, " + max_runs + "]");
  check(spec.jobs <= kMaxJobs, "jobs must lie in [0, " + std::to_string(kMaxJobs) + "]");
  // The CLI's range; the hang budget casts golden cycles x this to a Cycle.
  check(spec.hang_factor >= 0.0 && spec.hang_factor <= 1e6,
        "hang factor must lie in [0, 1000000]");
  check(spec.shard_count != 0 && spec.shard_index < spec.shard_count, "shard index out of range");
  check(!(spec.ci_threshold > 0.0 && spec.shard_count > 1),
        "CI refinement is incompatible with sharding: the refined run set depends on global "
        "outcome counts no shard has");
  check(spec.snapshot_buckets >= 1 && spec.snapshot_buckets <= kMaxSnapshotBuckets,
        "snapshot buckets must lie in [1, " + std::to_string(kMaxSnapshotBuckets) + "]");
  check(spec.window_lo >= 0.0 && spec.window_lo <= spec.window_hi && spec.window_hi <= 1.0,
        "injection window must satisfy 0 <= lo <= hi <= 1");
}

u32 CampaignReport::detected() const {
  u32 n = 0;
  for (unsigned o = 0; o < kNumOutcomes; ++o) {
    if (is_detected(static_cast<Outcome>(o))) n += by_outcome[o];
  }
  return n;
}

u32 CampaignReport::unmasked() const {
  return static_cast<u32>(results.size()) - by_outcome[static_cast<unsigned>(Outcome::kMasked)];
}

double CampaignReport::coverage() const {
  const u32 base = unmasked();
  return base == 0 ? 0.0 : static_cast<double>(detected()) / base;
}

double CampaignReport::sdc_rate() const {
  return results.empty() ? 0.0
                         : static_cast<double>(by_outcome[static_cast<unsigned>(Outcome::kSdc)]) /
                               results.size();
}

CampaignReport aggregate(const CampaignSpec& spec, Cycle golden_cycles,
                         u64 golden_instructions, std::vector<RunResult> results,
                         double wall_seconds) {
  CampaignReport report;
  report.spec = spec;
  report.golden_cycles = golden_cycles;
  report.golden_instructions = golden_instructions;
  report.results = std::move(results);
  for (const RunResult& r : report.results) {
    const auto target = static_cast<unsigned>(r.record.target);
    const auto outcome = static_cast<unsigned>(r.outcome);
    ++report.by_outcome[outcome];
    ++report.by_target_outcome[target][outcome];
    ++report.by_target_runs[target];
    if (r.fault_applied) ++report.faults_applied;
  }
  report.wall_seconds = wall_seconds;
  report.runs_per_second =
      wall_seconds > 0 ? static_cast<double>(report.results.size()) / wall_seconds : 0.0;
  return report;
}

std::string summary_text(const CampaignReport& report) {
  std::ostringstream os;
  os << "campaign: workload=" << report.spec.workload << " runs=" << report.results.size()
     << " seed=" << report.spec.seed << " jobs=" << report.spec.jobs
     << " golden_cycles=" << report.golden_cycles << "\n";

  const u32 total_runs = static_cast<u32>(report.results.size());
  auto fmt_ci = [](const WilsonInterval& ci) {
    std::string s = "[";
    s += report::fmt_pct(ci.low);
    s += ", ";
    s += report::fmt_pct(ci.high);
    s += "]";
    return s;
  };
  report::Table outcomes({"outcome", "runs", "share", "95% CI"});
  for (unsigned o = 0; o < kNumOutcomes; ++o) {
    const u32 n = report.by_outcome[o];
    outcomes.row({to_string(static_cast<Outcome>(o)), std::to_string(n),
                  report::fmt_pct(report.results.empty()
                                      ? 0.0
                                      : static_cast<double>(n) / report.results.size()),
                  fmt_ci(wilson_interval(n, total_runs))});
  }
  outcomes.print(os);

  report::Table targets({"target", "runs", "masked", "detected", "sdc", "crash", "hang",
                         "coverage"});
  for (unsigned t = 0; t < kNumInjectTargets; ++t) {
    const auto& row = report.by_target_outcome[t];
    u32 det = 0;
    for (unsigned o = 0; o < kNumOutcomes; ++o) {
      if (is_detected(static_cast<Outcome>(o))) det += row[o];
    }
    const u32 runs = report.by_target_runs[t];
    const u32 masked = row[static_cast<unsigned>(Outcome::kMasked)];
    const u32 unmasked = runs - masked;
    targets.row({to_string(static_cast<InjectTarget>(t)), std::to_string(runs),
                 std::to_string(masked), std::to_string(det),
                 std::to_string(row[static_cast<unsigned>(Outcome::kSdc)]),
                 std::to_string(row[static_cast<unsigned>(Outcome::kCrash)]),
                 std::to_string(row[static_cast<unsigned>(Outcome::kHang)]),
                 unmasked == 0 ? "-" : report::fmt_pct(static_cast<double>(det) / unmasked)});
  }
  targets.print(os);

  // Per-module detection coverage: which detector caught the unmasked faults.
  report::Table modules({"detector", "detections", "share of unmasked"});
  const u32 unmasked = report.unmasked();
  auto module_row = [&](const char* name, Outcome outcome) {
    const u32 n = report.by_outcome[static_cast<unsigned>(outcome)];
    modules.row({name, std::to_string(n),
                 unmasked == 0 ? "-" : report::fmt_pct(static_cast<double>(n) / unmasked)});
  };
  module_row("ICM", Outcome::kDetectedIcm);
  module_row("CFC", Outcome::kDetectedCfc);
  module_row("DDT", Outcome::kDetectedDdt);
  module_row("self-check", Outcome::kDetectedSelfCheck);
  // Always printed — zero rows included — so detect/miss golden matrices
  // diff cleanly across campaigns with and without --dme.
  module_row("DME", Outcome::kDetectedDme);
  modules.print(os);

  os << "detection coverage (detected/unmasked): " << report::fmt_pct(report.coverage())
     << " 95% CI " << fmt_ci(wilson_interval(report.detected(), report.unmasked()))
     << "   SDC rate: " << report::fmt_pct(report.sdc_rate()) << " 95% CI "
     << fmt_ci(wilson_interval(report.by_outcome[static_cast<unsigned>(Outcome::kSdc)],
                               total_runs))
     << "\n";
  os << "throughput: " << report::fmt_fixed(report.runs_per_second, 1) << " runs/sec ("
     << report::fmt_fixed(report.wall_seconds, 2) << " s wall clock)\n";
  return os.str();
}

namespace {

/// DDT-mode digest token.  Context depth 0 keeps the historical
/// "static-ddt-summary" spelling byte-for-byte (so `--context-depth 0`
/// reproduces the pre-context digests exactly); depth > 0 appends a
/// "-ctx<depth>" suffix so goldens and digests never leak across depths.
/// Flat mode ignores the depth (the analyzer does too).  Field-sensitive
/// mode (the default) appends "-field" to every static-ddt family so the
/// residue-page and dense-hull domains never share goldens or digests;
/// `--no-field-sensitive` reproduces the pre-field tokens byte-for-byte.
std::string ddt_mode_token(const CampaignSpec& spec) {
  if (!spec.static_ddt) return "dynamic-ddt";
  const std::string field = spec.field_sensitive ? "-field" : "";
  if (!spec.footprint_summaries) return "static-ddt-flat" + field;
  if (spec.context_depth == 0) return "static-ddt-summary" + field;
  return "static-ddt-summary-ctx" + std::to_string(spec.context_depth) + field;
}

std::string fmt_fraction(double value) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << value;
  return os.str();
}

/// Digest tokens for the modes that change the *executed run set* — and only
/// those.  A non-default injection window redraws every injection cycle and
/// CI refinement appends runs, so both must key the digest.  Execution
/// strategy knobs (snapshot_buckets, shard_index/shard_count, jobs,
/// fast_forward) are deliberately absent: they change how runs are
/// simulated, never which runs exist or how they classify, and the
/// shard-merge / checkpoint-fork determinism tests assert exactly that.
/// Both tokens are empty at their defaults so historical digests are
/// preserved byte-for-byte (same pattern as ddt_mode_token's depth-0 form).
std::string run_set_tokens(const CampaignSpec& spec) {
  std::string tokens;
  if (spec.window_lo != 0.0 || spec.window_hi != 1.0) {
    tokens += "|window" + fmt_fraction(spec.window_lo) + "-" + fmt_fraction(spec.window_hi);
  }
  if (spec.ci_threshold > 0.0) {
    tokens += "|ci-refine" + fmt_fraction(spec.ci_threshold);
  }
  // DME changes both the executed variant (randomized layout under seed A)
  // and the classification evidence (trace diffs against seed B), so the
  // seed pair keys the digest.  Empty at the default (--dme off).
  if (spec.dme) {
    tokens += "|dme" + std::to_string(spec.dme_seed_a) + "-" + std::to_string(spec.dme_seed_b);
  }
  return tokens;
}

}  // namespace

std::string deterministic_digest(const CampaignReport& report) {
  std::ostringstream os;
  os << report.spec.workload << '|' << report.spec.seed << '|' << report.results.size() << '|'
     << report.golden_cycles << '|' << report.faults_applied << '|'
     << (report.spec.static_cfc ? "static-cfc" : "range-cfc") << '|'
     << ddt_mode_token(report.spec) << run_set_tokens(report.spec) << '\n';
  for (unsigned o = 0; o < kNumOutcomes; ++o) {
    os << to_string(static_cast<Outcome>(o)) << '=' << report.by_outcome[o] << '\n';
  }
  for (const RunResult& r : report.results) {
    // No per-run cycle count here: the classified outcome is mode-invariant
    // but the faulty run's length is microarchitectural timing, which
    // legitimately differs under --fast-forward (cold caches/predictor after
    // the transplant).  Cycle counts stay in the CSV/JSON exports.
    os << r.record.run_index << ':' << to_string(r.record.target) << ':'
       << r.record.inject_cycle << ':' << to_string(r.outcome) << '\n';
  }
  return os.str();
}

std::string to_json(const CampaignReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"workload\": \"" << report.spec.workload << "\",\n";
  os << "  \"runs\": " << report.results.size() << ",\n";
  os << "  \"seed\": " << report.spec.seed << ",\n";
  os << "  \"jobs\": " << report.spec.jobs << ",\n";
  os << "  \"hang_factor\": " << fmt_fraction(report.spec.hang_factor) << ",\n";
  os << "  \"static_cfc\": " << (report.spec.static_cfc ? "true" : "false") << ",\n";
  os << "  \"static_ddt\": " << (report.spec.static_ddt ? "true" : "false") << ",\n";
  os << "  \"footprint_summaries\": " << (report.spec.footprint_summaries ? "true" : "false")
     << ",\n";
  os << "  \"context_depth\": " << report.spec.context_depth << ",\n";
  os << "  \"field_sensitive\": " << (report.spec.field_sensitive ? "true" : "false") << ",\n";
  os << "  \"fast_forward\": " << (report.spec.fast_forward ? "true" : "false") << ",\n";
  os << "  \"snapshot_buckets\": " << report.spec.snapshot_buckets << ",\n";
  os << "  \"dme\": " << (report.spec.dme ? "true" : "false") << ",\n";
  os << "  \"dme_seed_a\": " << report.spec.dme_seed_a << ",\n";
  os << "  \"dme_seed_b\": " << report.spec.dme_seed_b << ",\n";
  os << "  \"shard_index\": " << report.spec.shard_index << ",\n";
  os << "  \"shard_count\": " << report.spec.shard_count << ",\n";
  os << "  \"ci_threshold\": " << fmt_fraction(report.spec.ci_threshold) << ",\n";
  os << "  \"ci_batch\": " << report.spec.ci_batch << ",\n";
  os << "  \"ci_max_runs\": " << report.spec.ci_max_runs << ",\n";
  os << "  \"window_lo\": " << fmt_fraction(report.spec.window_lo) << ",\n";
  os << "  \"window_hi\": " << fmt_fraction(report.spec.window_hi) << ",\n";
  os << "  \"targets\": [";
  for (std::size_t t = 0; t < report.spec.targets.size(); ++t) {
    os << (t ? ", " : "") << '"' << to_string(report.spec.targets[t]) << '"';
  }
  os << "],\n";
  os << "  \"golden_cycles\": " << report.golden_cycles << ",\n";
  os << "  \"golden_instructions\": " << report.golden_instructions << ",\n";
  os << "  \"faults_applied\": " << report.faults_applied << ",\n";
  os << "  \"outcomes\": {";
  for (unsigned o = 0; o < kNumOutcomes; ++o) {
    os << (o ? ", " : "") << '"' << to_string(static_cast<Outcome>(o))
       << "\": " << report.by_outcome[o];
  }
  os << "},\n";
  os << "  \"by_target\": {";
  for (unsigned t = 0; t < kNumInjectTargets; ++t) {
    os << (t ? ", " : "") << '"' << to_string(static_cast<InjectTarget>(t)) << "\": {";
    for (unsigned o = 0; o < kNumOutcomes; ++o) {
      os << (o ? ", " : "") << '"' << to_string(static_cast<Outcome>(o))
         << "\": " << report.by_target_outcome[t][o];
    }
    os << '}';
  }
  os << "},\n";
  os << "  \"outcome_ci\": {";
  for (unsigned o = 0; o < kNumOutcomes; ++o) {
    const WilsonInterval ci =
        wilson_interval(report.by_outcome[o], static_cast<u32>(report.results.size()));
    os << (o ? ", " : "") << '"' << to_string(static_cast<Outcome>(o)) << "\": ["
       << fmt_fraction(ci.low) << ", " << fmt_fraction(ci.high) << ']';
  }
  os << "},\n";
  os << "  \"detected\": " << report.detected() << ",\n";
  os << "  \"unmasked\": " << report.unmasked() << ",\n";
  {
    const WilsonInterval ci = wilson_interval(report.detected(), report.unmasked());
    os << "  \"coverage_ci\": [" << fmt_fraction(ci.low) << ", " << fmt_fraction(ci.high)
       << "],\n";
  }
  os << std::fixed << std::setprecision(6);
  os << "  \"coverage\": " << report.coverage() << ",\n";
  os << "  \"sdc_rate\": " << report.sdc_rate() << ",\n";
  os << "  \"wall_seconds\": " << report.wall_seconds << ",\n";
  os << "  \"runs_per_second\": " << report.runs_per_second << "\n";
  os << "}\n";
  return os.str();
}

bool write_runs_csv(const CampaignReport& report, const std::string& path) {
  report::CsvWriter csv(path, {"run", "target", "inject_cycle", "reg", "bit", "addr", "mask",
                               "ioq_slot", "config_kind", "applied", "outcome", "cycles"});
  for (const RunResult& r : report.results) {
    std::ostringstream addr, mask;
    addr << "0x" << std::hex << r.record.addr;
    mask << "0x" << std::hex << r.record.mask;
    csv.row({std::to_string(r.record.run_index), to_string(r.record.target),
             std::to_string(r.record.inject_cycle), std::to_string(r.record.reg),
             std::to_string(r.record.bit), addr.str(), mask.str(),
             std::to_string(r.record.ioq_slot),
             r.record.target == InjectTarget::kConfigBit
                 ? (r.record.config_kind == ConfigFaultKind::kIoqStuck ? "ioq" : "module")
                 : "",
             r.fault_applied ? "1" : "0", to_string(r.outcome), std::to_string(r.cycles)});
  }
  return csv.flush();
}

}  // namespace rse::campaign
