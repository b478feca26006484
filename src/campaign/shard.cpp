#include "campaign/shard.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "campaign/workload.hpp"
#include "common/error.hpp"

namespace rse::campaign {

namespace {

constexpr const char* kHeader = "rse-shard-report v1";

/// max_digits10 round-trips every IEEE double exactly through decimal text.
std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

[[noreturn]] void malformed(const std::string& why) {
  throw SimError("shard report: " + why);
}

/// Consume one "key value..." line; throws when the key does not match.
std::istringstream expect_line(std::istream& in, const std::string& key) {
  std::string line;
  if (!std::getline(in, line)) malformed("truncated before '" + key + "'");
  std::istringstream ls(line);
  std::string got;
  ls >> got;
  if (got != key) malformed("expected '" + key + "', got '" + got + "'");
  return ls;
}

template <typename T>
T expect_value(std::istream& in, const std::string& key) {
  std::istringstream ls = expect_line(in, key);
  T value{};
  if (!(ls >> value)) malformed("unparsable value for '" + key + "'");
  return value;
}

/// A run line's numeral for a field whose largest value is `last`; a bare
/// cast would turn `reg 999` into register 231.
template <typename T>
T run_field(unsigned value, T last, const char* name, const std::string& line) {
  if (value > static_cast<unsigned>(last)) {
    malformed(std::string(name) + " " + std::to_string(value) + " out of range: " + line);
  }
  return static_cast<T>(value);
}

}  // namespace

std::string shard_report_text(const CampaignReport& report) {
  const CampaignSpec& spec = report.spec;
  std::ostringstream os;
  os << kHeader << '\n';
  os << "workload " << spec.workload << '\n';
  os << "runs " << spec.runs << '\n';
  os << "seed " << spec.seed << '\n';
  os << "jobs " << spec.jobs << '\n';
  os << "hang_factor " << fmt_double(spec.hang_factor) << '\n';
  os << "static_cfc " << (spec.static_cfc ? 1 : 0) << '\n';
  os << "static_ddt " << (spec.static_ddt ? 1 : 0) << '\n';
  os << "footprint_summaries " << (spec.footprint_summaries ? 1 : 0) << '\n';
  os << "context_depth " << spec.context_depth << '\n';
  os << "field_sensitive " << (spec.field_sensitive ? 1 : 0) << '\n';
  os << "fast_forward " << (spec.fast_forward ? 1 : 0) << '\n';
  os << "snapshot_buckets " << spec.snapshot_buckets << '\n';
  os << "dme " << (spec.dme ? 1 : 0) << '\n';
  os << "dme_seed_a " << spec.dme_seed_a << '\n';
  os << "dme_seed_b " << spec.dme_seed_b << '\n';
  os << "shard_index " << spec.shard_index << '\n';
  os << "shard_count " << spec.shard_count << '\n';
  os << "ci_threshold " << fmt_double(spec.ci_threshold) << '\n';
  os << "ci_batch " << spec.ci_batch << '\n';
  os << "ci_max_runs " << spec.ci_max_runs << '\n';
  os << "window_lo " << fmt_double(spec.window_lo) << '\n';
  os << "window_hi " << fmt_double(spec.window_hi) << '\n';
  os << "targets";
  for (InjectTarget target : spec.targets) os << ' ' << to_string(target);
  os << '\n';
  os << "golden_cycles " << report.golden_cycles << '\n';
  os << "golden_instructions " << report.golden_instructions << '\n';
  os << "wall_seconds " << fmt_double(report.wall_seconds) << '\n';
  for (const RunResult& result : report.results) {
    const InjectionRecord& r = result.record;
    os << "run " << r.run_index << ' ' << to_string(r.target) << ' ' << r.inject_cycle << ' '
       << static_cast<unsigned>(r.reg) << ' ' << static_cast<unsigned>(r.bit) << ' ' << r.addr
       << ' ' << r.mask << ' ' << static_cast<unsigned>(r.config_kind) << ' ' << r.ioq_slot
       << ' ' << static_cast<unsigned>(r.ioq_fault) << ' ' << static_cast<unsigned>(r.module)
       << ' ' << static_cast<unsigned>(r.module_fault) << ' ' << (result.fault_applied ? 1 : 0)
       << ' ' << to_string(result.outcome) << ' ' << result.cycles << '\n';
  }
  os << "end\n";
  return os.str();
}

CampaignReport parse_shard_report(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) malformed("missing header");

  CampaignSpec spec;
  {
    std::istringstream ls = expect_line(in, "workload");
    // Rest of line, so workload names are not constrained to one token; a
    // name the workload table lacks is no campaign this tool ran.
    std::getline(ls >> std::ws, spec.workload);
    const std::vector<std::string> names = workload_names();
    if (std::find(names.begin(), names.end(), spec.workload) == names.end()) {
      malformed("unknown workload '" + spec.workload + "'");
    }
  }
  spec.runs = expect_value<u32>(in, "runs");
  spec.seed = expect_value<u64>(in, "seed");
  spec.jobs = expect_value<u32>(in, "jobs");
  spec.hang_factor = expect_value<double>(in, "hang_factor");
  spec.static_cfc = expect_value<int>(in, "static_cfc") != 0;
  spec.static_ddt = expect_value<int>(in, "static_ddt") != 0;
  spec.footprint_summaries = expect_value<int>(in, "footprint_summaries") != 0;
  spec.context_depth = expect_value<u32>(in, "context_depth");
  spec.field_sensitive = expect_value<int>(in, "field_sensitive") != 0;
  spec.fast_forward = expect_value<int>(in, "fast_forward") != 0;
  spec.snapshot_buckets = expect_value<u32>(in, "snapshot_buckets");
  spec.dme = expect_value<int>(in, "dme") != 0;
  spec.dme_seed_a = expect_value<u64>(in, "dme_seed_a");
  spec.dme_seed_b = expect_value<u64>(in, "dme_seed_b");
  spec.shard_index = expect_value<u32>(in, "shard_index");
  spec.shard_count = expect_value<u32>(in, "shard_count");
  spec.ci_threshold = expect_value<double>(in, "ci_threshold");
  spec.ci_batch = expect_value<u32>(in, "ci_batch");
  spec.ci_max_runs = expect_value<u32>(in, "ci_max_runs");
  spec.window_lo = expect_value<double>(in, "window_lo");
  spec.window_hi = expect_value<double>(in, "window_hi");
  {
    std::istringstream ls = expect_line(in, "targets");
    spec.targets.clear();
    std::string name;
    while (ls >> name) {
      InjectTarget target;
      if (!parse_target(name, &target)) malformed("unknown target '" + name + "'");
      spec.targets.push_back(target);
    }
    if (spec.targets.empty()) malformed("no targets");
  }
  validate(spec);  // a header the runner would refuse is no campaign it ran
  const Cycle golden_cycles = expect_value<Cycle>(in, "golden_cycles");
  const u64 golden_instructions = expect_value<u64>(in, "golden_instructions");
  const double wall_seconds = expect_value<double>(in, "wall_seconds");

  std::vector<RunResult> results;
  while (std::getline(in, line)) {
    if (line == "end") {
      return aggregate(spec, golden_cycles, golden_instructions, std::move(results),
                       wall_seconds);
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "run") malformed("expected 'run' or 'end', got '" + tag + "'");
    RunResult result;
    InjectionRecord& r = result.record;
    r.campaign_seed = spec.seed;
    std::string target_name, outcome_name;
    unsigned reg = 0, bit = 0, config_kind = 0, ioq_fault = 0, module = 0, module_fault = 0;
    int applied = 0;
    if (!(ls >> r.run_index >> target_name >> r.inject_cycle >> reg >> bit >> r.addr >>
          r.mask >> config_kind >> r.ioq_slot >> ioq_fault >> module >> module_fault >>
          applied >> outcome_name >> result.cycles)) {
      malformed("unparsable run line: " + line);
    }
    if (!parse_target(target_name, &r.target)) malformed("unknown target '" + target_name + "'");
    if (!parse_outcome(outcome_name, &result.outcome)) {
      malformed("unknown outcome '" + outcome_name + "'");
    }
    r.reg = run_field(reg, kPcPseudoReg, "reg", line);
    r.bit = run_field(bit, u8{31}, "bit", line);
    r.config_kind =
        run_field(config_kind, ConfigFaultKind::kModuleBehaviour, "config_kind", line);
    r.ioq_fault = run_field(ioq_fault, engine::IoqStuckFault::kCheckStuck1, "ioq_fault", line);
    r.module = run_field(module, isa::ModuleId::kCfc, "module", line);
    r.module_fault =
        run_field(module_fault, engine::ModuleFaultMode::kFalseNegative, "module_fault", line);
    result.fault_applied = applied != 0;
    results.push_back(result);
  }
  malformed("missing 'end' trailer");
}

bool write_shard_report(const CampaignReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << shard_report_text(report);
  return static_cast<bool>(out.flush());
}

CampaignReport read_shard_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SimError("shard report: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_shard_report(buffer.str());
}

CampaignReport merge_shard_reports(const std::vector<CampaignReport>& shards) {
  if (shards.empty()) malformed("nothing to merge");

  // Every shard must come from the same campaign: identical spec except for
  // which range it executed, and an identical golden run.
  const CampaignReport& first = shards.front();
  for (const CampaignReport& shard : shards) {
    const CampaignSpec& a = first.spec;
    const CampaignSpec& b = shard.spec;
    const bool same_campaign =
        a.workload == b.workload && a.runs == b.runs && a.seed == b.seed &&
        a.hang_factor == b.hang_factor && a.static_cfc == b.static_cfc &&
        a.static_ddt == b.static_ddt && a.footprint_summaries == b.footprint_summaries &&
        a.context_depth == b.context_depth && a.field_sensitive == b.field_sensitive &&
        a.dme == b.dme && a.dme_seed_a == b.dme_seed_a && a.dme_seed_b == b.dme_seed_b &&
        a.window_lo == b.window_lo && a.window_hi == b.window_hi && a.targets == b.targets &&
        first.golden_cycles == shard.golden_cycles &&
        first.golden_instructions == shard.golden_instructions;
    if (!same_campaign) malformed("shards disagree on campaign spec or golden run");
  }

  std::vector<RunResult> results;
  double wall_seconds = 0;
  for (const CampaignReport& shard : shards) {
    results.insert(results.end(), shard.results.begin(), shard.results.end());
    wall_seconds += shard.wall_seconds;
  }
  std::sort(results.begin(), results.end(), [](const RunResult& a, const RunResult& b) {
    return a.record.run_index < b.record.run_index;
  });
  if (results.size() != first.spec.runs) {
    malformed("merged shards hold " + std::to_string(results.size()) + " runs, campaign has " +
              std::to_string(first.spec.runs));
  }
  for (u32 i = 0; i < results.size(); ++i) {
    if (results[i].record.run_index != i) {
      malformed("run indices do not partition the plan (duplicate or gap at index " +
                std::to_string(results[i].record.run_index) + ")");
    }
  }

  // The merged report *is* the unsharded campaign: shard coordinates reset,
  // so its deterministic digest matches an unsharded run byte-for-byte.
  CampaignSpec spec = first.spec;
  spec.shard_index = 0;
  spec.shard_count = 1;
  return aggregate(spec, first.golden_cycles, first.golden_instructions, std::move(results),
                   wall_seconds);
}

CampaignReport merge_shard_files(const std::vector<std::string>& paths) {
  std::vector<CampaignReport> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) shards.push_back(read_shard_report(path));
  return merge_shard_reports(shards);
}

}  // namespace rse::campaign
