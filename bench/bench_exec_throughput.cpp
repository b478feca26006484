// Fast-path engine throughput: MIPS of the exec/ fast engine (decoded block
// cache + direct-memory path) vs. the cycle-accurate OoO core on the same
// workloads, with an output-equality cross-check per measurement.  Fast mode
// is measured twice — per-block dispatch and superblock (chained) dispatch —
// and BOTH arms must clear the 10x instruction-throughput floor the smoke
// ctest enforces in CI; the superblock gain over per-block dispatch is
// recorded alongside.  Writes BENCH_exec.json (perf trajectory) and exits
// nonzero on any floor or output-equality violation.
//
//   bench_exec_throughput [--smoke] [--json PATH] [workload...]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/workload.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"
#include "report/table.hpp"

using namespace rse;
using Clock = std::chrono::steady_clock;

namespace {

struct Measurement {
  u64 instructions = 0;
  double seconds = 0;
  std::string output;
  double mips() const { return seconds > 0 ? instructions / seconds / 1e6 : 0; }
};

enum class Mode { kClassic, kFastPerBlock, kFastSuperblock };

/// One fresh end-to-end run, accumulated into `m`.
void run_once(const campaign::WorkloadSetup& setup, const isa::Program& program, Mode mode,
              Measurement& m) {
  os::Machine machine(setup.machine);
  os::GuestOs guest(machine, setup.os);
  guest.load(program);
  for (isa::ModuleId id : setup.host_enables) guest.enable_module(id);

  const auto start = Clock::now();
  if (mode != Mode::kClassic) {
    exec::FastSessionConfig config;
    config.relaxed = true;
    config.superblocks = mode == Mode::kFastSuperblock;
    exec::FastSession session(guest, config);
    session.seed_leaders(program);
    session.run_to_end();
    m.instructions += session.executed() - session.engine().chks_executed() +
                      machine.core().stats().instructions;
  } else {
    guest.run();
    m.instructions += machine.core().stats().instructions;
  }
  m.seconds += std::chrono::duration<double>(Clock::now() - start).count();
  m.output = guest.output();
  if (!guest.finished()) {
    std::cerr << "workload '" << setup.name << "' hit the run limit\n";
    std::exit(1);
  }
}

/// Repeat fresh runs until `min_seconds` of measured execution accumulates.
Measurement measure(const campaign::WorkloadSetup& setup, const isa::Program& program,
                    Mode mode, double min_seconds) {
  Measurement m;
  while (m.seconds < min_seconds) run_once(setup, program, mode, m);
  return m;
}

/// The two fast arms, with repetitions interleaved so slow clock drift
/// (turbo decay, thermal throttling) biases neither arm: the superblock
/// gain is a ratio of near-simultaneous samples.
std::pair<Measurement, Measurement> measure_fast_pair(const campaign::WorkloadSetup& setup,
                                                      const isa::Program& program,
                                                      double min_seconds) {
  Measurement per_block, super;
  while (per_block.seconds < min_seconds || super.seconds < min_seconds) {
    run_once(setup, program, Mode::kFastPerBlock, per_block);
    run_once(setup, program, Mode::kFastSuperblock, super);
  }
  return {per_block, super};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_exec.json";
  std::vector<std::string> workload_list;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else workload_list.push_back(arg);
  }
  if (workload_list.empty()) {
    workload_list = smoke ? std::vector<std::string>{"loop"}
                          : std::vector<std::string>{"loop", "kmeans"};
  }
  const double min_seconds = smoke ? 0.05 : 0.4;
  constexpr double kRequiredSpeedup = 10.0;

  report::Table table({"workload", "classic MIPS", "per-block MIPS", "superblock MIPS",
                       "speedup", "sb gain", "output match"});
  std::ostringstream json;
  json << "{\n  \"bench\": \"exec_throughput\",\n  \"required_speedup\": "
       << kRequiredSpeedup << ",\n  \"workloads\": [\n";

  double min_speedup = -1;  // over BOTH fast arms: the floor holds either way
  bool all_outputs_match = true;
  for (std::size_t w = 0; w < workload_list.size(); ++w) {
    const campaign::WorkloadSetup setup = campaign::make_workload(workload_list[w]);
    const isa::Program program = isa::assemble(setup.source);
    const Measurement classic = measure(setup, program, Mode::kClassic, min_seconds);
    const auto [per_block, super] = measure_fast_pair(setup, program, min_seconds);
    const double per_block_speedup =
        classic.mips() > 0 ? per_block.mips() / classic.mips() : 0;
    const double super_speedup = classic.mips() > 0 ? super.mips() / classic.mips() : 0;
    const double sb_gain = per_block.mips() > 0 ? super.mips() / per_block.mips() : 0;
    const bool match =
        per_block.output == classic.output && super.output == classic.output;
    all_outputs_match = all_outputs_match && match;
    const double workload_min = std::min(per_block_speedup, super_speedup);
    if (min_speedup < 0 || workload_min < min_speedup) min_speedup = workload_min;

    table.row({setup.name, report::fmt_fixed(classic.mips(), 2),
               report::fmt_fixed(per_block.mips(), 2), report::fmt_fixed(super.mips(), 2),
               report::fmt_fixed(super_speedup, 1), report::fmt_fixed(sb_gain, 2),
               match ? "yes" : "NO"});
    json << "    {\"name\": \"" << setup.name << "\", \"classic_mips\": "
         << report::fmt_fixed(classic.mips(), 3) << ", \"fast_mips_perblock\": "
         << report::fmt_fixed(per_block.mips(), 3) << ", \"fast_mips_superblock\": "
         << report::fmt_fixed(super.mips(), 3) << ", \"speedup\": "
         << report::fmt_fixed(super_speedup, 2) << ", \"superblock_gain\": "
         << report::fmt_fixed(sb_gain, 2) << ", \"output_match\": "
         << (match ? "true" : "false") << "}" << (w + 1 < workload_list.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"min_speedup\": " << report::fmt_fixed(min_speedup, 2) << "\n}\n";
  table.print();

  std::ofstream out(json_path);
  out << json.str();
  if (!out) {
    std::cerr << "failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";

  if (!all_outputs_match) {
    std::cerr << "fast-mode output diverged from the cycle-accurate run\n";
    return 1;
  }
  if (min_speedup < kRequiredSpeedup) {
    std::cerr << "fast mode is only " << min_speedup << "x the cycle-accurate core "
              << "(floor: " << kRequiredSpeedup << "x, enforced with superblocks "
              << "enabled and disabled)\n";
    return 1;
  }
  return 0;
}
