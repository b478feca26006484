#include "rse/dme.hpp"

#include <algorithm>

#include "exec/fast_session.hpp"

namespace rse::dme {

RecordedTrace record_trace(const VariantSpec& spec, const isa::Program& program,
                           u64 max_records, bool prefer_fast) {
  os::MachineConfig machine_config = spec.machine;
  machine_config.framework_present = true;  // MLR lives in the framework
  machine_config.mlr.seed = spec.mlr_seed;
  os::OsConfig os_config = spec.os;
  os_config.randomize_layout = true;

  os::Machine machine(machine_config);
  os::GuestOs guest(machine, os_config);
  guest.load(program);
  for (isa::ModuleId id : spec.host_enables) guest.enable_module(id);

  RecordedTrace result;
  result.map = RegionMap::of(guest);
  machine.core().set_commit_observer(
      [map = result.map, out = &result.trace, max_records](Cycle, const engine::CommitInfo& info) {
        if (out->records.size() >= max_records) {
          out->truncated = true;
          return;
        }
        out->records.push_back(make_record(map, info));
      });

  if (prefer_fast) {
    // Second consumer of the fast-path engine: the fault-free variant body
    // runs functionally, and any bail (non-whitelisted syscall, threads,
    // illegal word) transplants into the cycle-accurate core, which keeps
    // feeding the same recorder.
    exec::FastSession session(guest, exec::FastSessionConfig{});
    session.seed_leaders(program);
    result.fast = session.run_to_end() != exec::FastSession::Status::kBail;
  } else {
    guest.run();
  }

  result.finished = guest.finished();
  result.exit_code = guest.exit_code();
  result.output = guest.output();
  return result;
}

DmeResult compare_traces(const RecordedTrace& run, const CanonicalTrace& reference) {
  const auto& a = run.trace.records;
  const auto& b = reference.records;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!a[i].matches(b[i])) return DmeResult{1, i};
  }
  // Both traces complete (neither hit its record cap) but one ran longer:
  // a layout-dependent difference in the executed instruction count.
  if (a.size() != b.size() && !run.trace.truncated && !reference.truncated) {
    return DmeResult{1, n};
  }
  return DmeResult{};
}

}  // namespace rse::dme
