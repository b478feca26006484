#include "rse/dme.hpp"

#include <algorithm>

#include "exec/fast_session.hpp"

namespace rse::dme {

namespace {

void install_core_recorder(os::Machine& machine, const RegionMap& map, CanonicalTrace* out,
                           u64 max_records) {
  machine.core().set_commit_observer(
      [map, out, max_records](Cycle, const engine::CommitInfo& info) {
        if (out->records.size() >= max_records) {
          out->truncated = true;
          return;
        }
        out->records.push_back(make_record(map, info));
      });
}

}  // namespace

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

  if (prefer_fast) {
    // Second consumer of the fast-path engine: the fault-free variant body
    // runs functionally, and any bail (non-whitelisted syscall, threads,
    // illegal word) transplants into the cycle-accurate core which keeps
    // appending to the same trace — the stream stays the committed-
    // instruction stream throughout.
    exec::FastSession session(guest, exec::FastSessionConfig{});
    session.set_instr_trace([map = result.map, out = &result.trace, max_records](
                                Addr pc, Word raw, bool is_mem, bool is_store, Addr ea,
                                Word value) {
      if (out->records.size() >= max_records) {
        out->truncated = true;
        return;
      }
      out->records.push_back(make_record(map, pc, raw, is_mem, is_store, ea, value));
    });
    session.seed_leaders(program);
    const exec::FastSession::Status status = session.run_until(os_config.run_limit);
    result.fast = status != exec::FastSession::Status::kBail;
    if (status == exec::FastSession::Status::kBail) {
      session.transplant(session.virtual_now());
      install_core_recorder(machine, result.map, &result.trace, max_records);
      guest.run();
    }
  } else {
    install_core_recorder(machine, result.map, &result.trace, max_records);
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
