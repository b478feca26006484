// Static-DDT detection study: a register/data-word fault sweep run twice,
// once with the dynamic-only DDT (page ownership tracking, no prediction)
// and once with the static data-flow footprint installed at load
// (docs/analysis.md).  The dynamic DDT tracks whatever pages the program
// touches — it cannot tell a legitimate page from one reached through a
// corrupted base register.  The footprint check can: a committed access at
// a statically resolved site landing outside the predicted page set is a
// detection the baseline has no mechanism for.
//
// The sweep also quantifies the activation benefit: the fraction of first
// store touches that found their PST entry pre-reserved (SavePage setup
// work paid at load instead of in the middle of the run) — and the
// context-sensitivity gain: a third mode runs the footprint at
// --context-depth 0, so "static-footprint minus static-ctx0" counts the
// detections only the per-call-site page tables provide — and the
// field-sensitivity gain: a fourth mode runs the dense-hull domain
// (--no-field-sensitive), so "static-footprint minus static-field-off"
// counts the detections only the strided residue pages provide (a fault
// landing between the residues of a strided walk is inside the hull).
// (usage: bench_ddt_static [workload] [samples] [--expect-context-gain]
//         [--expect-field-gain]).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

using namespace rse;

namespace {

struct ModeTally {
  u32 injected = 0;
  u32 detected_ddt = 0;
  u32 detected_other = 0;
  u32 sdc = 0;
  u32 masked = 0;
  u32 crash_hang = 0;

  void add(const campaign::RunResult& result) {
    if (!result.fault_applied) return;
    ++injected;
    if (result.outcome == campaign::Outcome::kDetectedDdt) {
      ++detected_ddt;
    } else if (campaign::is_detected(result.outcome)) {
      ++detected_other;
    } else if (result.outcome == campaign::Outcome::kSdc) {
      ++sdc;
    } else if (result.outcome == campaign::Outcome::kMasked) {
      ++masked;
    } else {
      ++crash_hang;
    }
  }

  double coverage() const {
    const u32 unmasked = injected - masked;
    return unmasked > 0 ? 100.0 * static_cast<double>(detected_ddt + detected_other) /
                              static_cast<double>(unmasked)
                        : 0.0;
  }
};

/// Fault-free run with the footprint installed: pre-reservation hit rate.
/// Returns the number of PST entries reserved at load (the footprint's
/// predicted store-page count — smaller is tighter).
u32 report_prereservation(const campaign::WorkloadSetup& setup, const char* label) {
  os::OsConfig os_config = setup.os;
  os_config.static_ddt = true;
  os::Machine machine(setup.machine);
  os::GuestOs guest(machine, os_config);
  guest.load(isa::assemble(setup.source));
  for (isa::ModuleId id : setup.host_enables) guest.enable_module(id);
  guest.run();
  const auto& stats = machine.ddt()->stats();
  const double hit_rate = stats.pst_prereserved > 0
                              ? 100.0 * static_cast<double>(stats.prereserve_hits) /
                                    static_cast<double>(stats.pst_prereserved)
                              : 0.0;
  std::cout << "PST pre-reservation (" << label << "): " << stats.pst_prereserved
            << " reserved at load, " << stats.prereserve_hits << " first-touch hits ("
            << report::fmt_fixed(hit_rate, 1) << "% of reservations used), "
            << stats.footprint_checks << " accesses checked, "
            << stats.footprint_violations << " violations (clean run)\n";
  return stats.pst_prereserved;
}

}  // namespace

int main(int argc, char** argv) {
  // kmeans is the showcase: single-threaded (a register fault is never
  // masked by a context-switch restore) with statically resolved store
  // kernels the corrupted base registers feed into.  The args workload is
  // the context-sensitivity showcase: its callee accesses only resolve
  // under --context-depth > 0, so the depth-0 sweep cannot check them.
  const std::string workload = argc > 1 ? argv[1] : "kmeans";
  const u32 samples = argc > 2 ? static_cast<u32>(std::stoul(argv[2])) : 96;
  bool expect_context_gain = false;
  bool expect_field_gain = false;
  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--expect-context-gain") expect_context_gain = true;
    if (std::string(argv[i]) == "--expect-field-gain") expect_field_gain = true;
  }

  campaign::CampaignRunner runner;
  campaign::WorkloadSetup base = campaign::make_workload(workload);
  if (std::find(base.host_enables.begin(), base.host_enables.end(), isa::ModuleId::kDdt) ==
      base.host_enables.end()) {
    base.host_enables.push_back(isa::ModuleId::kDdt);  // dynamic-only baseline
  }
  campaign::WorkloadSetup ctx0 = base;
  ctx0.os.static_ddt = true;
  ctx0.os.context_depth = 0;  // context-insensitive footprint
  campaign::WorkloadSetup field_off = base;
  field_off.os.static_ddt = true;
  field_off.os.field_sensitive = false;  // dense interval hulls
  campaign::WorkloadSetup tight = base;
  tight.os.static_ddt = true;  // default context depth, field-sensitive

  const auto golden_base = runner.cache().get(base);
  const auto golden_ctx0 = runner.cache().get(ctx0);
  const auto golden_field = runner.cache().get(field_off);
  const auto golden_tight = runner.cache().get(tight);
  if (golden_base->cycles != golden_tight->cycles ||
      golden_base->cycles != golden_ctx0->cycles ||
      golden_base->cycles != golden_field->cycles) {
    std::cerr << "golden runs diverge between DDT modes\n";
    return 1;
  }
  if (golden_tight->ddt_footprint_violations != 0 ||
      golden_ctx0->ddt_footprint_violations != 0 ||
      golden_field->ddt_footprint_violations != 0) {
    std::cerr << "static footprint false-positives on the fault-free run\n";
    return 1;
  }

  const u32 prereserved_field_off = report_prereservation(field_off, "field-off");
  const u32 prereserved_tight = report_prereservation(tight, "field-on");

  // Register faults rotate through the working registers (r8..r23) flipping
  // a page-significant bit — the corrupted base sends the next resolved
  // store pages off target.  Data faults flip one bit of a data word.
  const Cycle stride = std::max<Cycle>(1, (golden_base->cycles - 40) / samples);
  ModeTally reg_base, reg_ctx0, reg_field, reg_tight;
  ModeTally data_base, data_ctx0, data_field, data_tight;
  u32 gap = 0;          // faults only the footprint check caught
  u32 context_gain = 0; // faults only the context-sensitive footprint caught
  u32 field_gain = 0;   // faults only the field-sensitive footprint caught

  u32 index = 0;
  for (Cycle cycle = 20; cycle + 20 < golden_base->cycles; cycle += stride, ++index) {
    campaign::InjectionRecord reg_fault;
    reg_fault.target = campaign::InjectTarget::kRegisterBit;
    reg_fault.inject_cycle = cycle;
    reg_fault.reg = static_cast<u8>(8 + (index % 16));  // t0..t7, s0..s7
    reg_fault.bit = static_cast<u8>(14 + (index % 8));  // 16 KB .. 2 MB off
    reg_fault.mask = Word{1} << reg_fault.bit;
    const campaign::RunResult rb = runner.run_one(base, *golden_base, reg_fault);
    const campaign::RunResult rc = runner.run_one(ctx0, *golden_ctx0, reg_fault);
    const campaign::RunResult rf = runner.run_one(field_off, *golden_field, reg_fault);
    const campaign::RunResult rt = runner.run_one(tight, *golden_tight, reg_fault);
    reg_base.add(rb);
    reg_ctx0.add(rc);
    reg_field.add(rf);
    reg_tight.add(rt);
    if (rt.outcome == campaign::Outcome::kDetectedDdt &&
        rb.outcome != campaign::Outcome::kDetectedDdt) {
      ++gap;
    }
    if (rt.outcome == campaign::Outcome::kDetectedDdt &&
        rc.outcome != campaign::Outcome::kDetectedDdt) {
      ++context_gain;
    }
    if (rt.outcome == campaign::Outcome::kDetectedDdt &&
        rf.outcome != campaign::Outcome::kDetectedDdt) {
      ++field_gain;
    }

    if (golden_base->program.data.size() >= 4) {
      campaign::InjectionRecord data_fault;
      data_fault.target = campaign::InjectTarget::kDataWord;
      data_fault.inject_cycle = cycle;
      const u32 words = static_cast<u32>(golden_base->program.data.size() / 4);
      data_fault.addr = golden_base->program.data_base + (index % words) * 4;
      data_fault.mask = Word{1} << (index % 32);
      data_base.add(runner.run_one(base, *golden_base, data_fault));
      data_ctx0.add(runner.run_one(ctx0, *golden_ctx0, data_fault));
      data_field.add(runner.run_one(field_off, *golden_field, data_fault));
      data_tight.add(runner.run_one(tight, *golden_tight, data_fault));
    }
  }

  std::cout << "static-DDT detection study: workload=" << workload
            << " golden_cycles=" << golden_base->cycles << " stride=" << stride << "\n";

  report::Table table({"fault class", "ddt mode", "injected", "det ddt", "det other", "sdc",
                       "masked", "crash/hang", "coverage %"});
  const auto row = [&](const char* cls, const char* mode, const ModeTally& t) {
    table.row({cls, mode, std::to_string(t.injected), std::to_string(t.detected_ddt),
               std::to_string(t.detected_other), std::to_string(t.sdc),
               std::to_string(t.masked), std::to_string(t.crash_hang),
               report::fmt_fixed(t.coverage(), 1)});
  };
  row("register", "dynamic-only", reg_base);
  row("register", "static-ctx0", reg_ctx0);
  row("register", "static-field-off", reg_field);
  row("register", "static-footprint", reg_tight);
  row("data-word", "dynamic-only", data_base);
  row("data-word", "static-ctx0", data_ctx0);
  row("data-word", "static-field-off", data_field);
  row("data-word", "static-footprint", data_tight);
  table.print();
  std::cout << "faults only the footprint check detected: " << gap << "\n";
  std::cout << "faults only the context-sensitive footprint detected: " << context_gain
            << "\n";
  std::cout << "faults only the field-sensitive footprint detected: " << field_gain << "\n";

  if (auto dir = report::csv_export_dir()) {
    report::CsvWriter csv(*dir + "/ddt_static.csv",
                          {"fault_class", "mode", "injected", "det_ddt", "det_other", "sdc",
                           "masked", "crash_hang", "coverage_pct"});
    const auto csv_row = [&](const char* cls, const char* mode, const ModeTally& t) {
      csv.row({cls, mode, std::to_string(t.injected), std::to_string(t.detected_ddt),
               std::to_string(t.detected_other), std::to_string(t.sdc),
               std::to_string(t.masked), std::to_string(t.crash_hang),
               report::fmt_fixed(t.coverage(), 2)});
    };
    csv_row("register", "dynamic-only", reg_base);
    csv_row("register", "static-ctx0", reg_ctx0);
    csv_row("register", "static-field-off", reg_field);
    csv_row("register", "static-footprint", reg_tight);
    csv_row("data-word", "dynamic-only", data_base);
    csv_row("data-word", "static-ctx0", data_ctx0);
    csv_row("data-word", "static-field-off", data_field);
    csv_row("data-word", "static-footprint", data_tight);
    csv.flush();
  }

  const u32 tight_total = reg_tight.detected_ddt + data_tight.detected_ddt;
  const u32 base_total = reg_base.detected_ddt + data_base.detected_ddt;
  if (tight_total <= base_total || gap == 0) {
    std::cerr << "static footprint failed to improve on the dynamic-only DDT\n";
    return 1;
  }
  if (expect_context_gain && context_gain == 0) {
    std::cerr << "context-sensitive footprint failed to improve on depth 0\n";
    return 1;
  }
  if (expect_field_gain) {
    // Strictly higher register-fault coverage, or — at equal coverage — a
    // strictly tighter (smaller) pre-reserved page set.
    const double cov_on = reg_tight.coverage();
    const double cov_off = reg_field.coverage();
    const bool better = cov_on > cov_off ||
                        (cov_on == cov_off && prereserved_tight < prereserved_field_off);
    if (!better) {
      std::cerr << "field-sensitive footprint failed to improve on the dense hull\n";
      return 1;
    }
  }
  return 0;
}
