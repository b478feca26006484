// Static-CFC detection study: the same next-PC-latch fault sweep run twice,
// once against the CFC's range-check baseline ("a control transfer must land
// in text") and once with the CFG-derived legal-successor table installed at
// load (docs/analysis.md).  Direct branches and jumps are fully checked
// either way; the gap is indirect control flow — a corrupted `jr $ra` return
// target that stays inside the text segment passes the range check but
// misses the statically inferred return-site set.
//
// For every inject cycle the sweep reports both outcomes plus the detection
// latency (cycles from injection to the end of the run) of detected faults.
#include <iostream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "report/table.hpp"

using namespace rse;

namespace {

struct ModeTally {
  u32 injected = 0;
  u32 detected_cfc = 0;
  u32 detected_other = 0;
  u32 sdc = 0;
  u32 masked = 0;
  u32 crash_hang = 0;
  u64 latency_sum = 0;  // inject -> run end, detected runs only

  void add(const campaign::RunResult& result, Cycle inject_cycle) {
    if (!result.fault_applied) return;
    ++injected;
    if (result.outcome == campaign::Outcome::kDetectedCfc) {
      ++detected_cfc;
      latency_sum += result.cycles > inject_cycle ? result.cycles - inject_cycle : 0;
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
    return unmasked > 0 ? 100.0 * static_cast<double>(detected_cfc + detected_other) /
                              static_cast<double>(unmasked)
                        : 0.0;
  }
  double mean_latency() const {
    return detected_cfc > 0 ? static_cast<double>(latency_sum) / detected_cfc : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "calls";
  const Cycle stride = argc > 2 ? std::stoull(argv[2]) : 16;

  campaign::CampaignRunner runner;
  campaign::WorkloadSetup base = campaign::make_workload(workload);
  campaign::WorkloadSetup tight = base;
  tight.os.static_cfc = true;

  const auto golden_base = runner.cache().get(base);
  const auto golden_tight = runner.cache().get(tight);
  if (golden_base->cycles != golden_tight->cycles) {
    std::cerr << "golden runs diverge between CFC modes\n";
    return 1;
  }

  // One-shot corruption of the next-PC latch: the first control-flow
  // instruction to commit after inject_cycle lands mask bytes off target.
  // The small mask keeps the bogus landing inside text — the case a range
  // check cannot see.
  campaign::InjectionRecord record;
  record.target = campaign::InjectTarget::kRegisterBit;
  record.reg = campaign::kPcPseudoReg;
  record.mask = 0x8;

  ModeTally range, table_mode;
  u32 gap = 0;  // faults only the static table caught
  for (Cycle cycle = 20; cycle + 20 < golden_base->cycles; cycle += stride) {
    record.inject_cycle = cycle;
    const campaign::RunResult rb = runner.run_one(base, *golden_base, record);
    const campaign::RunResult rt = runner.run_one(tight, *golden_tight, record);
    range.add(rb, cycle);
    table_mode.add(rt, cycle);
    if (rt.outcome == campaign::Outcome::kDetectedCfc &&
        rb.outcome != campaign::Outcome::kDetectedCfc) {
      ++gap;
    }
  }

  std::cout << "static-CFC detection study: workload=" << workload
            << " golden_cycles=" << golden_base->cycles << " mask=0x" << std::hex
            << record.mask << std::dec << " stride=" << stride << "\n";

  report::Table table({"cfc mode", "injected", "det cfc", "det other", "sdc", "masked",
                       "crash/hang", "coverage %", "mean latency"});
  const auto row = [&](const char* name, const ModeTally& t) {
    table.row({name, std::to_string(t.injected), std::to_string(t.detected_cfc),
               std::to_string(t.detected_other), std::to_string(t.sdc),
               std::to_string(t.masked), std::to_string(t.crash_hang),
               report::fmt_fixed(t.coverage(), 1), report::fmt_fixed(t.mean_latency(), 1)});
  };
  row("range-check", range);
  row("static-table", table_mode);
  table.print();
  std::cout << "faults only the static table detected: " << gap << "\n";

  if (table_mode.detected_cfc <= range.detected_cfc || gap == 0) {
    std::cerr << "static successor table failed to improve on the range check\n";
    return 1;
  }
  return 0;
}
