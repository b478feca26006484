// fast-sim: fault-free kmeans-large through simulate_golden_fast (the
// rse_run --fast path), run back to back by job_count() callers.  One caller
// per core, rather than a single one, keeps a slow core on the shared host
// from setting the whole figure.  Every simulation's output, exit code and
// instruction count must equal the cycle-accurate golden run's, computed in
// set-up.  The campaign seed does not apply: the input is the same program
// every time.
#include <cstdio>
#include <mutex>
#include <optional>

#include "campaign/golden.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rse::campaign;

namespace {

constexpr int kSetupRepeats = 5;

struct Sim {
  double ms = 0;      // wall time
  double cpu_ms = 0;  // CPU time of the calling thread
  double instructions = 0;
  bool ok = false;    // output, exit code and instruction count match
};

/// One simulation, timed and checked against the reference.
template <class Simulate>
Sim timed(const GoldenRun& reference, Simulate simulate) {
  const double cpu = thread_cpu_seconds();
  const auto start = Clock::now();
  const GoldenRun got = simulate();
  Sim sim;
  sim.ms = seconds_since(start) * 1e3;
  sim.cpu_ms = (thread_cpu_seconds() - cpu) * 1e3;
  sim.instructions = static_cast<double>(got.instructions);
  sim.ok = got.output == reference.output && got.exit_code == reference.exit_code &&
           got.instructions == reference.instructions;
  return sim;
}

struct Batch {
  std::vector<Sim> sims;
  double seconds = 0;  // wall time of the whole batch

  std::vector<double> ms() const {
    std::vector<double> out;
    for (const Sim& s : sims) out.push_back(s.ms);
    return out;
  }
  double mips() const {
    double instructions = 0;
    for (const Sim& s : sims) instructions += s.instructions;
    return instructions / seconds / 1e6;
  }
  void count(Sheet& sheet) const {
    for (const Sim& s : sims) {
      ++sheet.attempted;
      if (!s.ok) ++sheet.failed;
    }
    if (sheet.failed != 0 && sheet.correct) {
      sheet.fail("a fast simulation's output differs from the golden run's");
    }
  }
};

/// simulate_golden_fast back to back on every caller until `seconds` pass.
Batch untraced_batch(const WorkloadSetup& setup, const GoldenRun& reference, double seconds) {
  Batch batch;
  std::mutex mu;  // guards batch.sims
  const auto window = Clock::now();
  const unsigned callers = job_count();
  fan_out(callers, callers, [&](std::uint32_t) {
    std::vector<Sim> mine;
    while (seconds_since(window) < seconds) {
      mine.push_back(timed(reference, [&] { return simulate_golden_fast(setup); }));
    }
    std::lock_guard<std::mutex> lock(mu);
    batch.sims.insert(batch.sims.end(), mine.begin(), mine.end());
  });
  batch.seconds = seconds_since(window);
  return batch;
}

/// simulate_golden_fast rebuilt from its public parts, a span around each.
GoldenRun traced_simulation(const WorkloadSetup& setup, Tracer& tracer, std::uint32_t index) {
  Scope sim(&tracer, "campaign.fast_golden", 0, index);
  GoldenRun got;
  {
    Scope s(&tracer, "isa.assemble", sim.id());
    got.program = rse::isa::assemble(setup.source);
  }
  std::optional<LoadedGuest> loaded;
  {
    Scope s(&tracer, "os.load", sim.id());
    loaded.emplace(setup, got.program, setup.os.run_limit);
  }
  rse::exec::FastSession session(loaded->guest, rse::exec::FastSessionConfig{/*relaxed=*/true});
  session.seed_leaders(got.program);
  rse::exec::FastSession::Status status;
  {
    Scope s(&tracer, "exec.run_until", sim.id());
    status = session.run_until(setup.os.run_limit);
  }
  if (status == rse::exec::FastSession::Status::kBail) {
    Scope s(&tracer, "os.run", sim.id());
    session.transplant(session.virtual_now());
    loaded->guest.run();
  }
  got.output = loaded->guest.output();
  got.exit_code = loaded->guest.exit_code();
  got.instructions = session.executed() - session.engine().chks_executed() +
                     loaded->machine.core().stats().instructions;
  return got;
}

/// `count` traced simulations on the same callers.
Batch traced_batch(const WorkloadSetup& setup, const GoldenRun& reference, std::size_t count,
                   Tracer& tracer) {
  Batch batch;
  batch.sims.resize(count);
  const auto window = Clock::now();
  fan_out(static_cast<std::uint32_t>(count), job_count(), [&](std::uint32_t i) {
    batch.sims[i] = timed(reference, [&] { return traced_simulation(setup, tracer, i); });
  });
  batch.seconds = seconds_since(window);
  return batch;
}

std::string describe(const char* what, const Batch& b) {
  const std::vector<double> ms = b.ms();
  const Tail t = tail(ms);
  char line[192];
  std::snprintf(line, sizeof line,
                "%s: %zu simulations, %.1f MIPS, p50 %.4f ms, p%g %.4f ms (%zu samples)", what,
                ms.size(), b.mips(), median(ms), t.percentile, t.value, t.samples);
  return line;
}

}  // namespace

void run_fast_sim(const Options& options, Sheet& sheet) {
  sheet.note("workload fast-sim: kmeans-large through simulate_golden_fast, " +
             std::to_string(job_count()) + " callers");
  // Set-up: the workload and its cycle-accurate golden run, the reference
  // every simulation is checked against.
  WorkloadSetup setup;
  GoldenRun reference;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = cpu_seconds();
    setup = make_workload("kmeans-large");
    reference = simulate_golden(setup);
    setup_s.push_back(cpu_seconds() - start);
  }

  if (!options.trace) {
    const Batch b = untraced_batch(setup, reference, options.seconds);
    b.count(sheet);
    sheet.note(describe("untraced", b));
    std::vector<double> cpu_ms;
    for (const Sim& s : b.sims) cpu_ms.push_back(s.cpu_ms);
    sheet.set("run_cpu_ms", median(cpu_ms));
    sheet.set("setup_s", median(setup_s));
    sheet.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced pass: an untraced batch for reference, then as many traced
  // simulations, then the layer probes.
  Tracer tracer;
  const Batch plain = untraced_batch(setup, reference, options.seconds / 3);
  const Batch traced = traced_batch(setup, reference, plain.sims.size(), tracer);
  plain.count(sheet);
  traced.count(sheet);
  sheet.note(describe("untraced", plain));
  sheet.note(describe("traced  ", traced));
  const Tail t = tail(plain.ms());
  sheet.set("campaign.runs_per_s", static_cast<double>(plain.sims.size()) / plain.seconds);
  sheet.set("campaign.fast_golden_mips", plain.mips());
  sheet.set("campaign.fast_golden_p50_ms", median(plain.ms()));
  sheet.set("campaign.fast_golden_tail_ms", t.value);
  sheet.set("campaign.run_tail_pct", t.percentile);
  sheet.set("campaign.untraced_wall_s", plain.seconds);
  sheet.set("campaign.traced_wall_s", traced.seconds);
  sheet.set("campaign.trace_overhead", traced.seconds / plain.seconds - 1);
  sheet.set("campaign.golden_s", median(setup_s));
  sheet.set("isa.assemble_ms", median(tracer.durations_ms("isa.assemble")));
  sheet.set("os.load_ms", median(tracer.durations_ms("os.load")));

  probe_step(setup, sheet);
  probe_fast_exec(setup, /*superblock_ab=*/true, sheet);
  write_spans(options, tracer, sheet);
}

}  // namespace perfbench
