// Shared pieces of the repository benchmark: the in-memory span tracer, the
// order statistics every metric is reported with, and the result sheet that
// becomes the final JSON line.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of all threads of this process, and of the calling thread, in
/// seconds.  Unlike wall time they leave out time the host's hypervisor ran
/// other guests on our cores.
double cpu_seconds();
double thread_cpu_seconds();

/// Run `body(index)` for every index in [0, count) on `jobs` threads that
/// each claim the next index only after finishing one (a closed loop).  The
/// first exception a body throws is rethrown once every thread has joined.
template <class Body>
void fan_out(std::uint32_t count, std::uint32_t jobs, Body body) {
  std::atomic<std::uint32_t> next{0};
  std::mutex mu;
  std::exception_ptr error;  // guarded by mu
  const auto worker = [&] {
    for (std::uint32_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t j = 1; j < std::min(jobs, count); ++j) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

// ---- order statistics ----

double median(std::vector<double> values);

/// The highest of the 90th/95th/99th/99.9th percentiles that still has at
/// least ten samples beyond it; below 100 samples none has, and the median
/// is reported as the 50th.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// FNV-1a over a string: a short printable fingerprint of a digest.
std::uint64_t fnv1a(const std::string& text);

// ---- spans ----

/// One timed call into a layer.  `parent` is the id of the enclosing span
/// (0 at top level); `run` is the campaign plan index the span belongs to
/// (-1 outside any run); `tag` qualifies the span (the execution path of a
/// campaign run).  Times are nanoseconds since the tracer was created.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::int64_t run = -1;
  const char* name = "";
  const char* tag = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Spans are kept in memory, appended under one mutex (worker threads of a
/// traced campaign record concurrently), and written out at the end.
class Tracer {
 public:
  std::uint32_t begin(const char* name, std::uint32_t parent = 0, std::int64_t run = -1,
                      const char* tag = "");
  void end(std::uint32_t id);

  /// Durations in milliseconds of every span named `name` (and tagged `tag`
  /// when non-null), in recording order.
  std::vector<double> durations_ms(const std::string& name, const char* tag = nullptr) const;
  /// Every span; read only once the recording threads have joined.
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; spans_[id - 1] has id `id`
};

/// Scoped span; a null tracer makes it free of any recording.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint32_t parent = 0, std::int64_t run = -1,
        const char* tag = "")
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent, run, tag) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// ---- the result sheet ----

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (printed with --trace 0) and every per-layer
/// metric (printed with --trace 1), in BENCHMARK.json order.  A per-layer
/// metric of a layer the workload never calls reads 0.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

struct Sheet {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;  // printed to stdout ahead of the JSON line

  void set(const std::string& name, double value) { values[name] = value; }
  /// Record a correctness failure with its reason.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("ERROR: " + why);
  }
  void note(std::string line) { notes.push_back(std::move(line)); }

  /// The notes, a metric table, then the single-line JSON result holding
  /// exactly `defs`.  A value set under a name outside `defs` is a bug in
  /// the benchmark and fails the run.
  void print(const std::vector<MetricDef>& defs);
};

}  // namespace perfbench
