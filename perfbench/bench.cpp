#include "bench.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    // Nearest-rank percentile, and the samples strictly beyond it.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      t.percentile = p;
      t.value = values[rank - 1];
      return t;
    }
  }
  t.value = median(values);
  return t;
}

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent, std::int64_t run,
                            const char* tag) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.run = run;
  span.name = name;
  span.tag = tag;
  span.start_ns = start;
  span.end_ns = start;
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

std::vector<double> Tracer::durations_ms(const std::string& name, const char* tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name && (tag == nullptr || std::string(tag) == span.tag)) {
      out.push_back(span.ms());
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"tag\":\"" << s.tag << "\",\"run\":" << s.run
        << ",\"start_us\":" << s.start_ns / 1000 << ",\"end_us\":" << s.end_ns / 1000 << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

}  // namespace

void Sheet::print(const std::vector<MetricDef>& defs) {
  for (const auto& [name, value] : values) {
    const bool listed = std::any_of(defs.begin(), defs.end(),
                                    [&](const MetricDef& d) { return name == d.name; });
    if (!listed) fail("metric " + name + " is not in the benchmark's metric list");
  }
  for (const std::string& line : notes) std::cout << line << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const std::string value = number(it != values.end() ? it->second : 0.0);
    const std::string name = defs[i].name;
    std::cout << "  " << name << std::string(name.size() < 34 ? 34 - name.size() : 1, ' ')
              << value << " " << defs[i].unit << "\n";
    json << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": " << value
         << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench
