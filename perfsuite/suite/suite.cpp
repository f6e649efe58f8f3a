#include "suite.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace cpsguard::suite {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

const Metrics::Entry* Metrics::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double LatencyLog::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  std::vector<std::pair<double, long>> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const auto target = static_cast<long>(
      std::max(1.0, std::ceil(q * static_cast<double>(count()))));
  long seen = 0;
  for (const auto& [ms, n] : sorted) {
    seen += n;
    if (seen >= target) return ms;
  }
  return sorted.back().first;
}

long LatencyLog::count() const {
  long n = 0;
  for (const auto& s : samples_) n += s.second;
  return n;
}

int SpanRecorder::begin(std::string name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

double SpanRecorder::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += seconds_between(s.start, s.end);
  }
  return total;
}

double SpanRecorder::self_s(const std::string& name) const {
  double total = total_s(name);
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == name) {
      total -= seconds_between(s.start, s.end);
    }
  }
  return total;
}

std::vector<double> SpanRecorder::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(seconds_between(s.start, s.end));
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"suite\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", util::Json::escape(s.name).c_str(),
                 us(s.start), us(s.end) - us(s.start), i, s.parent);
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

ObsSnapshot ObsSnapshot::take() {
  obs::Registry& reg = obs::Registry::instance();
  ObsSnapshot s;
  s.flushes = reg.counter("serve.flushes").value();
  s.windows_flushed = reg.counter("serve.windows_flushed").value();
  s.flush_s = reg.histogram("span.serve.flush").sum();
  s.pool_tasks = reg.counter("threadpool.tasks_executed").value();
  s.pool_busy_s = reg.histogram("threadpool.task_seconds").sum();
  s.epochs_trained = reg.counter("nn.epochs_trained").value();
  return s;
}

void set_pool_metrics(const ObsSnapshot& before, const ObsSnapshot& after,
                      double wall_s, Metrics& out) {
  const auto workers = static_cast<double>(util::shared_pool().size());
  out.set("util.pool.tasks",
          static_cast<double>(after.pool_tasks - before.pool_tasks), "count");
  out.set("util.pool.busy_frac",
          (after.pool_busy_s - before.pool_busy_s) / (wall_s * workers),
          "ratio");
}

std::string hex(const unsigned char* bytes, std::size_t n) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(kHex[bytes[i] >> 4]);
    out.push_back(kHex[bytes[i] & 0xf]);
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace cpsguard::suite
