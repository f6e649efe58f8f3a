// Shared vocabulary of the benchmark suite: run options, the metric table a
// workload fills in, the latency log, and the in-memory span recorder that
// times each layer from outside by wrapping calls to its public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cpsguard::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64 finalizer: seeded choices (oracle samples) from plain ints.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Command-line options of one measured run.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;     // length of the timed phases together
  std::string fixture_dir;   // trained monitors (see fixture.h)
  std::string manifest_path; // BENCHMARK.json: the metric names to emit
  std::string trace_path;    // "" = untraced run
  std::string out_path;      // "" = no results file
  bool smoke = false;        // tiny sizes, for the ctest smoke tests

  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
};

/// Metrics in emission order; set() replaces an existing name.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const Entry* find(const std::string& name) const;

 private:
  std::vector<Entry> entries_;
};

/// What one workload run reports back to main().
struct Outcome {
  long attempted = 0;  // records offered (serve) / sweep points (sweep)
  long failed = 0;     // rejected or unanswered records / points that threw
  std::vector<std::string> problems;  // oracle failures; empty = correct
  Metrics end_to_end;
  Metrics layers;      // filled only by traced runs
  std::string load_sha256;
  std::string model_sha256;

  void fail(std::string what) { problems.push_back(std::move(what)); }
};

/// Nearest-rank quantile (q in [0, 1]) of unsorted samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// A run's figure from its per-round samples: the edge of the best quarter
/// of rounds, the 25th percentile of a lower-is-better figure and the 75th
/// of a higher-is-better one. Interference from outside the process only
/// ever slows a round, and other tenants of a shared host slow it for
/// spells of seconds, so this follows the code's own speed more steadily
/// than the median over rounds.
inline double best_quarter(std::vector<double> samples, bool lower_is_better) {
  return quantile(std::move(samples), lower_is_better ? 0.25 : 0.75);
}

/// Latency samples with multiplicities. An infinite value stands for a
/// record that was rejected or never answered: it misses every limit.
class LatencyLog {
 public:
  void add(double ms, long count) {
    if (count > 0) samples_.emplace_back(ms, count);
  }
  /// Nearest-rank quantile over all counted samples; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] long count() const;

 private:
  std::vector<std::pair<double, long>> samples_;
};

/// In-memory spans (name, start, end, parent), written out at exit as
/// Chrome trace-event JSON. A disabled recorder never reads the clock, so
/// untraced runs pay nothing for the call sites.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span; returns its id (-1 when disabled).
  int begin(std::string name, int parent = -1);
  void end(int id);

  /// Sum of the durations of every span called `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Sum of their self times: duration minus the time their children cover.
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;

  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII wrapper around SpanRecorder::begin/end.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, std::string name, int parent = -1)
      : rec_(rec), id_(rec.begin(std::move(name), parent)) {}
  ~Scoped() { rec_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Read-only values from the process-wide obs registry, taken before and
/// after the timed phases; the metrics use the differences.
struct ObsSnapshot {
  std::uint64_t flushes = 0;
  std::uint64_t windows_flushed = 0;
  double flush_s = 0.0;  // span.serve.flush
  std::uint64_t pool_tasks = 0;
  double pool_busy_s = 0.0;
  std::uint64_t epochs_trained = 0;

  static ObsSnapshot take();
};

/// util.pool.tasks and util.pool.busy_frac (busy share of the shared
/// pool's workers over `wall_s`) from two snapshots.
void set_pool_metrics(const ObsSnapshot& before, const ObsSnapshot& after,
                      double wall_s, Metrics& out);

/// Hex digest helper shared by the load and model digests.
std::string hex(const unsigned char* bytes, std::size_t n);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Workload entry points (serve_workload.cpp, sweep_workload.cpp).
Outcome run_serve(const Options& opts);
Outcome run_sweep(const Options& opts);
[[nodiscard]] bool is_serve_workload(const std::string& name);

}  // namespace cpsguard::suite
