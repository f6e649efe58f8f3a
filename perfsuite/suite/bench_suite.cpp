// bench_suite: the repository benchmark. Runs one workload through the
// public APIs of serve, registry, core, eval, attack and nn, checks its
// outputs, prints every metric as `name value unit`, and ends with one JSON
// line {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
//
//   bench_suite --workload W --seed S --seconds T --fixture DIR
//               --manifest BENCHMARK.json [--trace FILE] [--out FILE] [--smoke]
//   bench_suite --make-fixture DIR [--smoke]
//
// The metric names and units below must equal those BENCHMARK.json lists;
// every run checks this before doing any work.
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstring>
#include <limits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "fixture.h"
#include "nn/simd_kernels.h"
#include "suite.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parse.h"

namespace cpsguard::suite {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},
    {"peak_verdicts_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// A layer a workload does not exercise reports 0.
constexpr MetricSpec kLayers[] = {
    {"nn.probe.batch", "count"},
    {"nn.dense.fwd_us.54x256", "us"},
    {"nn.dense.fwd_us.256x128", "us"},
    {"nn.dense.fwd_us.128x2", "us"},
    {"nn.dense.fwd_us.64x2", "us"},
    {"nn.lstm.fwd_us.9x128", "us"},
    {"nn.lstm.fwd_us.128x64", "us"},
    {"nn.softmax.us", "us"},
    {"nn.matmul.gflops.54x256", "GFLOP/s"},
    {"nn.matmul.gflops.256x128", "GFLOP/s"},
    {"nn.matmul.gflops.128x512", "GFLOP/s"},
    {"nn.matmul.bytes.54x256", "B"},
    {"nn.matmul.bytes.256x128", "B"},
    {"nn.matmul.bytes.128x512", "B"},
    {"nn.input_grad.us_per_window", "us"},
    {"eval.predict.us_per_window", "us"},
    {"monitor.fill_features.ns", "ns"},
    {"monitor.scale_row.ns", "ns"},
    {"monitor.clone.us", "us"},
    {"registry.load.ms", "ms"},
    {"serve.submit.calls", "count"},
    {"serve.submit.busy_s", "s"},
    {"serve.submit.p99_us", "us"},
    {"serve.tick.calls", "count"},
    {"serve.tick.busy_s", "s"},
    {"serve.tick.p50_ms", "ms"},
    {"serve.tick.p99_ms", "ms"},
    {"serve.close.busy_s", "s"},
    {"serve.swap_model.busy_s", "s"},
    {"serve.tick_swap.p50_ms", "ms"},
    {"serve.flush.count", "count"},
    {"serve.flush.busy_s", "s"},
    {"serve.flush.overhead_s", "s"},
    {"serve.batch_fill", "ratio"},
    {"serve.inline_flush_frac", "ratio"},
    {"serve.rejected", "count"},
    {"serve.evicted", "count"},
    {"serve.sessions.peak", "count"},
    {"driver.lag_p99_ms", "ms"},
    {"driver.lag_max_ms", "ms"},
    {"cycle.self_s", "s"},
    {"sweep.rep.self_s", "s"},
    {"sweep.MLP.s", "s"},
    {"sweep.LSTM.s", "s"},
    {"sweep.MLP-Custom.s", "s"},
    {"sweep.LSTM-Custom.s", "s"},
    {"attack.gaussian.busy_s", "s"},
    {"attack.fgsm.busy_s", "s"},
    {"nn.input_grad.busy_s", "s"},
    {"eval.predict.busy_s", "s"},
    {"eval.metrics.busy_s", "s"},
    {"util.pool.tasks", "count"},
    {"util.pool.busy_frac", "ratio"},
    {"trace.lat_p50_ms", "ms"},
};

constexpr const char* kWorkloads[] = {"serve_mlp_steady", "serve_lstm_steady",
                                      "serve_churn_swap", "robustness_sweep"};

int usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite --workload W --seed S --seconds T "
               "--fixture DIR --manifest FILE [--trace FILE] [--out FILE] "
               "[--smoke]\n"
               "       bench_suite --make-fixture DIR [--smoke]\n",
               error.c_str());
  return 2;
}

/// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string host_tag() {
  std::string cpu = "unknown-cpu";
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    cpu.clear();
    for (const char* p = brand; *p != '\0'; ++p) {
      const char c = *p;
      if (std::isalnum(static_cast<unsigned char>(c))) {
        cpu.push_back(static_cast<char>(std::tolower(c)));
      } else if (!cpu.empty() && cpu.back() != '-') {
        cpu.push_back('-');
      }
    }
    while (!cpu.empty() && cpu.back() == '-') cpu.pop_back();
  }
#endif
  return "n" + std::to_string(std::thread::hardware_concurrency()) + "-" +
         nn::simd_kernel_name() + "-" + cpu;
}

const util::Json& member(const util::Json& j, const std::string& key) {
  const util::Json* m = j.get(key);
  if (m == nullptr) throw CpsError("manifest entry lacks '" + key + "'");
  return *m;
}

/// The manifest's metric list for `key` as name -> unit.
std::map<std::string, std::string> manifest_metrics(const util::Json& m,
                                                    const std::string& key) {
  std::map<std::string, std::string> out;
  for (const util::Json& e : member(m, key).items()) {
    out[member(e, "name").as_str()] = member(e, "unit").as_str();
  }
  return out;
}

/// Refuse to run when BENCHMARK.json and this binary disagree on the
/// workloads or on any metric's name or unit.
void check_manifest(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw CpsError("cannot read manifest " + path);
  std::stringstream text;
  text << in.rdbuf();
  const util::Json m = util::Json::parse(text.str());
  std::set<std::string> workloads;
  for (const util::Json& w : member(m, "workloads").items()) {
    workloads.insert(member(w, "name").as_str());
  }
  if (workloads != std::set<std::string>(std::begin(kWorkloads),
                                         std::end(kWorkloads))) {
    throw CpsError("manifest workloads differ from the suite's");
  }
  if (workloads.count(workload) == 0) {
    throw CpsError("unknown workload '" + workload + "'");
  }
  const auto expect = [&](const std::string& key,
                          std::span<const MetricSpec> table) {
    std::map<std::string, std::string> mine;
    for (const MetricSpec& s : table) mine[s.name] = s.unit;
    if (manifest_metrics(m, key) != mine) {
      throw CpsError("manifest '" + key + "' differs from the metrics " +
                     "bench_suite emits");
    }
  };
  expect("end_to_end", kEndToEnd);
  expect("per_layer", kLayers);
}

struct Parsed {
  Options opts;
  std::string make_fixture;
};

/// Strict flag parsing: every flag is known and takes its value in the
/// next argument (--smoke takes none). Throws ParseError otherwise.
Parsed parse_args(int argc, char** argv) {
  Parsed p;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      p.opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw ParseError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      p.opts.workload = value;
    } else if (flag == "--seed") {
      p.opts.seed = util::parse_u64(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      p.opts.seconds = util::parse_double(value, "--seconds");
      have_seconds = true;
    } else if (flag == "--fixture") {
      p.opts.fixture_dir = value;
    } else if (flag == "--manifest") {
      p.opts.manifest_path = value;
    } else if (flag == "--trace") {
      p.opts.trace_path = value;
    } else if (flag == "--out") {
      p.opts.out_path = value;
    } else if (flag == "--make-fixture") {
      p.make_fixture = value;
    } else {
      throw ParseError("unknown flag " + flag);
    }
  }
  if (!p.make_fixture.empty()) return p;
  if (p.opts.workload.empty() || p.opts.fixture_dir.empty() ||
      p.opts.manifest_path.empty() || !have_seed || !have_seconds) {
    throw ParseError(
        "--workload, --seed, --seconds, --fixture and --manifest are required");
  }
  if (!(p.opts.seconds > 0.0 && p.opts.seconds <= 600.0)) {
    throw ParseError("--seconds must be in (0, 600]");
  }
  return p;
}

/// `"name": {"value": v, "unit": "u"}, ...` for the listed metrics, in
/// table order; a metric the run did not measure reports 0.
std::string metrics_json(const Metrics& measured,
                         std::span<const MetricSpec> table) {
  std::string out;
  for (const MetricSpec& s : table) {
    const Metrics::Entry* e = measured.find(s.name);
    if (!out.empty()) out += ", ";
    out.append("\"").append(s.name).append("\": {\"value\": ");
    out.append(number(e != nullptr ? e->value : 0.0));
    out.append(", \"unit\": \"").append(s.unit).append("\"}");
  }
  return out;
}

int run(const Options& opts) {
  check_manifest(opts.manifest_path, opts.workload);
  const long long started_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const Outcome out =
      is_serve_workload(opts.workload) ? run_serve(opts) : run_sweep(opts);
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "oracle failed: %s\n", p.c_str());
  }
  const bool correct = out.problems.empty();

  for (const MetricSpec& s : kEndToEnd) {
    if (out.end_to_end.find(s.name) == nullptr) {
      throw CpsError(std::string("workload did not measure ") + s.name);
    }
  }
  const std::string host = host_tag();
  std::printf("workload %s\nseed %llu\nhost %s\nload_sha256 %s\n"
              "model_sha256 %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              host.c_str(), out.load_sha256.c_str(), out.model_sha256.c_str());
  const auto print = [](const Metrics& m, std::span<const MetricSpec> table) {
    for (const MetricSpec& s : table) {
      const Metrics::Entry* e = m.find(s.name);
      std::printf("%s %s %s\n", s.name,
                  number(e != nullptr ? e->value : 0.0).c_str(), s.unit);
    }
  };
  print(out.end_to_end, kEndToEnd);
  if (opts.traced()) print(out.layers, kLayers);

  const std::string head = std::string("\"correct\": ") +
                           (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(out.attempted) +
                           ", \"failed\": " + std::to_string(out.failed);
  if (!opts.out_path.empty()) {
    std::string all = metrics_json(out.end_to_end, kEndToEnd);
    if (opts.traced()) all += ", " + metrics_json(out.layers, kLayers);
    std::ofstream f(opts.out_path);
    f << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
      << ", \"seconds\": " << number(opts.seconds)
      << ", \"started_ms\": " << started_ms
      << ", \"traced\": " << (opts.traced() ? "true" : "false")
      << ", \"host\": \"" << host << "\", \"load_sha256\": \""
      << out.load_sha256 << "\", \"model_sha256\": \"" << out.model_sha256
      << "\", " << head << ", \"metrics\": {" << all << "}}\n";
    if (!f) throw CpsError("cannot write " + opts.out_path);
  }
  const std::string metrics = opts.traced()
                                  ? metrics_json(out.layers, kLayers)
                                  : metrics_json(out.end_to_end, kEndToEnd);
  std::printf("{%s, \"metrics\": {%s}}\n", head.c_str(), metrics.c_str());
  std::fflush(stdout);
  // The smoke tests also require that no record or sweep point failed.
  return correct && !(opts.smoke && out.failed > 0) ? 0 : 1;
}

}  // namespace
}  // namespace cpsguard::suite

int main(int argc, char** argv) {
  using namespace cpsguard;
  suite::Parsed parsed;
  try {
    parsed = suite::parse_args(argc, argv);
  } catch (const std::exception& e) {
    return suite::usage(e.what());
  }
  util::set_log_level(util::LogLevel::kWarn);
  try {
    if (!parsed.make_fixture.empty()) {
      suite::make_fixture(parsed.make_fixture, parsed.opts.smoke);
      return 0;
    }
    return suite::run(parsed.opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
