// bench_compare: applies the benchmark's comparison rule to two sets of
// bench_suite result files (written with --out, one JSON object per run;
// each directory holds nothing else).
//
//   bench_compare --manifest BENCHMARK.json --parent DIR --change DIR
//   bench_compare --manifest BENCHMARK.json --untraced DIR --traced DIR
//
// The first form pairs the i-th parent run of each workload with the i-th
// change run (both ordered by start time) and reports every (metric,
// workload) row as improved, unchanged, worse or unresolved:
//   worse       the change's median is worse than the parent's by more
//               than the metric's bound in BENCHMARK.json;
//   improved    at least 10 pairs, the change wins at least 9 in 10 of
//               them (ties count for neither), and the medians differ by
//               more than the parent's interquartile range;
//   unresolved  the parent's own spread (IQR / median) is wider than the
//               bound and not every change run beats every parent run, or
//               there are fewer than 10 pairs;
//   unchanged   otherwise.
// Pairs whose load_sha256 or model_sha256 differ are refused: the two
// commits did not run the same load on the same models.
//
// The second form prints the tracing overhead on lat_p50_ms per workload:
// the traced runs' trace.lat_p50_ms median against the untraced median.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/json.h"

namespace {

using cpsguard::CpsError;
using cpsguard::util::Json;

constexpr std::size_t kMinPairs = 10;
constexpr double kWinShare = 0.9;

struct Run {
  std::string workload;
  long started_ms = 0;
  std::string load_sha256;
  std::string model_sha256;
  std::map<std::string, double> metrics;
};

struct MetricRule {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CpsError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

/// util::Json keeps non-integral numbers without a typed reader; its dump
/// is the number's text, to nine significant digits.
double as_number(const Json& j) {
  const std::string text = j.dump();
  double v = 0.0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc{}) throw CpsError("not a number: " + text);
  return v;
}

const Json& member(const Json& j, const std::string& key) {
  const Json* m = j.get(key);
  if (m == nullptr) throw CpsError("result file lacks '" + key + "'");
  return *m;
}

/// Runs of a directory, grouped by workload, each group in start order,
/// keeping the listed metrics that each run reports.
std::map<std::string, std::vector<Run>> load_runs(
    const std::string& dir, const std::vector<std::string>& keys) {
  std::map<std::string, std::vector<Run>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const Json j = read_json(entry.path().string());
    Run r;
    r.workload = member(j, "workload").as_str();
    r.started_ms = member(j, "started_ms").as_int();
    r.load_sha256 = member(j, "load_sha256").as_str();
    r.model_sha256 = member(j, "model_sha256").as_str();
    if (!member(j, "correct").as_bool() || member(j, "failed").as_int() != 0) {
      throw CpsError(entry.path().string() + " is not a correct, failure-free run");
    }
    const Json& metrics = member(j, "metrics");
    for (const std::string& key : keys) {
      if (const Json* m = metrics.get(key)) {
        r.metrics[key] = as_number(member(*m, "value"));
      }
    }
    out[r.workload].push_back(std::move(r));
  }
  for (auto& [_, runs] : out) {
    std::sort(runs.begin(), runs.end(),
              [](const Run& a, const Run& b) { return a.started_ms < b.started_ms; });
  }
  return out;
}

std::vector<MetricRule> end_to_end_rules(const std::string& manifest) {
  const Json m = read_json(manifest);
  std::vector<MetricRule> out;
  for (const Json& e : member(m, "end_to_end").items()) {
    out.push_back(MetricRule{member(e, "name").as_str(),
                             member(e, "better").as_str() == "lower",
                             as_number(member(e, "bound"))});
  }
  return out;
}

/// Python's statistics.quantiles(data, n=4) (exclusive method): q1, q2, q3.
std::vector<double> quartiles(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const auto ld = static_cast<long>(d.size());
  if (ld < 2) return {d.at(0), d.at(0), d.at(0)};
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * (ld + 1) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    q.push_back((d[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 d[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

std::vector<double> values(const std::vector<Run>& runs, const std::string& m) {
  std::vector<double> out;
  for (const Run& r : runs) {
    const auto it = r.metrics.find(m);
    if (it == r.metrics.end()) throw CpsError("a run lacks metric " + m);
    out.push_back(it->second);
  }
  return out;
}

int compare(const std::string& manifest, const std::string& parent_dir,
            const std::string& change_dir) {
  const std::vector<MetricRule> rules = end_to_end_rules(manifest);
  std::vector<std::string> keys;
  for (const MetricRule& r : rules) keys.push_back(r.name);
  const auto parent = load_runs(parent_dir, keys);
  const auto change = load_runs(change_dir, keys);
  std::printf("%-18s %-20s %12s %25s %12s %7s  %s\n", "workload", "metric",
              "parent_med", "parent_q1..q3", "change_med", "wins", "verdict");
  for (const auto& [workload, prs] : parent) {
    const auto it = change.find(workload);
    if (it == change.end()) {
      std::printf("%-18s (no change runs)\n", workload.c_str());
      continue;
    }
    const std::vector<Run>& crs = it->second;
    const std::size_t n = std::min(prs.size(), crs.size());
    bool alternating = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (prs[i].load_sha256 != crs[i].load_sha256 ||
          prs[i].model_sha256 != crs[i].model_sha256) {
        std::fprintf(stderr,
                     "refused: %s pair %zu ran a different load or different "
                     "models (load_sha256 / model_sha256 differ)\n",
                     workload.c_str(), i);
        return 2;
      }
      const bool parent_first = prs[i].started_ms < crs[i].started_ms;
      if (i > 0 &&
          parent_first == (prs[i - 1].started_ms < crs[i - 1].started_ms)) {
        alternating = false;
      }
    }
    if (!alternating) {
      std::printf("%-18s note: pairs did not alternate which side ran first\n",
                  workload.c_str());
    }
    const std::vector<Run> p(prs.begin(), prs.begin() + static_cast<long>(n));
    const std::vector<Run> c(crs.begin(), crs.begin() + static_cast<long>(n));
    for (const MetricRule& rule : rules) {
      const std::vector<double> pv = values(p, rule.name);
      const std::vector<double> cv = values(c, rule.name);
      const auto better = [&](double a, double b) {
        return rule.lower_is_better ? a < b : a > b;
      };
      std::size_t wins = 0;
      for (std::size_t i = 0; i < n; ++i) wins += better(cv[i], pv[i]) ? 1 : 0;
      const std::vector<double> pq = quartiles(pv);
      const double cmed = quartiles(cv)[1];
      const double iqr = pq[2] - pq[0];
      const bool all_better =
          better(rule.lower_is_better ? *std::max_element(cv.begin(), cv.end())
                                      : *std::min_element(cv.begin(), cv.end()),
                 rule.lower_is_better ? *std::min_element(pv.begin(), pv.end())
                                      : *std::max_element(pv.begin(), pv.end()));
      const double limit = rule.lower_is_better ? pq[1] * (1.0 + rule.bound)
                                                : pq[1] * (1.0 - rule.bound);
      const char* verdict = "unchanged";
      if (better(limit, cmed)) {
        verdict = "worse";
      } else if (n >= kMinPairs &&
                 static_cast<double>(wins) >= kWinShare * static_cast<double>(n) &&
                 better(cmed, pq[1]) && std::abs(cmed - pq[1]) > iqr) {
        verdict = "improved";
      } else if (n < kMinPairs || (iqr / pq[1] > rule.bound && !all_better)) {
        verdict = "unresolved";
      }
      char spread[64];
      std::snprintf(spread, sizeof spread, "%.6g..%.6g", pq[0], pq[2]);
      std::printf("%-18s %-20s %12.6g %25s %12.6g %3zu/%-3zu  %s\n",
                  workload.c_str(), rule.name.c_str(), pq[1], spread, cmed,
                  wins, n, verdict);
    }
  }
  return 0;
}

int overhead(const std::string& untraced_dir, const std::string& traced_dir) {
  const auto untraced = load_runs(untraced_dir, {"lat_p50_ms"});
  const auto traced = load_runs(traced_dir, {"trace.lat_p50_ms"});
  for (const auto& [workload, runs] : traced) {
    const auto it = untraced.find(workload);
    if (it == untraced.end()) continue;
    const double base = quartiles(values(it->second, "lat_p50_ms"))[1];
    const double with = quartiles(values(runs, "trace.lat_p50_ms"))[1];
    std::printf("%-18s lat_p50_ms untraced %.6g ms, traced %.6g ms: "
                "tracing overhead %+.2f %% (%zu vs %zu runs)\n",
                workload.c_str(), base, with, 100.0 * (with - base) / base,
                it->second.size(), runs.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  const auto known = {"--manifest", "--parent", "--change", "--untraced",
                      "--traced"};
  bool ok = argc % 2 == 1 && flags.count("--manifest") == 1;
  for (const auto& [flag, _] : flags) {
    ok = ok && std::find(known.begin(), known.end(), flag) != known.end();
  }
  const bool pairs = flags.count("--parent") && flags.count("--change");
  const bool tracing = flags.count("--untraced") && flags.count("--traced");
  if (!ok || pairs == tracing) {
    std::fprintf(stderr,
                 "usage: bench_compare --manifest BENCHMARK.json "
                 "--parent DIR --change DIR\n"
                 "       bench_compare --manifest BENCHMARK.json "
                 "--untraced DIR --traced DIR\n");
    return 2;
  }
  try {
    return pairs ? compare(flags["--manifest"], flags["--parent"],
                           flags["--change"])
                 : overhead(flags["--untraced"], flags["--traced"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 1;
  }
}
