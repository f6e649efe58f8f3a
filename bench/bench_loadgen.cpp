// Loadgen soak bench: a seeded churned workload (joins/leaves/reconnects,
// TTL eviction, heavy-tailed session lengths) driven through serve::Engine
// with the full invariant suite armed, reporting sustained throughput and
// verdict-latency percentiles (in ticks, exact — computed from the integer
// latency histogram, not samples).
//
// Extra flags:
//   --sessions N    base concurrent sessions             (default 256)
//   --ticks N       cycles to drive                      (default 400)
//   --model M       steady | diurnal | flash             (default diurnal)
//   --peak X        peak multiplier for diurnal/flash    (default 2.0)
//   --period N      diurnal period in ticks              (default 96)
//   --ttl N         idle-session TTL in ticks, 0 = off   (default 8)
//   --abandon P     abandon probability per leaver       (default 0.2)
//   --reconnect P   reconnect probability per leaver     (default 0.25)
//   --shards N      engine shards (0 = thread count)     (default 0)
//   --batch N       engine micro-batch rows              (default 64)
//   --queue N       per-shard queue capacity (0 = auto)  (default 0)
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "loadgen/workload.h"

using namespace cpsguard;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  util::set_log_level(util::LogLevel::kInfo);
  bench::BenchRun run("loadgen", cli);

  const int sessions = cli.get_int("sessions", 256);
  const int ticks = cli.get_int("ticks", 400);
  const std::string model_name = cli.get("model", "diurnal");
  const double peak = cli.get_double("peak", 2.0);
  const int period = cli.get_int("period", 96);
  const int ttl = cli.get_int("ttl", 8);
  const double abandon = cli.get_double("abandon", 0.2);
  const double reconnect = cli.get_double("reconnect", 0.25);
  const int threads = static_cast<int>(util::effective_parallelism());
  const int shards = cli.get_int("shards", 0) > 0 ? cli.get_int("shards", 0)
                                                  : threads;
  const int batch = cli.get_int("batch", 64);
  const auto model = loadgen::parse_traffic_model(model_name);
  if (!model) {
    std::fprintf(stderr, "unknown --model \"%s\" (steady|diurnal|flash)\n",
                 model_name.c_str());
    return 2;
  }
  // Auto queue sizing covers the crest of the concurrency envelope.
  const int peak_sessions =
      static_cast<int>(static_cast<double>(sessions) * std::max(peak, 1.0));
  const int queue = cli.get_int("queue", 0) > 0
                        ? cli.get_int("queue", 0)
                        : std::max(2 * batch,
                                   4 * (peak_sessions / std::max(shards, 1) + 1));

  core::Experiment exp(run.config(sim::Testbed::kGlucosymOpenAps, cli));
  run.attach(exp);
  monitor::MlMonitor& mon =
      exp.monitor(core::MonitorVariant{monitor::Arch::kMlp, false});
  const int window = exp.config().dataset.window;

  loadgen::WorkloadConfig cfg;
  cfg.traffic.model = *model;
  cfg.traffic.base_sessions = sessions;
  cfg.traffic.peak = peak;
  cfg.traffic.period = period;
  cfg.traffic.abandon_prob = abandon;
  cfg.traffic.reconnect_prob = reconnect;
  cfg.traffic.min_session_len = 4;
  cfg.traffic.max_session_len = 4 * ticks;
  cfg.engine.window = window;
  cfg.engine.shards = shards;
  cfg.engine.max_batch = batch;
  cfg.engine.queue_capacity = queue;
  cfg.engine.idle_ttl_ticks = ttl;
  cfg.ticks = ticks;
  cfg.seed = exp.config().campaign.seed;

  run.manifest().set_param("sessions", static_cast<long long>(sessions));
  run.manifest().set_param("ticks", static_cast<long long>(ticks));
  run.manifest().set_param("model", loadgen::to_string(*model));
  run.manifest().set_param("peak", peak);
  run.manifest().set_param("idle_ttl_ticks", static_cast<long long>(ttl));
  run.manifest().set_param("abandon_prob", abandon);
  run.manifest().set_param("reconnect_prob", reconnect);
  run.manifest().set_param("window", static_cast<long long>(window));
  run.manifest().set_param("shards", static_cast<long long>(shards));
  run.manifest().set_param("batch", static_cast<long long>(batch));
  run.manifest().set_param("queue_capacity", static_cast<long long>(queue));

  // Invariants stay armed: a bench that would report throughput for a
  // stream violating verdict conservation aborts loudly instead.
  loadgen::Workload workload(mon, exp.test_traces(), cfg);
  const loadgen::WorkloadReport report = workload.run();

  const double records_per_sec =
      report.seconds > 0
          ? static_cast<double>(report.accepted) / report.seconds
          : 0;
  const double windows_per_sec =
      report.seconds > 0
          ? static_cast<double>(report.verdicts) / report.seconds
          : 0;
  const double p50 = loadgen::latency_percentile(report.latency_counts, 0.50);
  const double p99 = loadgen::latency_percentile(report.latency_counts, 0.99);

  util::CsvWriter csv(
      {"model", "sessions", "distinct_sessions", "ticks", "records",
       "verdicts", "rejected_queue_full", "rejected_session_limit",
       "evictions", "rejoins", "seconds", "records_per_sec",
       "windows_per_sec", "latency_p50_ticks", "latency_p99_ticks",
       "max_queue_depth"});
  csv.add_row({loadgen::to_string(*model), std::to_string(sessions),
               std::to_string(report.distinct_sessions),
               std::to_string(ticks), std::to_string(report.accepted),
               std::to_string(report.verdicts),
               std::to_string(report.rejected_queue_full),
               std::to_string(report.rejected_session_limit),
               std::to_string(report.evictions),
               std::to_string(report.rejoins),
               util::CsvWriter::num(report.seconds),
               util::CsvWriter::num(records_per_sec),
               util::CsvWriter::num(windows_per_sec),
               util::CsvWriter::num(p50), util::CsvWriter::num(p99),
               std::to_string(report.max_queue_depth)});

  std::printf(
      "\nLoadgen soak — %s traffic, %d base sessions, %d ticks, window %d\n",
      loadgen::to_string(*model), sessions, ticks, window);
  util::Table table({"Metric", "Value"});
  table.add_row({"distinct sessions", std::to_string(report.distinct_sessions)});
  table.add_row({"records accepted", std::to_string(report.accepted)});
  table.add_row({"verdicts", std::to_string(report.verdicts)});
  table.add_row({"rejoins", std::to_string(report.rejoins)});
  table.add_row({"TTL evictions", std::to_string(report.evictions)});
  table.add_row({"records/s", util::Table::fixed(records_per_sec, 0)});
  table.add_row({"windows/s", util::Table::fixed(windows_per_sec, 0)});
  table.add_row({"latency p50 (ticks)", util::Table::fixed(p50, 0)});
  table.add_row({"latency p99 (ticks)", util::Table::fixed(p99, 0)});
  table.print();
  std::printf("stream sha256: %s\n", report.stream_sha256.c_str());

  run.manifest().set_param("distinct_sessions",
                           static_cast<long long>(report.distinct_sessions));
  run.manifest().set_param("records",
                           static_cast<long long>(report.accepted));
  run.manifest().set_param("verdicts",
                           static_cast<long long>(report.verdicts));
  run.manifest().set_param("records_per_sec", records_per_sec);
  run.manifest().set_param("windows_per_sec", windows_per_sec);
  run.manifest().set_param("latency_p50_ticks", p50);
  run.manifest().set_param("latency_p99_ticks", p99);
  run.manifest().set_param("stream_sha256", report.stream_sha256);

  run.write_csv(csv);
  run.finish(cli);
  return 0;
}
