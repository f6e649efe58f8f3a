// Streaming-service throughput bench: many concurrent patient sessions,
// per-session OnlineMonitor loop (batch-1 inference) vs serve::Engine
// (cross-session micro-batched inference), at equal thread count.
//
// Baseline partitions the sessions across T threads; every thread reads the
// one trained monitor (inference is const) through a dedicated
// OnlineMonitor per session, so it runs with zero synchronization — the
// strongest fair baseline for "one monitor instance per patient". The
// engine run ingests the same records round-robin from one thread and
// ticks every cycle, fanning the shard flushes across the same T-way
// parallelism.
//
// Both modes stream identical records, warm the windows unmeasured, and
// then time `--cycles` steady-state cycles; the verdict counts must match
// exactly or the bench aborts.
//
// Extra flags:
//   --sessions N      concurrent sessions                (default 1000)
//   --cycles N        measured steady-state cycles       (default 40)
//   --shards N        engine shards (0 = thread count)   (default 0)
//   --batch N         engine micro-batch rows            (default 256)
//   --swap-every N    hot self-swap every N engine cycles (0 = off,
//                     default 0) — measures steady-state cost of the
//                     epoch-boundary swap protocol (one model copy per
//                     swap, activation) without changing the verdicts
#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "bench_common.h"
#include "serve/engine.h"

using namespace cpsguard;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The record session `s` submits on cycle `t`: sessions replay the test
/// traces round-robin, each with its own phase so shards see mixed content.
const sim::StepRecord& record_for(const std::vector<sim::Trace>& traces,
                                  int s, int t) {
  const auto& steps =
      traces[static_cast<std::size_t>(s) % traces.size()].steps;
  return steps[static_cast<std::size_t>(s + t) % steps.size()];
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  util::set_log_level(util::LogLevel::kInfo);
  bench::BenchRun run("serve", cli);

  const int sessions = cli.get_int("sessions", 1000);
  const int cycles = cli.get_int("cycles", 40);
  const int threads = static_cast<int>(util::effective_parallelism());
  const int shards = cli.get_int("shards", 0) > 0 ? cli.get_int("shards", 0)
                                                  : threads;
  const int batch = cli.get_int("batch", 256);
  const int swap_every = cli.get_int("swap-every", 0);
  run.manifest().set_param("sessions", static_cast<long long>(sessions));
  run.manifest().set_param("cycles", static_cast<long long>(cycles));
  run.manifest().set_param("shards", static_cast<long long>(shards));
  run.manifest().set_param("batch", static_cast<long long>(batch));
  run.manifest().set_param("swap_every", static_cast<long long>(swap_every));

  core::Experiment exp(run.config(sim::Testbed::kGlucosymOpenAps, cli));
  run.attach(exp);
  monitor::MlMonitor& mon =
      exp.monitor(core::MonitorVariant{monitor::Arch::kMlp, false});
  const int window = exp.config().dataset.window;
  run.manifest().set_param("window", static_cast<long long>(window));
  const std::vector<sim::Trace>& traces = exp.test_traces();

  // ---- Baseline: per-session OnlineMonitors, sessions striped over T
  // threads, all on the one shared monitor. Warm-up fills every window
  // (window-1 cycles emit nothing), then `cycles` cycles are timed.
  long long base_verdicts = 0;
  double base_seconds = 0.0;
  {
    std::vector<std::vector<core::OnlineMonitor>> monitors(
        static_cast<std::size_t>(threads));
    std::vector<std::vector<int>> ids(static_cast<std::size_t>(threads));
    for (int s = 0; s < sessions; ++s) {
      const auto w = static_cast<std::size_t>(s % threads);
      monitors[w].emplace_back(mon, window);
      ids[w].push_back(s);
    }
    const auto stream = [&](int worker, int from, int to,
                            long long& verdicts) {
      const auto w = static_cast<std::size_t>(worker);
      for (int t = from; t < to; ++t) {
        for (std::size_t i = 0; i < monitors[w].size(); ++i) {
          const auto v =
              monitors[w][i].step(record_for(traces, ids[w][i], t));
          if (v.ready) ++verdicts;
        }
      }
    };
    const auto run_threads = [&](int from, int to) {
      std::vector<long long> counts(static_cast<std::size_t>(threads), 0);
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int w = 0; w < threads; ++w) {
        pool.emplace_back(stream, w, from, to,
                          std::ref(counts[static_cast<std::size_t>(w)]));
      }
      for (auto& th : pool) th.join();
      long long total = 0;
      for (const long long c : counts) total += c;
      return total;
    };
    run_threads(0, window - 1);  // warm-up: fill windows, no verdicts
    const auto start = Clock::now();
    base_verdicts = run_threads(window - 1, window - 1 + cycles);
    base_seconds = seconds_since(start);
  }

  // ---- Engine: one ingest loop, tick per cycle, shard flushes fanned
  // across the shared pool (serial under --threads 1).
  long long engine_verdicts = 0;
  double engine_seconds = 0.0;
  {
    serve::EngineConfig cfg;
    cfg.shards = shards;
    cfg.window = window;
    cfg.max_batch = batch;
    cfg.queue_capacity =
        std::max(2 * batch, 4 * (sessions / std::max(shards, 1) + 1));
    run.manifest().set_param("queue_capacity",
                             static_cast<long long>(cfg.queue_capacity));
    serve::Engine engine(mon, cfg);
    int measured = 0;
    const auto cycle = [&](int t, bool timed) {
      // Self-swaps are verdict-neutral (each window is scaled as it stages
      // by the model that scores it), so the baseline comparison stays
      // exact while the swap cost lands inside the timed region.
      if (timed && swap_every > 0 && ++measured % swap_every == 0) {
        engine.stage_model(mon, engine.active_version());
      }
      for (int s = 0; s < sessions; ++s) {
        engine.submit(static_cast<serve::SessionId>(s),
                      record_for(traces, s, t));
      }
      return static_cast<long long>(engine.tick().size());
    };
    for (int t = 0; t < window - 1; ++t) cycle(t, false);  // warm-up
    const auto start = Clock::now();
    for (int t = window - 1; t < window - 1 + cycles; ++t) {
      engine_verdicts += cycle(t, true);
    }
    engine_seconds = seconds_since(start);
    const serve::SwapStats& ss = engine.swap_stats();
    run.manifest().set_param("swaps", static_cast<long long>(ss.swaps));
    run.manifest().set_param("swap_max_latency_ticks",
                             static_cast<long long>(ss.max_latency_ticks));
  }

  if (engine_verdicts != base_verdicts) {
    std::fprintf(stderr,
                 "verdict count mismatch: baseline %lld vs engine %lld\n",
                 base_verdicts, engine_verdicts);
    return 1;
  }

  const double base_rate =
      base_seconds > 0 ? static_cast<double>(base_verdicts) / base_seconds : 0;
  const double engine_rate =
      engine_seconds > 0
          ? static_cast<double>(engine_verdicts) / engine_seconds
          : 0;
  const double speedup = base_rate > 0 ? engine_rate / base_rate : 0;

  util::CsvWriter csv({"mode", "sessions", "threads", "shards", "batch",
                       "cycles", "windows", "seconds", "windows_per_sec"});
  csv.add_row({"online_monitor", std::to_string(sessions),
               std::to_string(threads), "1", "1", std::to_string(cycles),
               std::to_string(base_verdicts),
               util::CsvWriter::num(base_seconds),
               util::CsvWriter::num(base_rate)});
  csv.add_row({"engine",
               std::to_string(sessions), std::to_string(threads),
               std::to_string(shards), std::to_string(batch),
               std::to_string(cycles), std::to_string(engine_verdicts),
               util::CsvWriter::num(engine_seconds),
               util::CsvWriter::num(engine_rate)});

  std::printf("\nServe throughput — %d sessions, %d threads, window %d\n",
              sessions, threads, window);
  util::Table table({"Mode", "Windows", "Seconds", "Windows/s"});
  table.add_row({"OnlineMonitor loop", std::to_string(base_verdicts),
                 util::Table::fixed(base_seconds, 3),
                 util::Table::fixed(base_rate, 0)});
  table.add_row({"Engine",
                 std::to_string(engine_verdicts),
                 util::Table::fixed(engine_seconds, 3),
                 util::Table::fixed(engine_rate, 0)});
  table.print();
  std::printf("speedup: %.2fx\n", speedup);
  run.manifest().set_param("speedup", speedup);

  run.write_csv(csv);
  run.finish(cli);
  return 0;
}
