// Extension bench (beyond the paper's tables): threshold-free AUC, hazard
// detection latency (alarm lead time before hazard onset), and per-hazard
// recall (H1 hypoglycemia vs H2 hyperglycemia) for every monitor — the
// numbers a mitigation-system designer would ask for next.
#include "bench_common.h"

using namespace cpsguard;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  util::set_log_level(util::LogLevel::kInfo);
  bench::BenchRun run("extended_metrics", cli);
  const int max_lead = cli.get_int("max-lead", 12);  // 1 h look-back
  run.manifest().set_param("max_lead", static_cast<long long>(max_lead));

  util::CsvWriter csv({"simulator", "model", "auc", "episodes",
                       "episode_detection_rate", "mean_lead_min",
                       "h1_recall", "h2_recall"});

  for (const sim::Testbed tb : bench::both_testbeds()) {
    core::Experiment exp(run.config(tb, cli));
    exp.train_all();
    const auto& test = exp.test_data();
    const auto& traces = exp.test_traces();

    std::printf("\nExtended metrics — %s (lead window %d min)\n",
                sim::to_string(tb).c_str(),
                static_cast<int>(max_lead * sim::kControlPeriodMin));
    util::Table table({"Model", "AUC", "episodes", "detected", "mean lead (min)",
                       "H1 recall", "H2 recall"});

    auto add_row = [&](const std::string& name, std::span<const double> scores,
                       std::span<const int> preds) {
      const double auc = scores.empty() ? 0.5 : eval::roc_auc(scores, test.labels);
      const auto episodes = eval::detection_latencies(test, preds, traces, max_lead);
      const auto lat = eval::summarize_latencies(episodes);
      const auto hb = eval::hazard_breakdown(test, preds, traces);
      table.add_row({name, util::Table::fixed(auc, 3),
                     std::to_string(lat.episodes), std::to_string(lat.detected),
                     util::Table::fixed(lat.mean_lead_minutes, 1),
                     util::Table::fixed(hb.h1_recall(), 3),
                     util::Table::fixed(hb.h2_recall(), 3)});
      csv.add_row({sim::to_string(tb), name, util::CsvWriter::num(auc),
                   std::to_string(lat.episodes),
                   util::CsvWriter::num(lat.detection_rate),
                   util::CsvWriter::num(lat.mean_lead_minutes),
                   util::CsvWriter::num(hb.h1_recall()),
                   util::CsvWriter::num(hb.h2_recall())});
    };

    for (const auto& v : core::all_variants()) {
      auto& mon = exp.monitor(v);
      const nn::Matrix probs = mon.predict_proba(test.x);
      std::vector<double> scores(static_cast<std::size_t>(probs.rows()));
      for (int i = 0; i < probs.rows(); ++i) {
        scores[static_cast<std::size_t>(i)] = probs.at(i, 1);
      }
      add_row(v.name(), scores, exp.clean_predictions(v));
    }

    // Rule-based monitor: binary output doubles as its score.
    std::vector<int> rule_preds(static_cast<std::size_t>(test.size()), 0);
    auto& rm = exp.rule_monitor();
    for (int i = 0; i < test.size(); ++i) {
      const auto si = static_cast<std::size_t>(i);
      rule_preds[si] = rm.predict_step(
          traces[static_cast<std::size_t>(test.trace_id[si])]
              .steps[static_cast<std::size_t>(test.step_index[si])]);
    }
    std::vector<double> rule_scores(rule_preds.begin(), rule_preds.end());
    add_row("Rule-based", rule_scores, rule_preds);

    table.print();
  }

  run.write_csv(csv);
  run.finish(cli);
  return 0;
}
