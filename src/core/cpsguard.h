// cpsguard — robustness testing of data- and knowledge-driven anomaly
// detection in cyber-physical systems.
//
// Umbrella header: include this to get the full public API.
//
//   #include "core/cpsguard.h"
//
//   cpsguard::core::ExperimentConfig cfg;
//   cfg.campaign.testbed = cpsguard::sim::Testbed::kGlucosymOpenAps;
//   cpsguard::core::Experiment exp(cfg);
//   auto f1 = exp.evaluate_clean({cpsguard::monitor::Arch::kLstm, true}).f1();
//
// Layers (bottom-up):
//   util/     RNG, stats, CSV, tables, thread pool
//   nn/       from-scratch NN substrate (MLP, LSTM, Adam, semantic loss,
//             input gradients for FGSM)
//   sim/      two APS testbeds: patient plants, controllers, faults,
//             closed-loop engine
//   safety/   STL engine, Table I safety rules, hazard labelling,
//             rule-based monitor
//   monitor/  feature windows, datasets, scalers, the four ML monitors
//   attack/   Gaussian noise, white-box FGSM, black-box substitute FGSM
//   eval/     tolerance-window metrics (Table II), robustness error (Eq. 5)
//   core/     Experiment harness tying everything together
#pragma once

#include "attack/blackbox.h"
#include "attack/feature_squeezing.h"
#include "attack/fgsm.h"
#include "attack/gaussian.h"
#include "attack/perturbation.h"
#include "attack/nes.h"
#include "attack/pgd.h"
#include "attack/universal.h"
#include "core/experiment.h"
#include "core/online_monitor.h"
#include "eval/batch_eval.h"
#include "eval/extended_metrics.h"
#include "eval/metrics.h"
#include "eval/pr_curve.h"
#include "eval/robustness.h"
#include "monitor/dataset.h"
#include "monitor/features.h"
#include "monitor/ml_monitor.h"
#include "monitor/scaler.h"
#include "nn/classifier.h"
#include "nn/gradcheck.h"
#include "nn/serialize.h"
#include "safety/cusum.h"
#include "safety/hazard.h"
#include "safety/rule_monitor.h"
#include "safety/rules_aps.h"
#include "safety/stl.h"
#include "safety/stl_parser.h"
#include "sim/closed_loop.h"
#include "sim/fault_injector.h"
#include "sim/meal.h"
#include "sim/trace.h"
#include "util/cli.h"
#include "util/config_file.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
