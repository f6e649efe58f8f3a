// Kill-and-resume suite: a checkpointed campaign must produce byte-identical
// results whether it runs straight through, is killed and resumed mid-sweep,
// finds corrupted/truncated records on disk, or runs under the chaos
// harness. Results are compared through the same CSV formatting the benches
// use, so "byte-identical" here means identical output files.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "util/chaos.h"
#include "util/csv.h"
#include "util/deadline.h"

namespace cpsguard {
namespace {

namespace fs = std::filesystem;

const core::MonitorVariant kVariant{monitor::Arch::kMlp, false};

const std::vector<double>& sigmas() {
  static const std::vector<double> v = {0.25, 0.75};
  return v;
}

core::ExperimentConfig mini_config() {
  core::ExperimentConfig cfg;
  cfg.campaign.testbed = sim::Testbed::kGlucosymOpenAps;
  cfg.campaign.patients = 2;
  cfg.campaign.sims_per_patient = 2;
  cfg.campaign.trace_steps = 48;
  cfg.campaign.seed = 7;
  cfg.epochs = 1;
  cfg.cache_dir = "";  // isolate checkpointing from the model file cache
  return cfg;
}

/// Bench-style CSV rendering of sweep results; byte equality of these
/// strings is byte equality of the output file a bench would write.
std::string csv_of(const std::vector<core::EvalResult>& results) {
  util::CsvWriter csv({"sigma", "f1", "acc", "robustness_error"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    csv.add_row({util::CsvWriter::num(sigmas()[i]),
                 util::CsvWriter::num(results[i].f1()),
                 util::CsvWriter::num(results[i].accuracy()),
                 util::CsvWriter::num(results[i].robustness_err)});
  }
  return csv.to_string();
}

void expect_bit_identical(const std::vector<core::EvalResult>& got,
                          const std::vector<core::EvalResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].confusion.tp, want[i].confusion.tp) << "point " << i;
    EXPECT_EQ(got[i].confusion.fp, want[i].confusion.fp) << "point " << i;
    EXPECT_EQ(got[i].confusion.tn, want[i].confusion.tn) << "point " << i;
    EXPECT_EQ(got[i].confusion.fn, want[i].confusion.fn) << "point " << i;
    EXPECT_EQ(std::memcmp(&got[i].robustness_err, &want[i].robustness_err,
                          sizeof(double)),
              0)
        << "point " << i << ": robustness_err not bit-identical";
  }
  EXPECT_EQ(csv_of(got), csv_of(want));
}

/// The straight-through (no store) reference results, computed once.
const std::vector<core::EvalResult>& baseline() {
  static const std::vector<core::EvalResult> b = [] {
    core::Experiment exp(mini_config());
    return exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  }();
  return b;
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pin chaos off so the exact-count stats assertions are deterministic
    // even under CPSGUARD_CHAOS=1; the chaos test below opts back in.
    saved_chaos_ = util::chaos().config();
    util::chaos().configure(util::ChaosConfig{});
    dir_ = (fs::temp_directory_path() /
            ("cpsguard_resume_test_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    util::set_global_deadline(util::Deadline{});  // disarm
    util::chaos().configure(saved_chaos_);
  }

  std::vector<std::string> record_files() const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".ckpt") out.push_back(e.path().string());
    }
    return out;
  }

  std::string dir_;
  util::ChaosConfig saved_chaos_;
};

TEST_F(ResumeTest, CheckpointedRunMatchesPlainRun) {
  core::CheckpointStore store(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&store);
  const auto results = exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  expect_bit_identical(results, baseline());
  // One record per sweep point plus the trained-model snapshot.
  EXPECT_EQ(store.stats().puts, sigmas().size() + 1);
}

TEST_F(ResumeTest, FullResumeIsByteIdentical) {
  {
    core::CheckpointStore store(dir_);
    core::Experiment exp(mini_config());
    exp.set_checkpoint_store(&store);
    exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  }
  core::CheckpointStore resumed(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&resumed);
  const auto results = exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  expect_bit_identical(results, baseline());
  // Everything came from the store: model snapshot + every sweep point.
  EXPECT_EQ(resumed.stats().hits, sigmas().size() + 1);
  EXPECT_EQ(resumed.stats().puts, 0u);
}

TEST_F(ResumeTest, PartialResumeAfterSimulatedKillIsByteIdentical) {
  {
    core::CheckpointStore store(dir_);
    core::Experiment exp(mini_config());
    exp.set_checkpoint_store(&store);
    exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  }
  // Simulate a kill that landed before some records were written: drop
  // every other record file (whichever they are — sweep point or model
  // snapshot, the campaign must recompute exactly the missing work).
  const auto files = record_files();
  ASSERT_EQ(files.size(), sigmas().size() + 1);
  for (std::size_t i = 0; i < files.size(); i += 2) fs::remove(files[i]);

  core::CheckpointStore resumed(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&resumed);
  const auto results = exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  expect_bit_identical(results, baseline());
}

TEST_F(ResumeTest, CorruptedAndTruncatedRecordsAreHealedOnResume) {
  {
    core::CheckpointStore store(dir_);
    core::Experiment exp(mini_config());
    exp.set_checkpoint_store(&store);
    exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  }
  const auto files = record_files();
  ASSERT_GE(files.size(), 2u);
  {  // bit rot in one record
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(files[0]) / 2));
    f.put('\x5a');
  }
  fs::resize_file(files[1], fs::file_size(files[1]) / 2);  // torn write

  core::CheckpointStore resumed(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&resumed);
  const auto results = exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  expect_bit_identical(results, baseline());
  EXPECT_GE(resumed.stats().discarded, 1u);
  // The store healed: a further resume hits every record again.
  core::CheckpointStore healed(dir_);
  core::Experiment exp2(mini_config());
  exp2.set_checkpoint_store(&healed);
  expect_bit_identical(exp2.evaluate_under_gaussian_sweep(kVariant, sigmas()),
                       baseline());
  EXPECT_EQ(healed.stats().puts, 0u);
}

TEST_F(ResumeTest, DeadlineAbortThenResumeIsByteIdentical) {
  {
    core::CheckpointStore store(dir_);
    core::Experiment exp(mini_config());
    exp.set_checkpoint_store(&store);
    exp.monitor(kVariant);  // train (and snapshot) before the budget expires
    util::set_global_deadline(util::Deadline::after_seconds(-1.0));
    EXPECT_THROW(exp.evaluate_under_gaussian_sweep(kVariant, sigmas()),
                 util::DeadlineExceeded);
    util::set_global_deadline(util::Deadline{});
  }
  // The aborted run checkpointed its model snapshot; the resumed run picks
  // it up and completes the sweep with the exact straight-through bytes.
  core::CheckpointStore resumed(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&resumed);
  const auto results = exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  expect_bit_identical(results, baseline());
  EXPECT_GE(resumed.stats().hits, 1u);  // the snapshot
}

TEST_F(ResumeTest, LineageIsRecordedAcrossResumes) {
  std::string first_id;
  {
    core::CheckpointStore store(dir_);
    first_id = store.run_id();
  }
  core::CheckpointStore resumed(dir_);
  EXPECT_EQ(resumed.parent_run_id(), first_id);
  EXPECT_NE(resumed.run_id(), first_id);
}

TEST_F(ResumeTest, SweepKindsAndPointsGetDistinctRecords) {
  core::CheckpointStore store(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&store);
  const std::vector<double> eps = {0.25};  // same value as a sigma point
  exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  exp.evaluate_under_fgsm_sweep(kVariant, eps);
  // 2 gaussian points + 1 fgsm point + 1 model snapshot, no collisions even
  // though sigma and epsilon share the value 0.25.
  EXPECT_EQ(record_files().size(), sigmas().size() + 2);
}

// The FGSM input gradient is computed once per curve, after the resume
// scan and only for missing points: a fully resumed sweep computes none.
TEST_F(ResumeTest, FullyResumedFgsmSweepComputesNoGradient) {
  const std::vector<double> eps = {0.05, 0.2};
  const obs::Counter& gradients =
      obs::Registry::instance().counter("attack.fgsm.gradients");
  std::vector<core::EvalResult> straight;
  {
    core::CheckpointStore store(dir_);
    core::Experiment exp(mini_config());
    exp.set_checkpoint_store(&store);
    exp.monitor(kVariant);
    const std::uint64_t before = gradients.value();
    straight = exp.evaluate_under_fgsm_sweep(kVariant, eps);
    EXPECT_EQ(gradients.value() - before, 1u) << "one gradient per curve";
  }
  core::CheckpointStore resumed(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&resumed);
  exp.monitor(kVariant);
  const std::uint64_t before = gradients.value();
  expect_bit_identical(exp.evaluate_under_fgsm_sweep(kVariant, eps), straight);
  EXPECT_EQ(gradients.value(), before);
  EXPECT_EQ(resumed.stats().puts, 0u);
}

// One transient chaos fault per sweep point: the point's input is rebuilt
// on the retry, and the curve is byte-identical to a fault-free one.
TEST_F(ResumeTest, OneShotPointFaultIsRetriedToTheSameBytes) {
  util::ChaosConfig cfg;
  cfg.enabled = true;
  cfg.seed = 99;
  cfg.task_throw_rate = 1.0;  // fires once per (seam, key), then never again
  const std::vector<core::EvalResult>& fault_free = baseline();
  util::chaos().configure(cfg);
  const obs::Counter& recovered =
      obs::Registry::instance().counter("retry.recovered");
  core::Experiment exp(mini_config());
  exp.monitor(kVariant);
  const std::uint64_t before = recovered.value();
  expect_bit_identical(exp.evaluate_under_gaussian_sweep(kVariant, sigmas()),
                       fault_free);
  EXPECT_EQ(recovered.value() - before, sigmas().size());
}

// A resume that finds some points in the store predicts only the others.
TEST_F(ResumeTest, PartialResumePredictsOnlyMissingPoints) {
  const obs::Counter& predicted =
      obs::Registry::instance().counter("experiment.sweep_windows_predicted");
  const std::vector<core::EvalResult>& straight = baseline();
  {
    core::CheckpointStore store(dir_);
    core::Experiment exp(mini_config());
    exp.set_checkpoint_store(&store);
    exp.evaluate_under_gaussian_sweep(kVariant, {sigmas().data(), 1});
  }
  core::CheckpointStore resumed(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&resumed);
  exp.monitor(kVariant);
  const std::uint64_t before = predicted.value();
  expect_bit_identical(exp.evaluate_under_gaussian_sweep(kVariant, sigmas()),
                       straight);
  EXPECT_EQ(predicted.value() - before,
            static_cast<std::uint64_t>(exp.test_data().size()) *
                (sigmas().size() - 1));
  EXPECT_EQ(resumed.stats().puts, sigmas().size() - 1);
}

TEST_F(ResumeTest, ChaosRunIsByteIdenticalAndResumable) {
  util::ChaosConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4242;
  cfg.task_throw_rate = 1.0;  // every sweep point fails once, retry recovers
  cfg.io_fail_rate = 1.0;     // every write fails once, retry recovers
  cfg.corrupt_rate = 0.5;     // some records rot after landing on disk
  util::chaos().configure(cfg);

  {
    core::CheckpointStore store(dir_);
    core::Experiment exp(mini_config());
    exp.set_checkpoint_store(&store);
    const auto results = exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
    expect_bit_identical(results, baseline());
  }
  // Resume re-reads the (possibly chaos-rotted) records: corrupted ones are
  // discarded and recomputed, and the final bytes still match.
  util::chaos().configure(cfg);  // reset once-per-key memory for the resume
  core::CheckpointStore resumed(dir_);
  core::Experiment exp(mini_config());
  exp.set_checkpoint_store(&resumed);
  const auto results = exp.evaluate_under_gaussian_sweep(kVariant, sigmas());
  expect_bit_identical(results, baseline());
}

}  // namespace
}  // namespace cpsguard
