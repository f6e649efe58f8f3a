#include "core/online_monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "core/experiment.h"
#include "monitor/features.h"
#include "nn/matrix.h"
#include "util/contracts.h"

// Allocation-regression instrumentation: replace the global allocation
// functions with counting shims so tests can pin "this path does not touch
// the heap". Counting is per-thread, so pool workers and test framework
// bookkeeping on other threads never pollute a measurement.
namespace {
thread_local std::uint64_t t_alloc_count = 0;

void* counted_alloc(std::size_t n) {
  ++t_alloc_count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cpsguard::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.campaign.patients = 3;
  cfg.campaign.sims_per_patient = 3;
  cfg.campaign.trace_steps = 60;
  cfg.campaign.seed = 11;
  cfg.epochs = 2;
  cfg.cache_dir = "";
  return cfg;
}

class OnlineMonitorTest : public ::testing::Test {
 protected:
  OnlineMonitorTest() : exp_(tiny_config()) {}

  Experiment exp_;
  const MonitorVariant mlp_{monitor::Arch::kMlp, false};
};

TEST_F(OnlineMonitorTest, NotReadyUntilWindowFills) {
  auto& mon = exp_.monitor(mlp_);
  const int window = exp_.config().dataset.window;
  OnlineMonitor online(mon, window);
  const sim::Trace& trace = exp_.test_traces().front();
  for (int t = 0; t < window - 1; ++t) {
    const auto v = online.step(trace.steps[static_cast<std::size_t>(t)]);
    EXPECT_FALSE(v.ready) << "cycle " << t;
  }
  const auto v = online.step(trace.steps[static_cast<std::size_t>(window - 1)]);
  EXPECT_TRUE(v.ready);
  EXPECT_GE(v.p_unsafe, 0.0);
  EXPECT_LE(v.p_unsafe, 1.0);
}

TEST_F(OnlineMonitorTest, MatchesBatchPredictionsExactly) {
  // Streaming the trace must reproduce the offline windowed predictions.
  auto& mon = exp_.monitor(mlp_);
  const auto& test = exp_.test_data();
  const auto batch_preds = mon.predict(test.x);

  const int window = test.config.window;
  for (std::size_t tr = 0; tr < exp_.test_traces().size() && tr < 2; ++tr) {
    const sim::Trace& trace = exp_.test_traces()[tr];
    OnlineMonitor online(mon, window);
    for (int t = 0; t < trace.length(); ++t) {
      const auto v = online.step(trace.steps[static_cast<std::size_t>(t)]);
      if (!v.ready) continue;
      // Find the dataset window for (trace tr, end step t).
      for (int i = 0; i < test.size(); ++i) {
        const auto si = static_cast<std::size_t>(i);
        if (test.trace_id[si] == static_cast<int>(tr) && test.step_index[si] == t) {
          EXPECT_EQ(v.prediction, batch_preds[si])
              << "trace " << tr << " step " << t;
        }
      }
    }
  }
}

TEST_F(OnlineMonitorTest, ResetForgetsHistory) {
  auto& mon = exp_.monitor(mlp_);
  const int window = exp_.config().dataset.window;
  OnlineMonitor online(mon, window);
  const sim::Trace& trace = exp_.test_traces().front();
  for (int t = 0; t < window; ++t) {
    online.step(trace.steps[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(online.cycles_seen(), window);
  online.reset();
  EXPECT_EQ(online.cycles_seen(), 0);
  const auto v = online.step(trace.steps[0]);
  EXPECT_FALSE(v.ready);
}

TEST_F(OnlineMonitorTest, NonFiniteRecordGetsNoVerdictWhileInWindow) {
  // Every window holding the faulted record is refused, never verdicted
  // safe, although the MLP's ReLU maps a NaN feature to 0. Windows after it
  // are judged again.
  auto& mon = exp_.monitor(mlp_);
  const int window = exp_.config().dataset.window;
  const sim::Trace& trace = exp_.test_traces().front();
  ASSERT_GE(trace.length(), 3 * window);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    OnlineMonitor online(mon, window);
    const int fault = window + 1;
    for (int t = 0; t < 3 * window; ++t) {
      sim::StepRecord rec = trace.steps[static_cast<std::size_t>(t)];
      if (t == fault) rec.sensor_bg = bad;
      const auto v = online.step(rec);
      if (!v.ready) continue;
      if (t >= fault && t < fault + window) {
        EXPECT_EQ(v.prediction, nn::kNoVerdict) << "cycle " << t;
      } else {
        EXPECT_TRUE(v.prediction == 0 || v.prediction == 1) << "cycle " << t;
      }
    }
  }
}

TEST_F(OnlineMonitorTest, WindowingPathDoesNotAllocate) {
  // Regression pin for the old deque-of-vectors window: every step()
  // heap-allocated a fresh feature row (and, once ready, a Tensor3) and
  // re-copied the whole window. With the ring buffer the pre-inference
  // windowing path must not allocate at all.
  auto& mon = exp_.monitor(mlp_);
  const int window = exp_.config().dataset.window;
  OnlineMonitor online(mon, window);
  const sim::Trace& trace = exp_.test_traces().front();
  ASSERT_GE(trace.length(), window);
  // Exercise once (fills the ring through a wrap), then measure a second
  // pass over the same preallocated state.
  for (int t = 0; t < window - 1; ++t) {
    online.step(trace.steps[static_cast<std::size_t>(t)]);
  }
  online.reset();
  const std::uint64_t before = t_alloc_count;
  for (int t = 0; t < window - 1; ++t) {
    online.step(trace.steps[static_cast<std::size_t>(t)]);
  }
  const std::uint64_t allocs = t_alloc_count - before;
  EXPECT_EQ(allocs, 0u)
      << "OnlineMonitor::step allocated on the windowing path";
  // reset() must release nothing either (capacity is retained).
  const std::uint64_t before_reset = t_alloc_count;
  online.reset();
  EXPECT_EQ(t_alloc_count - before_reset, 0u);
}

TEST_F(OnlineMonitorTest, RejectsUntrainedMonitorAndBadWindow) {
  monitor::MonitorConfig mc;
  monitor::MlMonitor untrained(mc);
  EXPECT_THROW(OnlineMonitor(untrained, 6), ContractViolation);
  auto& mon = exp_.monitor(mlp_);
  EXPECT_THROW(OnlineMonitor(mon, 0), ContractViolation);
  EXPECT_THROW(OnlineMonitor(mon, -1), ContractViolation);
}

}  // namespace
}  // namespace cpsguard::core
