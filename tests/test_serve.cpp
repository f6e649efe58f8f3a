// Streaming detection service suite: warm-up boundary, per-session
// isolation (interleaved sessions reproduce dedicated OnlineMonitors
// bit-for-bit), admission control, deterministic golden replay (serial vs
// pooled flushes byte-identical, pinned against tests/golden/, including a
// mid-stream hot-swap + rollback segment), live model hot-swap (epoch
// boundary latency, no-op self-swap oracle, shadow scoring, rollback,
// registry-driven swap, swaps across scalers), refusal of a monitor whose
// window shape does not match the engine, no verdict for a window holding a
// non-finite value, and concurrent ingest (the TSan CI job runs this
// binary).
//
// Re-bless the replay golden after an intentional model/output change:
//   CPSGUARD_BLESS=1 ./build/tests/test_serve
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/online_monitor.h"
#include "monitor/features.h"
#include "nn/matrix.h"
#include "obs/sha256.h"
#include "registry/registry.h"
#include "serve/stable_hash.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/thread_pool.h"

#ifndef CPSGUARD_GOLDEN_DIR
#define CPSGUARD_GOLDEN_DIR "tests/golden"
#endif

namespace cpsguard::serve {
namespace {

namespace fs = std::filesystem;

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.campaign.patients = 3;
  cfg.campaign.sims_per_patient = 3;
  cfg.campaign.trace_steps = 60;
  cfg.campaign.seed = 11;
  cfg.epochs = 2;
  cfg.cache_dir = "";
  return cfg;
}

/// Same pipeline, another campaign: a model trained on it has its own
/// scaler, so swapping it in changes the scaler space windows are staged in.
core::ExperimentConfig other_seed_config() {
  core::ExperimentConfig cfg = tiny_config();
  cfg.campaign.seed = 23;
  return cfg;
}

bool scalers_differ(const monitor::MlMonitor& a, const monitor::MlMonitor& b) {
  for (int f = 0; f < monitor::Features::kNumFeatures; ++f) {
    if (a.scaler().mean_of(f) != b.scaler().mean_of(f)) return true;
  }
  return false;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : exp_(tiny_config()) {}

  monitor::MlMonitor& mon() { return exp_.monitor(mlp_); }
  /// A second, genuinely different model (other architecture) for hot-swap
  /// tests. Its scaler fits the same data, so it equals mon()'s; swaps
  /// across scalers use a model from other_seed_config().
  monitor::MlMonitor& next_mon() { return exp_.monitor(gru_); }
  int window() const { return exp_.config().dataset.window; }

  core::Experiment exp_;
  const core::MonitorVariant mlp_{monitor::Arch::kMlp, false};
  const core::MonitorVariant gru_{monitor::Arch::kGru, false};
};

TEST_F(ServeTest, WarmupBoundary) {
  EngineConfig cfg;
  cfg.window = window();
  Engine engine(mon(), cfg);
  const sim::Trace& trace = exp_.test_traces().front();

  for (int t = 0; t < window() - 1; ++t) {
    engine.submit(9001, trace.steps[static_cast<std::size_t>(t)]);
    EXPECT_TRUE(engine.tick().empty()) << "cycle " << t;
  }
  engine.submit(9001, trace.steps[static_cast<std::size_t>(window() - 1)]);
  const auto events = engine.tick();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].session, 9001u);
  EXPECT_EQ(events[0].cycle, window() - 1);
  EXPECT_GE(events[0].p_unsafe, 0.0);
  EXPECT_LE(events[0].p_unsafe, 1.0);
}

TEST_F(ServeTest, InterleavedSessionsMatchDedicatedMonitors) {
  // Three interleaved sessions, a small micro-batch (so inline batch-full
  // flushes happen) and uneven ticks must reproduce per-trace
  // OnlineMonitors exactly — cross-session batching may not leak state.
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 4;
  cfg.queue_capacity = 1024;
  Engine engine(mon(), cfg);

  const auto& traces = exp_.test_traces();
  ASSERT_GE(traces.size(), 3u);
  const SessionId ids[3] = {101, 202, 303};
  std::map<SessionId, std::vector<VerdictEvent>> got;
  const int steps = traces[0].length();
  for (int t = 0; t < steps; ++t) {
    for (int s = 0; s < 3; ++s) {
      if (t < traces[static_cast<std::size_t>(s)].length()) {
        engine.submit(ids[s],
                      traces[static_cast<std::size_t>(s)]
                          .steps[static_cast<std::size_t>(t)]);
      }
    }
    if (t % 7 == 0) {
      for (const auto& ev : engine.tick()) got[ev.session].push_back(ev);
    }
  }
  for (const auto& ev : engine.tick()) got[ev.session].push_back(ev);

  for (int s = 0; s < 3; ++s) {
    const sim::Trace& trace = traces[static_cast<std::size_t>(s)];
    core::OnlineMonitor dedicated(mon(), window());
    const auto& events = got[ids[s]];
    std::size_t next = 0;
    for (int t = 0; t < trace.length(); ++t) {
      const auto v = dedicated.step(trace.steps[static_cast<std::size_t>(t)]);
      if (!v.ready) continue;
      ASSERT_LT(next, events.size()) << "session " << s << " cycle " << t;
      const VerdictEvent& ev = events[next++];
      EXPECT_EQ(ev.cycle, t);
      EXPECT_EQ(ev.prediction, v.prediction) << "session " << s << " cycle " << t;
      EXPECT_EQ(ev.p_unsafe, v.p_unsafe) << "session " << s << " cycle " << t;
    }
    EXPECT_EQ(next, events.size()) << "session " << s << " extra verdicts";
  }
}

TEST_F(ServeTest, BackpressureRejectsWithTypedError) {
  const int w = window();
  EngineConfig cfg;
  cfg.window = w;
  cfg.shards = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = 8;
  Engine engine(mon(), cfg);
  const sim::Trace& trace = exp_.test_traces().front();
  const auto& rec = trace.steps[0];

  // One session streaming without any drain: windows complete from cycle
  // w-1 on, the 8th completed window batch-full-flushes into the undrained
  // queue, and the next record must bounce.
  for (int t = 0; t < w + 7; ++t) {
    ASSERT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted) << t;
  }
  EXPECT_EQ(engine.queue_depth(), 8u);
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kRejectedQueueFull);
  EXPECT_THROW(engine.submit(5, rec), QueueFullError);
  // Rejection is not a silent drop: the window did not advance, so after
  // draining, the same record is admitted and produces the next verdict.
  const auto drained = engine.tick();
  EXPECT_EQ(drained.size(), 8u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted);
  const auto after = engine.tick();
  ASSERT_EQ(after.size(), 1u);
  // Cycles 0..w+6 were accepted; the rejected record left no ghost cycle.
  EXPECT_EQ(after[0].cycle, w + 7);
}

TEST_F(ServeTest, SessionLimitRejectsWithTypedError) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_sessions = 2;
  Engine engine(mon(), cfg);
  const auto& rec = exp_.test_traces().front().steps[0];

  EXPECT_EQ(engine.try_submit(1, rec), SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit(2, rec), SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit(3, rec), SubmitStatus::kRejectedSessionLimit);
  EXPECT_THROW(engine.submit(3, rec), SessionLimitError);
  EXPECT_EQ(engine.sessions_active(), 2u);
  // Closing a session frees its budget slot.
  EXPECT_TRUE(engine.close_session(1));
  EXPECT_FALSE(engine.close_session(1));
  EXPECT_EQ(engine.try_submit(3, rec), SubmitStatus::kAccepted);
}

TEST_F(ServeTest, RejectionLeavesObservableStateUnchangedAndRecovers) {
  // Queue-full path: a rejection must not move queue_depth,
  // sessions_active or the records ledger, and draining must make the
  // very same submit succeed.
  const int w = window();
  EngineConfig cfg;
  cfg.window = w;
  cfg.shards = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = 8;
  Engine engine(mon(), cfg);
  const auto& rec = exp_.test_traces().front().steps[0];
  for (int t = 0; t < w + 7; ++t) {
    ASSERT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted);
  }
  const std::size_t depth_before = engine.queue_depth();
  const std::size_t sessions_before = engine.sessions_active();
  const std::uint64_t records_before = engine.stats().records;
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kRejectedQueueFull);
  EXPECT_EQ(engine.queue_depth(), depth_before);
  EXPECT_EQ(engine.sessions_active(), sessions_before);
  EXPECT_EQ(engine.stats().records, records_before);
  EXPECT_EQ(engine.stats().rejected_queue_full, 1u);
  (void)engine.tick();
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted);

  // Session-limit path: the rejected session must leave no ghost state,
  // and closing an existing session must readmit it.
  EngineConfig limited;
  limited.window = w;
  limited.max_sessions = 1;
  Engine small(mon(), limited);
  ASSERT_EQ(small.try_submit(1, rec), SubmitStatus::kAccepted);
  const std::size_t small_depth = small.queue_depth();
  EXPECT_EQ(small.try_submit(2, rec), SubmitStatus::kRejectedSessionLimit);
  EXPECT_EQ(small.sessions_active(), 1u);
  EXPECT_EQ(small.queue_depth(), small_depth);
  EXPECT_EQ(small.stats().rejected_session_limit, 1u);
  EXPECT_TRUE(small.close_session(1));
  EXPECT_EQ(small.try_submit(2, rec), SubmitStatus::kAccepted);
  EXPECT_EQ(small.sessions_active(), 1u);
}

TEST_F(ServeTest, RejectsBadConfigAndUntrainedMonitor) {
  monitor::MonitorConfig mc;
  monitor::MlMonitor untrained(mc);
  EXPECT_THROW(Engine(untrained, EngineConfig{}), ContractViolation);

  EngineConfig bad;
  bad.queue_capacity = 1;  // cannot hold one full micro-batch
  EXPECT_THROW(Engine(mon(), bad), ContractViolation);
  EngineConfig no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(Engine(mon(), no_shards), ContractViolation);
}

TEST_F(ServeTest, RoutingIsStable) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 8;
  Engine engine(mon(), cfg);
  for (SessionId id : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    const int shard = engine.shard_of(id);
    EXPECT_EQ(shard, engine.shard_of(id));
    EXPECT_EQ(shard, static_cast<int>(stable_hash64(id) % 8));
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
  }
}

// ---- deterministic golden replay ------------------------------------------

/// Serialize one VerdictEvent as a replay line. p_unsafe goes out as raw
/// IEEE-754 bits — byte-identity, not just closeness — and model_version
/// pins which model scored the window.
std::string verdict_line(const VerdictEvent& ev) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(ev.p_unsafe));
  std::memcpy(&bits, &ev.p_unsafe, sizeof(bits));
  char line[112];
  std::snprintf(line, sizeof(line), "%llu,%d,%d,%llu,%016llx\n",
                static_cast<unsigned long long>(ev.session), ev.cycle,
                ev.prediction,
                static_cast<unsigned long long>(ev.model_version),
                static_cast<unsigned long long>(bits));
  return line;
}

std::string replay(core::Experiment& exp, monitor::MlMonitor& mon,
                   monitor::MlMonitor& next) {
  EngineConfig cfg;
  cfg.window = exp.config().dataset.window;
  cfg.shards = 4;
  cfg.max_batch = 16;
  Engine engine(mon, cfg);

  const auto& traces = exp.test_traces();
  const int kSessions = 8;
  std::string out;
  const sim::Trace& longest = traces.front();
  for (int t = 0; t < longest.length(); ++t) {
    // Churn segment: two sessions close mid-stream and reopen on their
    // next submit (window refills from scratch), so the golden pins the
    // close/reopen path too.
    if (t == longest.length() / 2) {
      engine.close_session(1000);      // reopens next cycle
      engine.close_session(1000 + 21); // s == 3
    }
    // Swap segment: hot-swap to the second model a third of the way in
    // (activates inside that tick, after its flush — so that tick's
    // verdicts still carry v1), then roll back to v1 at two thirds. The
    // golden therefore pins the epoch protocol and windows that straddle a
    // model change.
    if (t == longest.length() / 3) engine.stage_model(next, 2);
    if (t == 2 * longest.length() / 3) engine.rollback();
    for (int s = 0; s < kSessions; ++s) {
      const sim::Trace& trace = traces[static_cast<std::size_t>(s) % traces.size()];
      if (t >= trace.length()) continue;
      engine.submit(1000 + static_cast<SessionId>(s) * 7,
                    trace.steps[static_cast<std::size_t>(t)]);
    }
    for (const auto& ev : engine.tick()) out += verdict_line(ev);
  }
  return out;
}

TEST_F(ServeTest, DeterministicGoldenReplay) {
  // Serial flushes (parallelism capped at 1) vs pooled flushes: the
  // verdict stream — including the mid-stream hot-swap and rollback — must
  // be byte-identical, and match the checked-in golden.
  util::set_max_parallelism(1);
  const std::string serial = replay(exp_, mon(), next_mon());
  util::set_max_parallelism(0);
  const std::string pooled = replay(exp_, mon(), next_mon());
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial, pooled)
      << "serial and pooled serve runs diverged — a flush reduction or "
      << "delivery order is schedule-dependent";

  const fs::path golden = fs::path(CPSGUARD_GOLDEN_DIR) / "serve_replay.csv";
  if (std::getenv("CPSGUARD_BLESS") != nullptr) {
    fs::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << serial;
    GTEST_SKIP() << "blessed " << golden;
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << golden;
  const std::string expected{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  EXPECT_EQ(obs::sha256_hex(serial), obs::sha256_hex(expected))
      << "serve replay drifted from " << golden
      << " (re-bless with CPSGUARD_BLESS=1 if intentional)";
  EXPECT_EQ(serial, expected);
}

// ---- live model hot-swap ---------------------------------------------------

/// Drive `sessions` interleaved sessions through `engine` for the length of
/// the longest trace, calling `at_tick(t)` before each cycle's submits, and
/// return the serialized verdict stream.
template <typename AtTick>
std::string drive(core::Experiment& exp, Engine& engine, int sessions,
                  AtTick at_tick) {
  const auto& traces = exp.test_traces();
  std::string out;
  const int steps = traces.front().length();
  for (int t = 0; t < steps; ++t) {
    at_tick(t);
    for (int s = 0; s < sessions; ++s) {
      const sim::Trace& trace =
          traces[static_cast<std::size_t>(s) % traces.size()];
      if (t >= trace.length()) continue;
      engine.submit(2000 + static_cast<SessionId>(s) * 11,
                    trace.steps[static_cast<std::size_t>(t)]);
    }
    for (const auto& ev : engine.tick()) out += verdict_line(ev);
  }
  return out;
}

/// One parsed replay line (see verdict_line).
struct Verdict {
  int prediction = 0;
  unsigned long long version = 0;
  unsigned long long bits = 0;  // p_unsafe
  bool operator==(const Verdict&) const = default;
};
/// Parsed verdict stream keyed by (session, cycle).
using Windows = std::map<std::pair<SessionId, int>, Verdict>;

Windows by_window(const std::string& stream) {
  Windows out;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long session = 0;
    int cycle = 0;
    Verdict v;
    EXPECT_EQ(std::sscanf(line.c_str(), "%llu,%d,%d,%llu,%llx", &session,
                          &cycle, &v.prediction, &v.version, &v.bits),
              5)
        << line;
    if (!out.emplace(std::make_pair(session, cycle), v).second) {
      ADD_FAILURE() << "duplicate verdict for session " << session
                    << " cycle " << cycle;
    }
  }
  return out;
}

/// The lines of `stream` whose cycle is at most `last_cycle`, in stream
/// order: a verdict dropped, duplicated or reordered up to that cycle
/// changes the result.
std::string lines_through(const std::string& stream, int last_cycle) {
  std::string out;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long session = 0;
    int cycle = 0;
    EXPECT_EQ(std::sscanf(line.c_str(), "%llu,%d", &session, &cycle), 2)
        << line;
    if (cycle <= last_cycle) out += line + '\n';
  }
  return out;
}

/// Keys of `w` whose cycle is in (from, to].
std::vector<std::pair<SessionId, int>> keys_in(const Windows& w, int from,
                                               int to) {
  std::vector<std::pair<SessionId, int>> out;
  for (const auto& [key, v] : w) {
    if (key.second > from && key.second <= to) out.push_back(key);
  }
  return out;
}

/// `got` must hold exactly the windows of the from-scratch stream `ref`
/// whose cycle is in (from, to], each scored the same: same prediction,
/// same p_unsafe bits (the version column may differ). Returns how many of
/// those windows straddle `from`, i.e. hold records ingested before the
/// model changed.
int expect_tail_matches(const Windows& got, const Windows& ref, int from,
                        int to, int window) {
  EXPECT_EQ(keys_in(got, from, to), keys_in(ref, from, to))
      << "the tail after cycle " << from << " lost or gained a window";
  int compared = 0;
  int straddling = 0;
  for (const auto& [key, v] : got) {
    if (key.second <= from || key.second > to) continue;
    const auto it = ref.find(key);
    if (it == ref.end()) {
      ADD_FAILURE() << "no reference verdict for session " << key.first
                    << " cycle " << key.second;
      continue;
    }
    EXPECT_EQ(v.prediction, it->second.prediction)
        << "session " << key.first << " cycle " << key.second;
    EXPECT_EQ(v.bits, it->second.bits)
        << "session " << key.first << " cycle " << key.second;
    ++compared;
    if (key.second - (window - 1) <= from) ++straddling;
  }
  EXPECT_GT(compared, 0);
  return straddling;
}

TEST_F(ServeTest, SwapActivatesAtEpochBoundaryWithBoundedLatency) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 16;
  Engine engine(mon(), cfg);
  const sim::Trace& trace = exp_.test_traces().front();

  // Warm up one session so every tick emits a verdict.
  int t = 0;
  for (; t < window(); ++t) {
    engine.submit(7, trace.steps[static_cast<std::size_t>(t)]);
    (void)engine.tick();
  }

  engine.stage_model(next_mon(), 2);
  // Staging is not activation: verdicts keep flowing from v1 until the
  // next epoch boundary.
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(engine.staged_version(), 2u);

  // The activating tick flushes with the old model first, so its verdicts
  // still carry v1 — no micro-batch ever mixes versions.
  engine.submit(7, trace.steps[static_cast<std::size_t>(t++)]);
  const auto boundary = engine.tick();
  ASSERT_EQ(boundary.size(), 1u);
  EXPECT_EQ(boundary[0].model_version, 1u);
  EXPECT_EQ(engine.active_version(), 2u);
  EXPECT_EQ(engine.staged_version(), 0u);

  // From the very next tick on, verdicts carry v2: latency is exactly one
  // flush epoch, never more.
  engine.submit(7, trace.steps[static_cast<std::size_t>(t++)]);
  const auto after = engine.tick();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].model_version, 2u);

  const SwapStats& ss = engine.swap_stats();
  EXPECT_EQ(ss.swaps, 1u);
  EXPECT_EQ(ss.last_activate_tick, ss.last_stage_tick);
  EXPECT_LE(ss.max_latency_ticks, 1);
  EXPECT_EQ(engine.stats().swaps, 2u);  // one activation per shard
}

TEST_F(ServeTest, NoOpSelfSwapLeavesStreamByteIdentical) {
  // Swapping in a clone of the active model at the active version must be
  // invisible: every window is scaled as it stages by the model that scores
  // it, so in-flight windows come out bit for bit the same and the full
  // verdict stream (version column included) matches a swap-free run
  // exactly. This is the standing no-op oracle the loadgen soak leans on.
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 4;
  cfg.max_batch = 8;
  Engine plain(mon(), cfg);
  const std::string baseline = drive(exp_, plain, 6, [](int) {});

  Engine swapping(mon(), cfg);
  const std::string swapped =
      drive(exp_, swapping, 6, [&](int t) {
        if (t > 0 && t % 5 == 0) {
          swapping.stage_model(mon(), swapping.active_version());
        }
      });
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(swapped, baseline)
      << "self-swap perturbed the verdict stream — staging under the "
         "swapped-in clone is not bit-identical to the swap-free run";
  EXPECT_GT(swapping.swap_stats().swaps, 0u);
  EXPECT_LE(swapping.swap_stats().max_latency_ticks, 1);
}

TEST_F(ServeTest, ShadowModeDualScoresWithoutChangingVerdicts) {
  core::Experiment other_exp(other_seed_config());
  monitor::MlMonitor& other = other_exp.monitor(mlp_);
  ASSERT_TRUE(scalers_differ(mon(), other))
      << "precondition: the other-seed candidate must have its own scaler";

  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;
  Engine plain(mon(), cfg);
  const std::string baseline_stream = drive(exp_, plain, 4, [](int) {});
  const Windows baseline = by_window(baseline_stream);
  const int steps = exp_.test_traces().front().length();
  const int stage_at = steps / 3;
  const int promote_at = 2 * steps / 3;

  // The GRU candidate shares the active model's scaler; the other-seed MLP
  // does not, so its shadow rows are staged in another scaler space.
  for (monitor::MlMonitor* candidate : {&next_mon(), &other}) {
    Engine reference(*candidate, cfg);
    const Windows ref = by_window(drive(exp_, reference, 4, [](int) {}));

    // Shadow-stage the candidate a third of the way in and promote it at
    // two thirds. Until promotion the shadow observes and never scores.
    Engine shadowed(mon(), cfg);
    const std::string stream = drive(exp_, shadowed, 4, [&](int t) {
      if (t == stage_at) {
        shadowed.stage_model(*candidate, 2, SwapMode::kShadow);
      }
      if (t == promote_at) {
        EXPECT_EQ(shadowed.active_version(), 1u);
        EXPECT_EQ(shadowed.shadow_version(), 2u);
        // Promotion turns the shadow into a staged epoch swap; this tick
        // activates it.
        EXPECT_TRUE(shadowed.promote_shadow());
        EXPECT_EQ(shadowed.staged_version(), 2u);
        EXPECT_EQ(shadowed.shadow_version(), 0u);
      }
    });
    const Windows got = by_window(stream);
    EXPECT_EQ(shadowed.active_version(), 2u);
    EXPECT_FALSE(shadowed.promote_shadow());  // nothing left to promote

    // The shadow scored every window staged while it was installed, and
    // disagreed exactly where the from-scratch candidate disagrees with
    // the active model.
    std::uint64_t shadow_windows = 0;
    std::uint64_t shadow_disagree = 0;
    for (const auto& [key, v] : baseline) {
      if (key.second < stage_at || key.second >= promote_at) continue;
      ++shadow_windows;
      if (v.prediction != ref.at(key).prediction) ++shadow_disagree;
    }
    EXPECT_GT(shadow_windows, 0u);
    EXPECT_EQ(shadowed.stats().shadow_windows, shadow_windows);
    EXPECT_EQ(shadowed.stats().shadow_disagree, shadow_disagree);

    // Up to the promoting tick the stream is the baseline byte for byte,
    // version column and order included; after it, the candidate's
    // from-scratch stream.
    EXPECT_EQ(lines_through(stream, promote_at),
              lines_through(baseline_stream, promote_at))
        << "the shadow changed, dropped or reordered a verdict";
    EXPECT_GT(expect_tail_matches(got, ref, promote_at, steps, window()), 0);
  }
}

TEST_F(ServeTest, RollbackRestoresThePreviousModelStream) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;
  Engine plain(mon(), cfg);
  const std::string baseline = drive(exp_, plain, 4, [](int) {});

  // Swap to v2 a third of the way in, roll back at two thirds. After the
  // rollback activates, the stream must rejoin the never-swapped baseline
  // exactly — same predictions, same bits, same version column — because
  // every window is staged from raw rows by the model that scores it.
  const int steps = exp_.test_traces().front().length();
  Engine engine(mon(), cfg);
  bool rolled = false;
  const std::string stream = drive(exp_, engine, 4, [&](int t) {
    if (t == steps / 3) engine.stage_model(next_mon(), 2);
    if (t == 2 * steps / 3) rolled = engine.rollback();
  });
  EXPECT_TRUE(rolled);
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(engine.swap_stats().swaps, 2u);  // swap + rollback activation

  // The rollback staged at tick 2*steps/3 activates inside that tick, so
  // every verdict from cycle 2*steps/3 + 1 on must match.
  const Windows base = by_window(baseline);
  int compared = 0;
  for (const auto& [key, v] : by_window(stream)) {
    if (key.second <= 2 * steps / 3) continue;
    ASSERT_TRUE(base.count(key)) << key.first << "," << key.second;
    EXPECT_EQ(v, base.at(key))
        << "post-rollback divergence at " << key.first << "," << key.second;
    ++compared;
  }
  EXPECT_GT(compared, 0);

  // Rollback with nothing to roll back is a clean no-op.
  Engine idle(mon(), cfg);
  EXPECT_FALSE(idle.rollback());
  // Rollback before activation just drops the staged model.
  idle.stage_model(next_mon(), 2);
  EXPECT_FALSE(idle.rollback());
  EXPECT_EQ(idle.staged_version(), 0u);
  (void)idle.tick();
  EXPECT_EQ(idle.active_version(), 1u);
}

TEST_F(ServeTest, SwapModelFromRegistryMatchesFromScratchEngine) {
  core::Experiment other_exp(other_seed_config());
  monitor::MlMonitor& other = other_exp.monitor(mlp_);
  ASSERT_TRUE(scalers_differ(mon(), other))
      << "precondition: the other-seed candidate must have its own scaler";

  const fs::path dir =
      fs::temp_directory_path() / "cpsguard_serve_registry_swap";
  fs::remove_all(dir);
  registry::ModelRegistry reg(dir.string());
  ASSERT_EQ(exp_.publish_monitor(mlp_, reg), 1u);
  ASSERT_EQ(exp_.publish_monitor(gru_, reg), 2u);       // same scaler
  ASSERT_EQ(other_exp.publish_monitor(mlp_, reg), 3u);  // its own scaler

  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;

  // References: each candidate serving from the very first cycle.
  Engine gru_reference(next_mon(), cfg);
  const Windows gru_ref = by_window(drive(exp_, gru_reference, 4, [](int) {}));
  Engine other_reference(other, cfg);
  const Windows other_ref =
      by_window(drive(exp_, other_reference, 4, [](int) {}));

  // Swap the registry's v2 in a third of the way in and v3 at two thirds.
  // The loaded monitor the shards share owns its weights, so GC'ing v1
  // and v2 afterwards is safe.
  const int steps = exp_.test_traces().front().length();
  const int first = steps / 3;
  const int second = 2 * steps / 3;
  Engine engine(mon(), cfg);
  const Windows got = by_window(drive(exp_, engine, 4, [&](int t) {
    if (t == first) engine.swap_model(reg, 2);
    if (t == second) {
      engine.swap_model(reg, 3);
      EXPECT_EQ(reg.gc(1), (std::vector<std::uint64_t>{1, 2}));
    }
  }));
  EXPECT_EQ(engine.active_version(), 3u);
  EXPECT_LE(engine.swap_stats().max_latency_ticks, 1);

  // After each activation the swapped engine must agree with that
  // candidate's from-scratch engine bit for bit — windows that straddle
  // the swap included, since rings hold raw rows and each window is scaled
  // by the model that scores it.
  EXPECT_GT(expect_tail_matches(got, gru_ref, first, second, window()), 0);
  EXPECT_GT(expect_tail_matches(got, other_ref, second, steps, window()), 0);

  // Asking for a version the registry no longer holds is a typed error.
  EXPECT_THROW(engine.swap_model(reg, 1), CpsError);
  fs::remove_all(dir);
}

TEST_F(ServeTest, RefusesMonitorOfAnotherWindowShape) {
  // A window-8 monitor would throw in every flush after its windows were
  // staged, so the engine must refuse it up front — at construction, at
  // stage_model and at swap_model (registry artifacts are outside input) —
  // and leave the engine exactly as if it had never been offered.
  core::ExperimentConfig wide_cfg = tiny_config();
  wide_cfg.dataset.window = window() + 2;
  core::Experiment wide_exp(wide_cfg);
  monitor::MlMonitor& wide = wide_exp.monitor(mlp_);
  ASSERT_EQ(wide.classifier().time_steps(), window() + 2);

  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;
  EXPECT_THROW(Engine(wide, cfg), ModelShapeError);

  const fs::path dir =
      fs::temp_directory_path() / "cpsguard_serve_registry_shape";
  fs::remove_all(dir);
  registry::ModelRegistry reg(dir.string());
  const std::uint64_t wide_version = wide_exp.publish_monitor(mlp_, reg);

  Engine plain(mon(), cfg);
  const std::string baseline = drive(exp_, plain, 4, [](int) {});

  Engine engine(mon(), cfg);
  const int steps = exp_.test_traces().front().length();
  const std::string stream = drive(exp_, engine, 4, [&](int t) {
    if (t == steps / 4) {
      EXPECT_THROW(engine.stage_model(wide, 2), ModelShapeError);
      EXPECT_THROW(engine.stage_model(wide, 2, SwapMode::kShadow),
                   ModelShapeError);
    }
    if (t == steps / 2) {
      EXPECT_THROW(engine.swap_model(reg, wide_version), ModelShapeError);
    }
  });
  EXPECT_EQ(stream, baseline);
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(engine.staged_version(), 0u);
  EXPECT_EQ(engine.shadow_version(), 0u);
  EXPECT_EQ(engine.stats().swaps, 0u);
  EXPECT_EQ(engine.stats().shadow_windows, 0u);
  fs::remove_all(dir);
}

// ---- non-finite input -------------------------------------------------------

TEST_F(ServeTest, NonFiniteWindowsGetNoVerdict) {
  // Every tenth record of each test trace carries a non-finite value —
  // mostly a NaN sensor_bg, some ±inf — and each trace is one session. A
  // window holding one must be refused (nn::kNoVerdict), never verdicted
  // safe; every other window keeps its clean-replay verdict, bit for bit.
  const auto faulted = [](int t) { return t % 10 == 0; };
  const auto corrupt = [](sim::StepRecord& rec, int t) {
    switch (t % 30) {
      case 10: rec.iob = std::numeric_limits<double>::infinity(); break;
      case 20: rec.commanded_rate = -std::numeric_limits<double>::infinity(); break;
      default: rec.sensor_bg = std::numeric_limits<double>::quiet_NaN(); break;
    }
  };
  const core::MonitorVariant lstm{monitor::Arch::kLstm, false};
  for (const core::MonitorVariant& variant : {mlp_, lstm}) {
    SCOPED_TRACE(variant.name());
    const auto replay = [&](bool with_faults) {
      EngineConfig cfg;
      cfg.window = window();
      Engine engine(exp_.monitor(variant), cfg);
      std::map<std::pair<SessionId, int>, VerdictEvent> out;
      const auto& traces = exp_.test_traces();
      for (int t = 0; t < traces.front().length(); ++t) {
        for (std::size_t s = 0; s < traces.size(); ++s) {
          if (t >= traces[s].length()) continue;
          sim::StepRecord rec = traces[s].steps[static_cast<std::size_t>(t)];
          if (with_faults && faulted(t)) corrupt(rec, t);
          engine.submit(s + 1, rec);
        }
        for (const auto& ev : engine.tick()) {
          out.emplace(std::make_pair(ev.session, ev.cycle), ev);
        }
      }
      return out;
    };
    const auto clean = replay(false);
    const auto got = replay(true);
    ASSERT_EQ(got.size(), clean.size());
    int refused = 0;
    for (const auto& [key, ev] : got) {
      bool holds_fault = false;
      for (int t = key.second - window() + 1; t <= key.second; ++t) {
        holds_fault |= faulted(t);
      }
      if (holds_fault) {
        EXPECT_EQ(ev.prediction, nn::kNoVerdict)
            << "session " << key.first << " cycle " << key.second;
        ++refused;
      } else {
        const VerdictEvent& ref = clean.at(key);
        EXPECT_EQ(ev.prediction, ref.prediction)
            << "session " << key.first << " cycle " << key.second;
        EXPECT_EQ(ev.p_unsafe, ref.p_unsafe);
      }
    }
    EXPECT_GT(refused, 0);
    EXPECT_LT(refused, static_cast<int>(got.size()));
  }
}

// ---- concurrent ingest -----------------------------------------------------

TEST_F(ServeTest, ConcurrentIngestIsRaceFreeAndLossless) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 4;
  cfg.max_batch = 16;
  cfg.queue_capacity = 4096;
  Engine engine(mon(), cfg);

  const auto& traces = exp_.test_traces();
  const int kThreads = 4;
  const int kSessionsPerThread = 8;
  const int kRecords = 40;

  std::vector<VerdictEvent> ticker_events;
  std::atomic<bool> done{false};
  std::thread ticker([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto evs = engine.tick();
      ticker_events.insert(ticker_events.end(), evs.begin(), evs.end());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  std::atomic<int> rejected{0};
  for (int th = 0; th < kThreads; ++th) {
    producers.emplace_back([&, th] {
      for (int t = 0; t < kRecords; ++t) {
        for (int s = 0; s < kSessionsPerThread; ++s) {
          const auto id = static_cast<SessionId>(th * 1000 + s);
          const sim::Trace& trace =
              traces[static_cast<std::size_t>(th + s) % traces.size()];
          const auto& rec =
              trace.steps[static_cast<std::size_t>(t) %
                          trace.steps.size()];
          if (engine.try_submit(id, rec) != SubmitStatus::kAccepted) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_relaxed);
  ticker.join();

  const auto final_events = engine.tick();
  EXPECT_EQ(rejected.load(), 0);
  const std::size_t expected_windows =
      static_cast<std::size_t>(kThreads) * kSessionsPerThread *
      static_cast<std::size_t>(kRecords - window() + 1);
  EXPECT_EQ(ticker_events.size() + final_events.size(), expected_windows);
  EXPECT_EQ(engine.sessions_active(),
            static_cast<std::size_t>(kThreads) * kSessionsPerThread);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

}  // namespace
}  // namespace cpsguard::serve
