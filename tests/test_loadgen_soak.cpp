// Soak tier (ctest -L soak): long churned workloads through serve::Engine
// with every loadgen invariant armed (including micro-batch version
// purity), plus the byte-identity oracles at scale — serial vs pooled,
// straight vs TTL-evicted-and-reconnected, and swap-free vs periodic
// self-swap.
//
// The default profile is sized for CI (a few seconds, >= 2000 distinct
// sessions with churn). Scale it up for a real soak with env knobs:
//
//   CPSGUARD_SOAK_SESSIONS=512 CPSGUARD_SOAK_TICKS=2000 CPSGUARD_SOAK_SEED=7
//     ctest --test-dir build -L soak
//
// Malformed knob values warn and fall back to the defaults — a soak run
// never silently shrinks.
#include "loadgen/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "core/experiment.h"
#include "loadgen/invariants.h"
#include "loadgen/traffic.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace cpsguard::loadgen {
namespace {

std::int64_t env_int(const char* name, std::int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  const auto parsed = util::try_parse_int(v);
  if (!parsed || *parsed <= 0) {
    util::log_warn("soak: ignoring invalid ", name, "=\"", v, "\", using ",
                   def);
    return def;
  }
  return *parsed;
}

struct SoakProfile {
  std::int64_t sessions;
  std::int64_t ticks;
  std::uint64_t seed;
  /// True when env knobs kept (or exceeded) the default scale — the
  /// >= 2000 distinct-session assertion only applies then.
  bool at_default_scale;
};

SoakProfile soak_profile() {
  constexpr std::int64_t kDefaultSessions = 128;
  constexpr std::int64_t kDefaultTicks = 300;
  SoakProfile p{};
  p.sessions = env_int("CPSGUARD_SOAK_SESSIONS", kDefaultSessions);
  p.ticks = env_int("CPSGUARD_SOAK_TICKS", kDefaultTicks);
  p.seed = static_cast<std::uint64_t>(env_int("CPSGUARD_SOAK_SEED", 42));
  p.at_default_scale =
      p.sessions >= kDefaultSessions && p.ticks >= kDefaultTicks;
  return p;
}

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

class SoakTest : public ::testing::Test {
 protected:
  SoakTest() : exp_(tiny_config()) {}

  monitor::MlMonitor& mon() { return exp_.monitor(mlp_); }
  int window() const { return exp_.config().dataset.window; }

  WorkloadConfig base_config(const SoakProfile& profile) {
    WorkloadConfig cfg;
    cfg.traffic.base_sessions = static_cast<int>(profile.sessions);
    cfg.traffic.min_session_len = 4;
    cfg.traffic.max_session_len = 48;
    cfg.traffic.tail_alpha = 1.3;
    cfg.traffic.abandon_prob = 0.2;
    cfg.traffic.reconnect_prob = 0.25;
    cfg.engine.window = window();
    cfg.engine.shards = 8;
    cfg.engine.max_batch = 16;
    cfg.engine.queue_capacity = 4096;
    cfg.engine.idle_ttl_ticks = 8;
    cfg.ticks = profile.ticks;
    cfg.seed = profile.seed;
    return cfg;
  }

  core::Experiment exp_;
  const core::MonitorVariant mlp_{monitor::Arch::kMlp, false};
  const core::MonitorVariant gru_{monitor::Arch::kGru, false};
};

TEST_F(SoakTest, SteadyChurnSerialVsPooledByteIdentity) {
  const SoakProfile profile = soak_profile();
  WorkloadConfig cfg = base_config(profile);
  cfg.traffic.model = TrafficModel::kSteady;
  Workload wl(mon(), exp_.test_traces(), cfg);

  util::set_max_parallelism(1);
  const WorkloadReport serial = wl.run();  // invariants armed: throws on breach
  util::set_max_parallelism(0);
  const WorkloadReport pooled = wl.run();

  EXPECT_EQ(serial.stream_sha256, pooled.stream_sha256)
      << "serial and pooled soak streams diverged";
  EXPECT_EQ(serial.verdicts, pooled.verdicts);
  EXPECT_GT(serial.verdicts, 0u);
  EXPECT_GT(serial.rejoins, 0u) << "no mid-stream reopens exercised";
  EXPECT_GT(serial.evictions, 0u) << "no TTL evictions exercised";
  EXPECT_GT(serial.closes, 0u);
  if (profile.at_default_scale) {
    EXPECT_GE(serial.distinct_sessions, 2000u)
        << "soak churn shrank below the acceptance floor";
  }
  // Engine-side ledger agrees with the harness-side one.
  EXPECT_EQ(serial.final_stats.records, serial.accepted);
  EXPECT_EQ(serial.final_stats.windows_flushed, serial.verdicts);
}

TEST_F(SoakTest, FlashCrowdAdmissionControlUnderOverload) {
  const SoakProfile profile = soak_profile();
  WorkloadConfig cfg = base_config(profile);
  cfg.traffic.model = TrafficModel::kFlashCrowd;
  cfg.traffic.base_sessions = 32;
  cfg.traffic.peak = 4.0;  // 128 sessions storm in...
  cfg.traffic.flash_at = 30;
  cfg.traffic.flash_len = 40;
  cfg.engine.max_sessions = 64;  // ...into a 64-session budget
  cfg.engine.shards = 2;
  cfg.engine.max_batch = 8;
  cfg.engine.queue_capacity = 16;  // and a queue sized to overflow
  cfg.engine.idle_ttl_ticks = 8;
  cfg.ticks = std::min<std::int64_t>(profile.ticks, 150);
  Workload wl(mon(), exp_.test_traces(), cfg);

  util::set_max_parallelism(1);
  const WorkloadReport report = wl.run();
  util::set_max_parallelism(0);

  // The flash crowd must actually trip both admission-control paths, and
  // every invariant (conservation, order, queue bound, drain) must hold
  // right through the overload — wl.run() throws otherwise.
  EXPECT_GT(report.rejected_session_limit, 0u);
  EXPECT_GT(report.rejected_queue_full, 0u);
  EXPECT_GT(report.verdicts, 0u);
  EXPECT_LE(report.max_queue_depth,
            static_cast<std::size_t>(cfg.engine.shards) *
                static_cast<std::size_t>(cfg.engine.queue_capacity));
  EXPECT_EQ(report.final_stats.rejected_queue_full,
            report.rejected_queue_full);
  EXPECT_EQ(report.final_stats.rejected_session_limit,
            report.rejected_session_limit);
}

TEST_F(SoakTest, PeriodicHotSwapChurnKeepsByteIdentityAndBatchPurity) {
  const SoakProfile profile = soak_profile();

  // No-op oracle: periodic self-swaps (empty swap pool re-stages the
  // active model at the active version) must leave the stream
  // byte-identical to a swap-free run — windows are scaled as they stage
  // by the model that scores them, so every in-flight window comes out bit
  // for bit the same across activations, under full churn (abandons,
  // reconnects, TTL evictions).
  WorkloadConfig plain_cfg = base_config(profile);
  plain_cfg.traffic.model = TrafficModel::kSteady;
  Workload plain(mon(), exp_.test_traces(), plain_cfg);
  util::set_max_parallelism(1);
  const WorkloadReport baseline = plain.run();

  WorkloadConfig self_cfg = plain_cfg;
  self_cfg.swap_every = 24;
  Workload self_swap(mon(), exp_.test_traces(), self_cfg);
  const WorkloadReport noop = self_swap.run();
  EXPECT_GT(noop.swaps, 0u);
  EXPECT_EQ(noop.stream_sha256, baseline.stream_sha256)
      << "periodic self-swaps perturbed the soak stream — staging under "
         "the swapped-in clone is not bit-identical to the swap-free run";

  // Real swaps: round-robin through a pool of differently-architected
  // models, version bumping on every activation. Every invariant stays
  // armed — including batch purity: the checker throws if any micro-batch
  // (shard, flush) mixes model versions — and serial vs pooled must still
  // agree byte for byte, version column included.
  WorkloadConfig swap_cfg = plain_cfg;
  swap_cfg.swap_every = 24;
  Workload wl(mon(), exp_.test_traces(), swap_cfg);
  wl.set_swap_pool({&exp_.monitor(gru_), &mon()});
  const WorkloadReport serial = wl.run();
  util::set_max_parallelism(0);
  const WorkloadReport pooled = wl.run();

  EXPECT_EQ(serial.stream_sha256, pooled.stream_sha256)
      << "serial and pooled soak streams diverged across hot-swaps";
  EXPECT_EQ(serial.verdicts, pooled.verdicts);
  EXPECT_GT(serial.swaps, 0u);
  EXPECT_EQ(serial.swaps, pooled.swaps);
  // Every staged swap activated, once per shard.
  EXPECT_EQ(serial.final_stats.swaps,
            serial.swaps * static_cast<std::uint64_t>(swap_cfg.engine.shards));
  EXPECT_GT(serial.verdicts, 0u);
  EXPECT_GT(serial.rejoins, 0u);
  if (profile.at_default_scale) {
    EXPECT_GE(serial.distinct_sessions, 2000u)
        << "swap soak churn shrank below the acceptance floor";
  }
}

TEST_F(SoakTest, DiurnalTtlEvictionMatchesExplicitCloses) {
  const SoakProfile profile = soak_profile();
  WorkloadConfig with_ttl = base_config(profile);
  with_ttl.traffic.model = TrafficModel::kDiurnal;
  with_ttl.traffic.peak = 1.5;
  with_ttl.traffic.period = 50;
  with_ttl.traffic.abandon_prob = 0.35;
  Workload wl_a(mon(), exp_.test_traces(), with_ttl);

  util::set_max_parallelism(1);
  const WorkloadReport a = wl_a.run();
  ASSERT_GT(a.eviction_log.size(), 0u) << "oracle needs evictions to replay";

  WorkloadConfig no_ttl = with_ttl;
  no_ttl.engine.idle_ttl_ticks = 0;
  Workload wl_b(mon(), exp_.test_traces(), no_ttl);
  const WorkloadReport b = wl_b.run(a.eviction_log);
  util::set_max_parallelism(0);

  EXPECT_EQ(b.evictions, 0u);
  EXPECT_EQ(a.stream_sha256, b.stream_sha256)
      << "a TTL-evicted-and-reconnected run is not byte-identical to the "
      << "same run with explicit closes at the eviction ticks";
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_GT(a.rejoins, 0u);
}

}  // namespace
}  // namespace cpsguard::loadgen
