// Streaming detection engine: multiplexes many per-patient sessions over
// one trained monitor, amortizing NN cost through cross-session
// micro-batched inference.
//
//   serve::Engine engine(mon, {.shards = 8, .window = 6});
//   engine.submit(patient_id, record);        // every control cycle
//   for (const auto& v : engine.tick()) ...   // flush + collect verdicts
//
// Records route to shards by stable_hash64(session) % shards, so a session
// always lands on the same shard and its windows stay in order. Each shard
// accumulates ready windows (across all its sessions) into a preallocated
// micro-batch and flushes them through one predict_proba_scaled call — on
// batch-full inline, and on tick() for the partial remainder. Every shard
// scores with the same immutable copy of the model version.
//
// Determinism contract: verdicts depend only on the ingest sequence. For a
// fixed interleaving of submit/tick calls the emitted VerdictEvent stream
// is byte-identical whether tick() fans shards across the shared pool or
// (util::set_max_parallelism(1)) flushes serially: shards are
// independent, batched inference is bit-identical to per-window inference,
// and delivery order is always (shard index, ingest order).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "monitor/ml_monitor.h"
#include "serve/shard.h"
#include "serve/types.h"
#include "sim/trace.h"

namespace cpsguard::registry {
class ModelRegistry;
}

namespace cpsguard::serve {

/// Whole-engine snapshot: the per-shard ShardStats plus engine-level
/// aggregates. Totals are sums over `shards`; `ticks` counts completed
/// tick() calls. Taken shard-by-shard under each shard's lock — consistent
/// per shard, approximate across shards under concurrent ingest (exact when
/// the caller is the only thread touching the engine, the loadgen case).
struct EngineStats {
  std::int64_t ticks = 0;
  std::size_t sessions = 0;
  std::size_t queue_depth = 0;  // pending windows + undrained verdicts
  std::uint64_t records = 0;
  std::uint64_t windows_flushed = 0;
  std::uint64_t flushes = 0;
  std::uint64_t closed = 0;
  std::uint64_t evicted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_session_limit = 0;
  std::uint64_t swaps = 0;
  std::uint64_t shadow_windows = 0;
  std::uint64_t shadow_disagree = 0;
  std::vector<ShardStats> shards;
};

/// Hot-swap bookkeeping (control-thread view; see Engine::swap_stats).
struct SwapStats {
  std::uint64_t swaps = 0;                // completed activations
  std::int64_t last_stage_tick = -1;      // ticks() when last staged
  std::int64_t last_activate_tick = -1;   // tick index that activated it
  /// Worst observed stage→activate latency in ticks. The epoch protocol
  /// guarantees this never exceeds 1: a model staged between ticks is
  /// active before the next tick's verdicts drain.
  std::int64_t max_latency_ticks = 0;
};

class Engine {
 public:
  /// `mon` must be trained; the engine copies it once and every shard
  /// shares that copy, so the engine does not retain a reference.
  /// `config.window` must equal the window the monitor was trained with
  /// (ModelShapeError otherwise).
  Engine(const monitor::MlMonitor& mon, EngineConfig config);

  /// Ingest one record; never throws on rejection. Sessions are created on
  /// first submit.
  [[nodiscard]] SubmitStatus try_submit(SessionId id,
                                        const sim::StepRecord& rec);

  /// Ingest one record; throws the matching AdmissionError on rejection.
  void submit(SessionId id, const sim::StepRecord& rec);

  /// Cycle tick: flush every shard's partial micro-batch (in parallel
  /// across shards unless the parallelism cap says otherwise), then drain — returns every verdict completed since the
  /// last drain, in (shard, ingest) order.
  std::vector<VerdictEvent> tick();

  /// Collect completed verdicts without forcing a flush (e.g. after
  /// batch-full flushes between ticks).
  std::vector<VerdictEvent> drain();

  /// Drop a session's window state; staged windows still verdict.
  bool close_session(SessionId id);

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] std::size_t sessions_active() const;
  /// Pending windows + undrained verdicts summed over shards.
  [[nodiscard]] std::size_t queue_depth() const;
  /// Shard a session routes to (exposed for tests and ops tooling).
  [[nodiscard]] int shard_of(SessionId id) const;

  /// Completed tick() calls. Records submitted now carry this value as
  /// their windows' VerdictEvent::ingest_tick.
  [[nodiscard]] std::int64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// Sessions the most recent tick() TTL-evicted, in deterministic
  /// (shard index, session id) order; empty when idle_ttl_ticks is 0 or
  /// nothing expired. Only the ticking thread may call this — the log is
  /// rewritten by every tick().
  [[nodiscard]] const std::vector<SessionId>& evicted_last_tick() const {
    return evicted_last_tick_;
  }

  /// Ops/assertion snapshot of the whole engine (see EngineStats).
  [[nodiscard]] EngineStats stats() const;

  // ---- Live model hot-swap ------------------------------------------------
  //
  // Staging, promotion, rollback and the version accessors are control-plane
  // operations: they must come from the same thread that drives tick()
  // (concurrent submits are fine — shard-level transitions take the shard
  // locks). A kEpoch stage activates inside the next tick(), after the flush
  // pass and before drain, so activation latency is at most one flush epoch
  // and no micro-batch ever mixes model versions. Verdicts carry the version
  // that scored them (VerdictEvent::model_version).

  /// Stage a copy of `mon` (one, shared by every shard) as version
  /// `version`. kEpoch replaces the active model at the next tick; kShadow
  /// dual-scores immediately without affecting verdicts. Restaging before
  /// activation replaces the previously staged model. A monitor of another
  /// window shape throws ModelShapeError and leaves the engine untouched.
  void stage_model(const monitor::MlMonitor& mon, std::uint64_t version,
                   SwapMode mode = SwapMode::kEpoch);

  /// Load `version` from `reg` (verify-on-open) and stage it. The loaded
  /// monitor owns its weights and the shards share it without a copy; the
  /// registry file can be rewritten or GC'd afterwards.
  void swap_model(const registry::ModelRegistry& reg, std::uint64_t version,
                  SwapMode mode = SwapMode::kEpoch);

  /// Turn the shadow model into a staged kEpoch swap. Returns false when
  /// no shadow model is installed.
  bool promote_shadow();

  /// Drop staged and shadow models; if a swap already activated, re-stage
  /// the previous model (it activates at the next tick). Returns true when
  /// a previous model was re-staged.
  bool rollback();

  /// Version currently scoring verdicts / staged for the next tick /
  /// shadow-scoring (0 = none).
  [[nodiscard]] std::uint64_t active_version() const { return active_version_; }
  [[nodiscard]] std::uint64_t staged_version() const { return staged_version_; }
  [[nodiscard]] std::uint64_t shadow_version() const { return shadow_version_; }

  [[nodiscard]] const SwapStats& swap_stats() const { return swap_stats_; }

 private:
  /// Shape-check `model`, then hand it to every shard as `version`.
  void stage(const std::shared_ptr<const monitor::MlMonitor>& model,
             std::uint64_t version, SwapMode mode);

  EngineConfig config_;
  std::atomic<std::int64_t> session_budget_;
  std::atomic<std::int64_t> ticks_{0};
  std::vector<std::unique_ptr<SessionShard>> shards_;
  std::vector<SessionId> evicted_last_tick_;

  // Control-thread swap state (shards hold the authoritative monitors).
  std::uint64_t active_version_;
  std::uint64_t staged_version_ = 0;
  std::uint64_t shadow_version_ = 0;
  std::uint64_t prev_version_ = 0;  // rollback target after an activation
  std::int64_t stage_tick_ = -1;
  SwapStats swap_stats_;
};

}  // namespace cpsguard::serve
