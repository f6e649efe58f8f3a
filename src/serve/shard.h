// One shard of the streaming engine: owns the sessions routed to it, their
// ring-buffered feature windows and a preallocated cross-session
// micro-batch. It scores with a shared, immutable monitor: the engine makes
// one copy per model version and every shard holds a pointer to it, so
// concurrent shard flushes read the same weights (inference is const).
//
// Each session keeps one ring of *raw* feature rows. When a window fills,
// it is copied into its micro-batch row and scaled there, one time step at
// a time, by the StandardScaler of the model that will score that row —
// the active monitor for the verdict batch, the shadow monitor for the
// shadow batch. transform_row is bit-identical to the batch transform, and
// every model transition flushes first, so each row is scaled by exactly
// the model that scores it and verdicts match the raw-window predict path
// bit for bit, across hot swaps included.
//
// Locking: one mutex per shard. submit/flush/drain from different threads
// are safe; two submits for sessions on the same shard serialize, which is
// the backpressure boundary the sharding exists to spread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "monitor/ml_monitor.h"
#include "nn/tensor3.h"
#include "serve/ring_window.h"
#include "serve/types.h"
#include "sim/trace.h"

namespace cpsguard::serve {

/// Point-in-time shard occupancy plus lifetime counters (taken under the
/// shard lock). Occupancy fields describe the current instant; the counter
/// fields are monotonic over the shard's lifetime — per-engine, unlike the
/// process-wide obs registry, so tests and ops snapshots can assert on them
/// without diffing global state.
struct ShardStats {
  std::size_t sessions = 0;
  std::size_t pending_windows = 0;    // accumulated, not yet flushed
  std::size_t undrained_verdicts = 0; // flushed, not yet drained

  std::uint64_t records = 0;          // accepted submits
  std::uint64_t windows_flushed = 0;  // verdicts produced
  std::uint64_t flushes = 0;          // micro-batch inference calls
  std::uint64_t closed = 0;           // explicit close() calls that hit
  std::uint64_t evicted = 0;          // idle-TTL evictions
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_session_limit = 0;
  std::uint64_t swaps = 0;            // model activations (hot swaps)
  std::uint64_t shadow_windows = 0;   // windows dual-scored by a shadow model
  std::uint64_t shadow_disagree = 0;  // shadow vs active prediction mismatches
};

class SessionShard {
 public:
  /// Scores with `mon` (trained, shared with the other shards).
  /// `session_budget` is the engine-wide open-session budget this shard
  /// draws on when it admits a new session (decremented back by close()).
  SessionShard(std::shared_ptr<const monitor::MlMonitor> mon,
               const EngineConfig& config,
               std::atomic<std::int64_t>& session_budget);

  /// Ingest one record. On admission the record is committed into its
  /// session's ring; if that completes a window, the window is staged into
  /// the micro-batch and a batch-full shard flushes inline. On rejection
  /// nothing is mutated — the session window does not advance. `now_tick`
  /// is the engine's current tick index: it stamps the staged window's
  /// VerdictEvent and refreshes the session's idle-TTL clock.
  [[nodiscard]] SubmitStatus submit(SessionId id, const sim::StepRecord& rec,
                                    std::int64_t now_tick);

  /// Flush the partial micro-batch (the engine's cycle tick).
  void flush();

  /// Move every completed verdict (ingest order) into `out`.
  void drain(std::vector<VerdictEvent>& out);

  /// Forget a session's window state. Windows already staged for this
  /// session still produce their verdicts. Returns false if unknown.
  bool close(SessionId id);

  /// Evict every session whose last submit is more than `ttl` ticks old
  /// (last_seen < now_tick - ttl), in ascending session-id order, appending
  /// the evicted ids to `evicted`. Semantically identical to close() per
  /// session (budget returns, staged windows still verdict).
  void evict_idle(std::int64_t now_tick, std::int64_t ttl,
                  std::vector<SessionId>& evicted);

  /// Stage a replacement monitor (shared with the other shards). kEpoch:
  /// held until activate_staged() — the engine's
  /// next tick boundary. kShadow: installed immediately as the shadow
  /// scorer; the shard flushes its partial batch first so shadow rows stay
  /// aligned with the active batch from the next window on. Restaging
  /// replaces any prior staged/shadow monitor of the same mode.
  void stage(std::shared_ptr<const monitor::MlMonitor> mon,
             std::uint64_t version, SwapMode mode);

  /// Epoch-boundary activation of the staged monitor: flush any straggler
  /// windows under the outgoing model, then swap. Rings hold raw rows, so
  /// partial windows continue under the new model exactly as if they had
  /// been ingested under it from the start. Returns false (and does
  /// nothing) when no monitor is staged.
  bool activate_staged();

  /// Move the shadow monitor into the staged slot (it activates at the
  /// next activate_staged()). Returns false when no shadow is installed.
  bool promote_shadow();

  /// Discard staged and shadow monitors. If a swap already activated, the
  /// previous monitor is re-staged (activating at the next epoch boundary)
  /// and true is returned; false means nothing was active to roll back to.
  bool rollback();

  /// Version of the monitor currently scoring verdicts.
  [[nodiscard]] std::uint64_t active_version() const;

  [[nodiscard]] ShardStats stats() const;

 private:
  void flush_locked();

  const EngineConfig config_;
  std::atomic<std::int64_t>& session_budget_;
  std::shared_ptr<const monitor::MlMonitor> monitor_;
  std::uint64_t version_;

  // Hot-swap slots. `staged_` waits for the epoch boundary, `shadow_`
  // dual-scores without verdicting, `prev_` is the rollback target after an
  // activation. All transitions happen under the shard lock.
  std::shared_ptr<const monitor::MlMonitor> staged_;
  std::uint64_t staged_version_ = 0;
  std::shared_ptr<const monitor::MlMonitor> shadow_;
  std::uint64_t shadow_version_ = 0;
  std::shared_ptr<const monitor::MlMonitor> prev_;
  std::uint64_t prev_version_ = 0;

  struct Session {
    explicit Session(const EngineConfig& cfg);
    RingWindow ring;             // raw feature rows
    int cycles = 0;              // records ingested for this session
    std::int64_t last_seen = 0;  // engine tick index of the last submit
  };

  mutable std::mutex mutex_;
  std::unordered_map<SessionId, Session> sessions_;
  nn::Tensor3 batch_;                  // (max_batch, window, features)
  nn::Tensor3 shadow_batch_;           // allocated on first shadow stage
  std::vector<VerdictEvent> pending_;  // batch_ rows [0, pending_.size())
  std::vector<VerdictEvent> done_;
  ShardStats counters_;  // lifetime counters (occupancy filled by stats())
};

}  // namespace cpsguard::serve
