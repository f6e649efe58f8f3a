// Common vocabulary of the streaming detection service: session identity,
// the verdict events the engine emits, the admission-control error taxonomy
// and the engine configuration.
//
// Admission control is reject-with-typed-error, never silent drop: a submit
// the engine cannot absorb leaves every session window untouched and either
// returns a non-accepted SubmitStatus (Engine::try_submit) or throws the
// matching AdmissionError subclass (Engine::submit). The caller owns the
// retry decision; the engine never discards an accepted record.
#pragma once

#include <cstdint>

#include "util/error.h"

namespace cpsguard::serve {

/// Opaque per-patient stream identity (e.g. a device or patient id).
using SessionId = std::uint64_t;

/// Base class of every admission-control rejection.
class AdmissionError : public CpsError {
 public:
  using CpsError::CpsError;
};

/// The target shard's bounded queue (pending windows + undrained verdicts)
/// is full — the consumer is not keeping up. Retry after tick()/drain().
class QueueFullError : public AdmissionError {
 public:
  using AdmissionError::AdmissionError;
};

/// Creating the record's session would exceed EngineConfig::max_sessions.
class SessionLimitError : public AdmissionError {
 public:
  using AdmissionError::AdmissionError;
};

/// A monitor whose classifier window shape differs from the engine's
/// (EngineConfig::window × monitor::Features::kNumFeatures) was offered to
/// Engine's constructor, stage_model or swap_model. Nothing was changed.
class ModelShapeError : public CpsError {
 public:
  using CpsError::CpsError;
};

/// How a staged model replaces the active one (Engine::stage_model).
///
/// kEpoch: the model activates at the next tick() epoch boundary — after
/// every shard's flush, before drain — so no micro-batch ever mixes two
/// model versions and activation latency is at most one flush epoch.
///
/// kShadow: the model dual-scores every window the active model scores,
/// emitting `serve.shadow` NDJSON events and agree/disagree counters, but
/// never contributes a verdict. Engine::promote_shadow() turns it into a
/// kEpoch stage once the operator trusts it.
enum class SwapMode {
  kEpoch,
  kShadow,
};

[[nodiscard]] constexpr const char* to_string(SwapMode m) {
  switch (m) {
    case SwapMode::kEpoch: return "epoch";
    case SwapMode::kShadow: return "shadow";
  }
  return "unknown";
}

/// Non-throwing admission result (Engine::try_submit).
enum class SubmitStatus {
  kAccepted,
  kRejectedQueueFull,
  kRejectedSessionLimit,
};

[[nodiscard]] constexpr const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kRejectedQueueFull: return "rejected_queue_full";
    case SubmitStatus::kRejectedSessionLimit: return "rejected_session_limit";
  }
  return "unknown";
}

/// One completed window verdict. Exactly one event is emitted per ready
/// window (a session's cycle `window-1` and every cycle after it), delivered
/// by tick()/drain() in (shard index, ingest order) — a total order that is
/// identical for serial and pooled flushes.
struct VerdictEvent {
  SessionId session = 0;
  /// 0-based per-session cycle index of the window's last record; the first
  /// event of a session carries cycle == window - 1.
  int cycle = 0;
  /// nn::decide's verdict: 1 = unsafe control action, 0 = safe, and
  /// nn::kNoVerdict (-1) when the staged window or its probabilities hold a
  /// NaN or ±inf. A refused window still emits its event, never as 0, and
  /// keeps the p_unsafe its model scored (which may itself be NaN).
  int prediction = 0;
  double p_unsafe = 0.0;
  /// Engine tick index (completed tick() calls) at the moment the window's
  /// last record was ingested. `drain tick - ingest_tick` is the verdict's
  /// latency in ticks — the unit bench_loadgen reports percentiles over.
  std::int64_t ingest_tick = 0;
  /// Version of the model that scored this window (the shard's active model
  /// at flush time). Every verdict of one micro-batch carries the same
  /// value: hot swaps activate only at flush-epoch boundaries.
  std::uint64_t model_version = 0;
  /// Per-shard flush sequence number of the micro-batch that scored this
  /// window. Together with the shard index (derivable from the session id)
  /// it identifies the micro-batch, letting consumers assert batch purity:
  /// one (shard, flush_seq) group never mixes model versions.
  std::uint64_t flush_seq = 0;
};

struct EngineConfig {
  /// Number of SessionShards. Fixed at construction; routing is
  /// stable_hash64(session) % shards, so a given session always lands on
  /// the same shard.
  int shards = 4;
  /// Sliding-window length in cycles — must equal the window the monitor
  /// was trained with (same contract as core::OnlineMonitor).
  int window = 6;
  /// A shard flushes as soon as this many ready windows have accumulated
  /// (cross-session micro-batch); tick() flushes partial batches.
  int max_batch = 256;
  /// Bounded per-shard queue: pending (unflushed) windows plus undrained
  /// verdicts. A submit that would complete a window beyond this bound is
  /// rejected with QueueFullError.
  int queue_capacity = 4096;
  /// Engine-wide cap on concurrently open sessions.
  int max_sessions = 1 << 20;
  /// Idle-session TTL in engine ticks (0 disables eviction). A session that
  /// goes more than this many tick() calls without submitting a record is
  /// evicted during the next tick(): its window state is dropped and its
  /// session-budget slot returns, exactly as if close_session() had been
  /// called at that point — staged windows still verdict, and a later
  /// submit readmits the id with a fresh window. Eviction order is
  /// deterministic: ascending session id within ascending shard index.
  std::int64_t idle_ttl_ticks = 0;
  /// Version stamped on verdicts scored by the construction-time monitor
  /// (before any hot swap). Registry deployments pass the published version
  /// so the verdict stream lines up with the registry's lineage.
  std::uint64_t initial_model_version = 1;
};

}  // namespace cpsguard::serve
