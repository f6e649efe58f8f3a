#include "serve/shard.h"

#include <algorithm>
#include <utility>

#include "monitor/features.h"
#include "nn/matrix.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/contracts.h"

namespace cpsguard::serve {

namespace {

// Serving telemetry, resolved once (Registry lookups take a mutex and do
// not belong on the per-record path).
struct ServeMetrics {
  obs::Counter& records;
  obs::Counter& windows_ready;
  obs::Counter& rejected_queue_full;
  obs::Counter& rejected_session_limit;
  obs::Counter& flushes;
  obs::Counter& windows_flushed;
  obs::Counter& evicted;
  obs::Counter& swaps;
  obs::Counter& shadow_windows;
  obs::Counter& shadow_disagree;
  obs::Histogram& batch_occupancy;
  obs::Histogram& flush_seconds;

  static ServeMetrics& get() {
    static ServeMetrics metrics{
        obs::Registry::instance().counter("serve.records"),
        obs::Registry::instance().counter("serve.windows_ready"),
        obs::Registry::instance().counter("serve.rejected.queue_full"),
        obs::Registry::instance().counter("serve.rejected.session_limit"),
        obs::Registry::instance().counter("serve.flushes"),
        obs::Registry::instance().counter("serve.windows_flushed"),
        obs::Registry::instance().counter("serve.evicted"),
        obs::Registry::instance().counter("serve.swaps"),
        obs::Registry::instance().counter("serve.shadow.windows"),
        obs::Registry::instance().counter("serve.shadow.disagree"),
        obs::Registry::instance().histogram("serve.batch_occupancy"),
        obs::Registry::instance().histogram("span.serve.flush"),
    };
    return metrics;
  }
};

// Copy `ring`'s window into batch row `row` and scale it there, one time
// step at a time, with the scaler of `mon` — the model that will score the
// row.
void stage_row(const RingWindow& ring, const monitor::MlMonitor& mon,
               nn::Tensor3& batch, int row) {
  ring.copy_ordered(batch.window(row));
  for (int t = 0; t < batch.time(); ++t) {
    mon.scaler().transform_row(batch.row(row, t));
  }
}

// `mon`'s class probabilities for batch rows [0, n). A partial (tick) flush
// copies its rows into one exact-size tensor, amortized over up to
// max_batch windows — the per-record path stays allocation-free.
nn::Matrix score(const monitor::MlMonitor& mon, const nn::Tensor3& batch,
                 int n) {
  if (n == batch.batch()) return mon.predict_proba_scaled(batch);
  nn::Tensor3 head(n, batch.time(), batch.features());
  std::copy(batch.data().begin(), batch.data().begin() + head.size(),
            head.data().begin());
  return mon.predict_proba_scaled(head);
}

}  // namespace

SessionShard::Session::Session(const EngineConfig& cfg)
    : ring(cfg.window, monitor::Features::kNumFeatures) {}

SessionShard::SessionShard(std::shared_ptr<const monitor::MlMonitor> mon,
                           const EngineConfig& config,
                           std::atomic<std::int64_t>& session_budget)
    : config_(config),
      session_budget_(session_budget),
      monitor_(std::move(mon)),
      version_(config.initial_model_version),
      batch_(config.max_batch, config.window,
             monitor::Features::kNumFeatures) {
  pending_.reserve(static_cast<std::size_t>(config.max_batch));
  ServeMetrics::get();  // resolve before any worker thread touches us
}

SubmitStatus SessionShard::submit(SessionId id, const sim::StepRecord& rec,
                                  std::int64_t now_tick) {
  ServeMetrics& metrics = ServeMetrics::get();
  const std::scoped_lock lock(mutex_);
  // Admission control happens before any session state is touched: a
  // rejected record leaves the window exactly where it was.
  if (pending_.size() + done_.size() >=
      static_cast<std::size_t>(config_.queue_capacity)) {
    metrics.rejected_queue_full.increment();
    ++counters_.rejected_queue_full;
    return SubmitStatus::kRejectedQueueFull;
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    // Draw on the engine-wide session budget; put it back if we lost the
    // race to the last slot.
    if (session_budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      session_budget_.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected_session_limit.increment();
      ++counters_.rejected_session_limit;
      return SubmitStatus::kRejectedSessionLimit;
    }
    it = sessions_.emplace(id, Session(config_)).first;
  }

  Session& session = it->second;
  session.last_seen = now_tick;
  monitor::fill_features(rec, session.ring.push_slot());
  session.ring.commit();
  ++session.cycles;
  metrics.records.increment();
  ++counters_.records;
  if (!session.ring.full()) return SubmitStatus::kAccepted;

  // Stage the ready window into the micro-batch row it will occupy, once
  // per model that scores it.
  const auto row = static_cast<int>(pending_.size());
  stage_row(session.ring, *monitor_, batch_, row);
  if (shadow_ != nullptr) {
    stage_row(session.ring, *shadow_, shadow_batch_, row);
  }
  pending_.push_back(VerdictEvent{id, session.cycles - 1, 0, 0.0, now_tick});
  metrics.windows_ready.increment();
  if (pending_.size() == static_cast<std::size_t>(config_.max_batch)) {
    flush_locked();
  }
  return SubmitStatus::kAccepted;
}

void SessionShard::flush() {
  const std::scoped_lock lock(mutex_);
  flush_locked();
}

void SessionShard::flush_locked() {
  if (pending_.empty()) return;
  ServeMetrics& metrics = ServeMetrics::get();
  const obs::ScopedSpan span("serve.flush", metrics.flush_seconds);
  const int n = static_cast<int>(pending_.size());
  metrics.batch_occupancy.record(static_cast<double>(n));

  const nn::Matrix probs = score(*monitor_, batch_, n);
  for (int r = 0; r < n; ++r) {
    VerdictEvent& ev = pending_[static_cast<std::size_t>(r)];
    ev.p_unsafe = probs.at(r, 1);
    ev.prediction = nn::decide(batch_.window(r), probs.row(r));
    // Batch purity by construction: the whole batch is scored by the one
    // monitor active at this flush, so every event of the (shard,
    // flush_seq) group carries the same version.
    ev.model_version = version_;
    ev.flush_seq = counters_.flushes;
    done_.push_back(ev);
  }

  if (shadow_ != nullptr) {
    // Dual-score the same windows (staged in the shadow model's scaler
    // space) without touching done_: shadow verdicts are observability,
    // never output.
    const nn::Matrix shadow_probs = score(*shadow_, shadow_batch_, n);
    std::uint64_t disagree = 0;
    for (int r = 0; r < n; ++r) {
      const int shadow_pred =
          nn::decide(shadow_batch_.window(r), shadow_probs.row(r));
      if (shadow_pred != pending_[static_cast<std::size_t>(r)].prediction) {
        ++disagree;
      }
    }
    counters_.shadow_windows += static_cast<std::uint64_t>(n);
    counters_.shadow_disagree += disagree;
    metrics.shadow_windows.add(static_cast<std::uint64_t>(n));
    metrics.shadow_disagree.add(disagree);
    CPSGUARD_OBS_EVENT(
        "serve.shadow", obs::f("active_version", version_),
        obs::f("shadow_version", shadow_version_),
        obs::f("flush_seq", counters_.flushes),
        obs::f("windows", static_cast<std::uint64_t>(n)),
        obs::f("disagree", disagree));
  }

  pending_.clear();
  metrics.flushes.increment();
  metrics.windows_flushed.add(static_cast<std::uint64_t>(n));
  ++counters_.flushes;
  counters_.windows_flushed += static_cast<std::uint64_t>(n);
}

void SessionShard::drain(std::vector<VerdictEvent>& out) {
  const std::scoped_lock lock(mutex_);
  out.insert(out.end(), done_.begin(), done_.end());
  done_.clear();
}

bool SessionShard::close(SessionId id) {
  const std::scoped_lock lock(mutex_);
  if (sessions_.erase(id) == 0) return false;
  session_budget_.fetch_add(1, std::memory_order_relaxed);
  ++counters_.closed;
  return true;
}

void SessionShard::evict_idle(std::int64_t now_tick, std::int64_t ttl,
                              std::vector<SessionId>& evicted) {
  ServeMetrics& metrics = ServeMetrics::get();
  const std::scoped_lock lock(mutex_);
  // Collect first, then erase in ascending-id order: the hash map iterates
  // in an unspecified order, and deterministic eviction order is part of
  // the TTL contract (loadgen's eviction log replays as explicit closes).
  const std::size_t first = evicted.size();
  for (const auto& [id, session] : sessions_) {
    if (session.last_seen < now_tick - ttl) evicted.push_back(id);
  }
  std::sort(evicted.begin() + static_cast<std::ptrdiff_t>(first),
            evicted.end());
  for (std::size_t i = first; i < evicted.size(); ++i) {
    sessions_.erase(evicted[i]);
    session_budget_.fetch_add(1, std::memory_order_relaxed);
    ++counters_.evicted;
    metrics.evicted.increment();
  }
}

void SessionShard::stage(std::shared_ptr<const monitor::MlMonitor> mon,
                         std::uint64_t version, SwapMode mode) {
  expects(mon != nullptr && mon->trained(),
          "staged monitor must be trained");
  const std::scoped_lock lock(mutex_);
  if (mode == SwapMode::kShadow) {
    // Flush first so the shadow batch rows align with the active batch
    // starting from the next staged window (rows already staged have no
    // shadow-scaled copy); allocate the shadow batch on first use (shards
    // that never shadow pay nothing).
    flush_locked();
    if (shadow_batch_.empty()) {
      shadow_batch_ = nn::Tensor3(config_.max_batch, config_.window,
                                  monitor::Features::kNumFeatures);
    }
    shadow_ = std::move(mon);
    shadow_version_ = version;
    return;
  }
  staged_ = std::move(mon);
  staged_version_ = version;
}

bool SessionShard::activate_staged() {
  const std::scoped_lock lock(mutex_);
  if (staged_ == nullptr) return false;
  // Straggler windows staged since the engine's flush pass (concurrent
  // ingest) still score under the outgoing model, whose scaler staged
  // them — no batch ever mixes versions or scaler spaces.
  flush_locked();
  prev_ = std::move(monitor_);
  prev_version_ = version_;
  monitor_ = std::move(staged_);
  version_ = staged_version_;
  staged_version_ = 0;
  ++counters_.swaps;
  ServeMetrics::get().swaps.increment();
  return true;
}

bool SessionShard::promote_shadow() {
  const std::scoped_lock lock(mutex_);
  if (shadow_ == nullptr) return false;
  staged_ = std::move(shadow_);
  staged_version_ = shadow_version_;
  shadow_version_ = 0;
  return true;
}

bool SessionShard::rollback() {
  const std::scoped_lock lock(mutex_);
  staged_.reset();
  staged_version_ = 0;
  shadow_.reset();
  shadow_version_ = 0;
  if (prev_ == nullptr) return false;
  staged_ = std::move(prev_);
  staged_version_ = prev_version_;
  prev_version_ = 0;
  return true;
}

std::uint64_t SessionShard::active_version() const {
  const std::scoped_lock lock(mutex_);
  return version_;
}

ShardStats SessionShard::stats() const {
  const std::scoped_lock lock(mutex_);
  ShardStats out = counters_;
  out.sessions = sessions_.size();
  out.pending_windows = pending_.size();
  out.undrained_verdicts = done_.size();
  return out;
}

}  // namespace cpsguard::serve
