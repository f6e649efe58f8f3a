// Batched monitor inference for large evaluation sets: splits the window
// batch into contiguous chunks and runs them across the shared thread pool.
//
// Determinism: every per-window forward pass is independent of its batch
// neighbours (matmul rows, ReLU, softmax and the recurrent time loops are
// all row-local), so a chunked run produces bit-identical probabilities to
// one full-batch call. Classifier forward passes mutate layer caches, so
// each parallel chunk works on its own MlMonitor clone.
#pragma once

#include <span>
#include <vector>

#include "monitor/ml_monitor.h"
#include "nn/matrix.h"
#include "nn/tensor3.h"

namespace cpsguard::eval {

/// Argmax of one probability row under the classification contract shared
/// with MlMonitor::predict / nn::predict_classes:
///   - ties break to the SMALLEST class index (strict `>` scan), so an
///     exactly-tied binary row classifies as the safe class 0;
///   - a NaN anywhere in the row throws CpsError instead of silently
///     winning or losing every comparison (the PR 5 NaN policy: reject by
///     contract, never accept-then-misclassify).
int argmax_row(std::span<const float> probs);

/// Class probabilities for every window, computed chunk-parallel.
/// Bit-identical to `mon.predict_proba(raw_windows)`.
nn::Matrix batched_predict_proba(monitor::MlMonitor& mon,
                                 const nn::Tensor3& raw_windows,
                                 int chunk = 512);

/// Same, for windows already in the scaled model space (the streaming
/// engine scales each window as it stages it into the micro-batch).
/// Bit-identical to
/// `mon.predict_proba_scaled(scaled_windows)`.
nn::Matrix batched_predict_proba_scaled(monitor::MlMonitor& mon,
                                        const nn::Tensor3& scaled_windows,
                                        int chunk = 512);

/// Argmax classes for every window, computed chunk-parallel via
/// argmax_row: bit-identical to `mon.predict(raw_windows)` on NaN-free
/// probabilities, CpsError when any window's probabilities contain NaN.
std::vector<int> batched_predict(monitor::MlMonitor& mon,
                                 const nn::Tensor3& raw_windows,
                                 int chunk = 512);

}  // namespace cpsguard::eval
