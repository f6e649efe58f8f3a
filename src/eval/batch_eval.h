// Batched monitor inference under the evaluation classification contract.
//
// Each call is one MlMonitor predict over the whole batch. Every per-window
// forward pass is independent of its batch neighbours (matmul rows, ReLU,
// softmax and the recurrent time loops are all row-local), so any split of
// the batch — serve's partial flushes included — produces bit-identical
// rows. An MLP batch large enough to be worth it fans out once across the
// shared pool, one 16-row block per task running the whole layer stack;
// otherwise the large products inside the forward pass fan out on their
// own. Inference is const, so callers on several threads may share one
// monitor.
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

/// Class probabilities for windows already in the scaled model space (the
/// streaming engine scales each window as it stages it into the
/// micro-batch): `mon.predict_proba_scaled(scaled_windows)`.
nn::Matrix batched_predict_proba_scaled(const monitor::MlMonitor& mon,
                                        const nn::Tensor3& scaled_windows);

/// Argmax classes for every window via argmax_row: bit-identical to
/// `mon.predict(raw_windows)` on NaN-free probabilities, CpsError when any
/// window's probabilities contain NaN.
std::vector<int> batched_predict(const monitor::MlMonitor& mon,
                                 const nn::Tensor3& raw_windows);

}  // namespace cpsguard::eval
