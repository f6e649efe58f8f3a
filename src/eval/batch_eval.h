// Batched monitor inference in the scaled model space.
//
// Each call is one MlMonitor predict over the whole batch. Every per-window
// forward pass is independent of its batch neighbours (matmul rows, ReLU,
// softmax and the recurrent time loops are all row-local), so any split of
// the batch — serve's partial flushes included — produces bit-identical
// rows. An MLP batch large enough to be worth it fans out once across the
// shared pool, one 16-row block per task running the whole layer stack;
// otherwise the large products inside the forward pass fan out on their
// own. Inference is const, so callers on several threads may share one
// monitor. Turning a probability row into a verdict is nn::decide's job
// alone (nn/matrix.h).
#pragma once

#include "monitor/ml_monitor.h"
#include "nn/matrix.h"
#include "nn/tensor3.h"

namespace cpsguard::eval {

/// Class probabilities for windows already in the scaled model space (the
/// streaming engine scales each window as it stages it into the
/// micro-batch): `mon.predict_proba_scaled(scaled_windows)`.
nn::Matrix batched_predict_proba_scaled(const monitor::MlMonitor& mon,
                                        const nn::Tensor3& scaled_windows);

}  // namespace cpsguard::eval
