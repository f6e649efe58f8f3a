#include "eval/batch_eval.h"

#include <cmath>
#include <string>

#include "util/contracts.h"
#include "util/error.h"

namespace cpsguard::eval {

int argmax_row(std::span<const float> probs) {
  expects(!probs.empty(), "argmax over an empty probability row");
  int best = 0;
  for (int c = 0; c < static_cast<int>(probs.size()); ++c) {
    const float v = probs[static_cast<std::size_t>(c)];
    if (std::isnan(v)) {
      throw CpsError("batched_predict: NaN probability at class " +
                     std::to_string(c) +
                     " — NaN inputs must be rejected upstream (PR 5 NaN "
                     "policy), not classified");
    }
    if (v > probs[static_cast<std::size_t>(best)]) best = c;
  }
  return best;
}

nn::Matrix batched_predict_proba_scaled(const monitor::MlMonitor& mon,
                                        const nn::Tensor3& scaled_windows) {
  return mon.predict_proba_scaled(scaled_windows);
}

std::vector<int> batched_predict(const monitor::MlMonitor& mon,
                                 const nn::Tensor3& raw_windows) {
  const nn::Matrix probs = mon.predict_proba(raw_windows);
  std::vector<int> out(static_cast<std::size_t>(probs.rows()));
  for (int r = 0; r < probs.rows(); ++r) {
    try {
      out[static_cast<std::size_t>(r)] = argmax_row(probs.row(r));
    } catch (const CpsError& e) {
      throw CpsError("batched_predict: window " + std::to_string(r) + ": " +
                     e.what());
    }
  }
  return out;
}

}  // namespace cpsguard::eval
