#include "eval/batch_eval.h"

namespace cpsguard::eval {

nn::Matrix batched_predict_proba_scaled(const monitor::MlMonitor& mon,
                                        const nn::Tensor3& scaled_windows) {
  return mon.predict_proba_scaled(scaled_windows);
}

}  // namespace cpsguard::eval
