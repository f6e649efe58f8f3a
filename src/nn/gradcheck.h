// Finite-difference gradient verification. Used by the property tests to pin
// the analytic backprop of every layer (including BPTT and the semantic-loss
// path) against a numeric reference.
#pragma once

#include <functional>
#include <span>

#include "nn/classifier.h"

namespace cpsguard::nn {

struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
};

/// Compare the analytic gradient of the mean CE loss w.r.t. the *input*
/// (the const Classifier::loss_input_gradient) against central finite
/// differences. Checks `probes` randomly chosen input coordinates (or all
/// when probes <= 0).
GradCheckResult check_input_gradient(Classifier& clf, const Tensor3& x,
                                     std::span<const int> labels,
                                     util::Rng& rng, int probes = 40,
                                     double eps = 1e-3);

/// Compare analytic parameter gradients (under `loss`) against central finite
/// differences on `probes` randomly chosen parameter coordinates.
GradCheckResult check_param_gradients(
    Classifier& clf, const Tensor3& x, std::span<const int> labels,
    std::span<const float> semantic_targets, const Loss& loss, util::Rng& rng,
    int probes = 40, double eps = 1e-3);

}  // namespace cpsguard::nn
