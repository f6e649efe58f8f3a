// Stacked-GRU classifier with a dense softmax head — the GRU counterpart of
// LstmClassifier (nn/lstm_classifier.h), built on the generic
// RecurrentClassifier.
#pragma once

#include "nn/gru.h"
#include "nn/recurrent_classifier.h"

namespace cpsguard::nn {

class GruClassifier : public RecurrentClassifier<GruLayer> {
 public:
  GruClassifier(int time_steps, int features, std::vector<int> hidden,
                int classes, util::Rng& rng)
      : RecurrentClassifier<GruLayer>("GRU", time_steps, features,
                                      std::move(hidden), classes, rng) {}
};

}  // namespace cpsguard::nn
