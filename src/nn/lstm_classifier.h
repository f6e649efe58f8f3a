// Stacked-LSTM classifier with a dense softmax head, built on the generic
// RecurrentClassifier. Paper architecture: LSTM(128)-LSTM(64)-Dense(C)-softmax,
// time step 6.
#pragma once

#include "nn/lstm.h"
#include "nn/recurrent_classifier.h"

namespace cpsguard::nn {

class LstmClassifier : public RecurrentClassifier<LstmLayer> {
 public:
  LstmClassifier(int time_steps, int features, std::vector<int> hidden,
                 int classes, util::Rng& rng)
      : RecurrentClassifier<LstmLayer>("LSTM", time_steps, features,
                                       std::move(hidden), classes, rng) {}
};

}  // namespace cpsguard::nn
