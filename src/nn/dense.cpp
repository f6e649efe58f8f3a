#include "nn/dense.h"

#include "nn/init.h"
#include "util/contracts.h"

namespace cpsguard::nn {

Dense::Dense(int in, int out, util::Rng& rng)
    : w_("W", glorot_uniform(in, out, rng)), b_("b", Matrix::zeros(1, out)) {}

Matrix Dense::infer(const Matrix& x) const {
  expects(x.cols() == input_size(), "Dense: input width mismatch");
  Matrix y = matmul(x, w_.value);
  y.add_row_vector(b_.value.row(0));
  return y;
}

Matrix Dense::forward(const Matrix& x, Matrix& cache) const {
  Matrix y = infer(x);
  cache = x;
  return y;
}

Matrix Dense::backward(const Matrix& dy, const Matrix& cache,
                       std::span<Param* const> grads) const {
  expects(dy.cols() == output_size(), "Dense: output-grad width mismatch");
  expects(dy.rows() == cache.rows() && cache.cols() == input_size(),
          "Dense: backward batch mismatch");
  if (!grads.empty()) {
    expects(grads.size() == 2 && grads[0] == &w_ && grads[1] == &b_,
            "Dense: grads must be this layer's params()");
    grads[0]->grad.add_in_place(matmul_tn(cache, dy));
    grads[1]->grad.add_in_place(dy.column_sums());
  }
  return matmul_nt(dy, w_.value);
}

std::vector<Param*> Dense::params() { return {&w_, &b_}; }

}  // namespace cpsguard::nn
