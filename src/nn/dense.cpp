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

Matrix Dense::forward(const Matrix& x) {
  Matrix y = infer(x);
  cached_input_ = x;
  return y;
}

Matrix Dense::backward(const Matrix& dy) {
  expects(dy.cols() == output_size(), "Dense: output-grad width mismatch");
  expects(dy.rows() == cached_input_.rows(), "Dense: backward batch mismatch");
  w_.grad.add_in_place(matmul_tn(cached_input_, dy));
  b_.grad.add_in_place(dy.column_sums());
  return matmul_nt(dy, w_.value);
}

std::vector<Param*> Dense::params() { return {&w_, &b_}; }

}  // namespace cpsguard::nn
