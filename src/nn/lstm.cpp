#include "nn/lstm.h"

#include <utility>

#include "nn/activations.h"
#include "nn/init.h"
#include "util/contracts.h"

namespace cpsguard::nn {

LstmLayer::LstmLayer(int input, int hidden, util::Rng& rng)
    : input_(input), hidden_(hidden),
      wx_("Wx", glorot_uniform(input, 4 * hidden, rng)),
      wh_("Wh", recurrent_normal(hidden, 4 * hidden, rng)),
      b_("b", Matrix::zeros(1, 4 * hidden)) {
  expects(input > 0 && hidden > 0, "LSTM sizes must be positive");
  // Forget-gate bias starts at 1 (standard trick: remember by default).
  for (int j = hidden; j < 2 * hidden; ++j) b_.value.at(0, j) = 1.0f;
}

Tensor3 LstmLayer::run(const Tensor3& x, Cache* cache) const {
  expects(x.features() == input_, "LSTM: input feature width mismatch");
  const int batch = x.batch();
  const int steps = x.time();
  if (cache != nullptr) {
    cache->clear();
    cache->reserve(static_cast<std::size_t>(steps));
  }

  Tensor3 out(batch, steps, hidden_);
  Matrix h = Matrix::zeros(batch, hidden_);
  Matrix c = Matrix::zeros(batch, hidden_);

  for (int t = 0; t < steps; ++t) {
    Matrix xt = x.time_slice(t);
    Matrix a = matmul(xt, wx_.value);
    a.add_in_place(matmul(h, wh_.value));
    a.add_row_vector(b_.value.row(0));

    const auto hsz = static_cast<std::size_t>(hidden_);
    Matrix c_next(batch, hidden_);
    Matrix tanh_c(batch, hidden_);
    Matrix h_next(batch, hidden_);

    // The pre-activations become the gates in place: sigmoid over the
    // contiguous [i|f] block and over o, tanh over g.
    for (int bi = 0; bi < batch; ++bi) {
      const auto grow = a.row(bi);
      const auto if_gates = grow.first(2 * hsz);
      const auto g_gate = grow.subspan(2 * hsz, hsz);
      const auto o_gate = grow.subspan(3 * hsz, hsz);
      sigmoid_rows(if_gates, if_gates);
      tanh_rows(g_gate, g_gate);
      sigmoid_rows(o_gate, o_gate);
      const auto cprev = std::as_const(c).row(bi);
      auto crow = c_next.row(bi);
      auto tcrow = tanh_c.row(bi);
      auto hrow = h_next.row(bi);
      for (std::size_t j = 0; j < hsz; ++j) {
        crow[j] = grow[j + hsz] * cprev[j] + grow[j] * g_gate[j];
      }
      tanh_rows(crow, tcrow);
      for (std::size_t j = 0; j < hsz; ++j) hrow[j] = o_gate[j] * tcrow[j];
    }

    out.set_time_slice(t, h_next);
    if (cache != nullptr) {
      cache->push_back(StepCache{std::move(xt), std::move(h), std::move(c),
                                 std::move(a), c_next, std::move(tanh_c)});
    }
    h = std::move(h_next);
    c = std::move(c_next);
  }
  return out;
}

Tensor3 LstmLayer::backward(const Tensor3& dh_all, const Cache& cache,
                            std::span<Param* const> grads) const {
  const int steps = static_cast<int>(cache.size());
  expects(steps > 0, "LSTM backward requires a prior forward");
  const int batch = cache.front().x.rows();
  expects(dh_all.batch() == batch && dh_all.time() == steps &&
              dh_all.features() == hidden_,
          "LSTM: hidden-grad shape mismatch");
  expects(grads.empty() || (grads.size() == 3 && grads[0] == &wx_ &&
                            grads[1] == &wh_ && grads[2] == &b_),
          "LSTM: grads must be this layer's params()");

  Tensor3 dx(batch, steps, input_);
  Matrix dh_next = Matrix::zeros(batch, hidden_);
  Matrix dc_next = Matrix::zeros(batch, hidden_);

  for (int t = steps - 1; t >= 0; --t) {
    const StepCache& sc = cache[static_cast<std::size_t>(t)];
    Matrix dh = dh_all.time_slice(t);
    dh.add_in_place(dh_next);

    // Pre-activation gate gradients: da = [di, df, dg, do] pre-nonlinearity.
    Matrix da(batch, 4 * hidden_);
    Matrix dc_prev(batch, hidden_);
    for (int bi = 0; bi < batch; ++bi) {
      const auto grow = sc.gates.row(bi);
      const auto cprev = sc.c_prev.row(bi);
      const auto tcrow = sc.tanh_c.row(bi);
      const auto dhrow = dh.row(bi);
      const auto dcnrow = dc_next.row(bi);
      auto darow = da.row(bi);
      auto dcprow = dc_prev.row(bi);
      for (int j = 0; j < hidden_; ++j) {
        const auto ji = static_cast<std::size_t>(j);
        const float ig = grow[ji];
        const float fg = grow[ji + static_cast<std::size_t>(hidden_)];
        const float gg = grow[ji + static_cast<std::size_t>(2 * hidden_)];
        const float og = grow[ji + static_cast<std::size_t>(3 * hidden_)];
        const float dc = dhrow[ji] * og * dtanh_from_y(tcrow[ji]) + dcnrow[ji];
        const float do_ = dhrow[ji] * tcrow[ji];
        darow[ji] = dc * gg * dsigmoid_from_y(ig);
        darow[ji + static_cast<std::size_t>(hidden_)] =
            dc * cprev[ji] * dsigmoid_from_y(fg);
        darow[ji + static_cast<std::size_t>(2 * hidden_)] =
            dc * ig * dtanh_from_y(gg);
        darow[ji + static_cast<std::size_t>(3 * hidden_)] =
            do_ * dsigmoid_from_y(og);
        dcprow[ji] = dc * fg;
      }
    }

    if (!grads.empty()) {
      grads[0]->grad.add_in_place(matmul_tn(sc.x, da));
      grads[1]->grad.add_in_place(matmul_tn(sc.h_prev, da));
      grads[2]->grad.add_in_place(da.column_sums());
    }

    dx.set_time_slice(t, matmul_nt(da, wx_.value));
    if (t > 0) dh_next = matmul_nt(da, wh_.value);  // dh_{-1} is never read
    dc_next = dc_prev;
  }
  return dx;
}

std::vector<Param*> LstmLayer::params() { return {&wx_, &wh_, &b_}; }

}  // namespace cpsguard::nn
