#include "nn/gru.h"

#include <utility>

#include "nn/activations.h"
#include "nn/init.h"
#include "util/contracts.h"

namespace cpsguard::nn {

GruLayer::GruLayer(int input, int hidden, util::Rng& rng)
    : input_(input), hidden_(hidden),
      wx_("Wx", glorot_uniform(input, 3 * hidden, rng)),
      wh_("Wh", recurrent_normal(hidden, 3 * hidden, rng)),
      bx_("bx", Matrix::zeros(1, 3 * hidden)),
      bh_("bh", Matrix::zeros(1, 3 * hidden)) {
  expects(input > 0 && hidden > 0, "GRU sizes must be positive");
}

Tensor3 GruLayer::run(const Tensor3& x, Cache* cache) const {
  expects(x.features() == input_, "GRU: input feature width mismatch");
  const int batch = x.batch();
  const int steps = x.time();
  if (cache != nullptr) {
    cache->clear();
    cache->reserve(static_cast<std::size_t>(steps));
  }

  Tensor3 out(batch, steps, hidden_);
  Matrix h = Matrix::zeros(batch, hidden_);

  for (int t = 0; t < steps; ++t) {
    Matrix xt = x.time_slice(t);
    Matrix a = matmul(xt, wx_.value);
    a.add_row_vector(bx_.value.row(0));
    Matrix ah = matmul(h, wh_.value);
    ah.add_row_vector(bh_.value.row(0));

    Matrix z(batch, hidden_);
    Matrix r(batch, hidden_);
    Matrix n(batch, hidden_);
    Matrix ah_n(batch, hidden_);
    Matrix h_next(batch, hidden_);

    const auto hsz = static_cast<std::size_t>(hidden_);
    for (int bi = 0; bi < batch; ++bi) {
      const auto arow = std::as_const(a).row(bi);
      const auto ahrow = std::as_const(ah).row(bi);
      const auto hrow = std::as_const(h).row(bi);
      auto zrow = z.row(bi);
      auto rrow = r.row(bi);
      auto nrow = n.row(bi);
      auto qrow = ah_n.row(bi);
      auto hnrow = h_next.row(bi);
      for (std::size_t j = 0; j < hsz; ++j) {
        zrow[j] = arow[j] + ahrow[j];
        rrow[j] = arow[j + hsz] + ahrow[j + hsz];
        qrow[j] = ahrow[j + 2 * hsz];
      }
      sigmoid_rows(zrow, zrow);
      sigmoid_rows(rrow, rrow);
      for (std::size_t j = 0; j < hsz; ++j) {
        nrow[j] = arow[j + 2 * hsz] + rrow[j] * qrow[j];
      }
      tanh_rows(nrow, nrow);
      for (std::size_t j = 0; j < hsz; ++j) {
        hnrow[j] = (1.0f - zrow[j]) * nrow[j] + zrow[j] * hrow[j];
      }
    }

    out.set_time_slice(t, h_next);
    if (cache != nullptr) {
      cache->push_back(StepCache{std::move(xt), std::move(h), std::move(z),
                                 std::move(r), std::move(n), std::move(ah_n)});
    }
    h = std::move(h_next);
  }
  return out;
}

Tensor3 GruLayer::backward(const Tensor3& dh_all, const Cache& cache,
                           std::span<Param* const> grads) const {
  const int steps = static_cast<int>(cache.size());
  expects(steps > 0, "GRU backward requires a prior forward");
  const int batch = cache.front().x.rows();
  expects(dh_all.batch() == batch && dh_all.time() == steps &&
              dh_all.features() == hidden_,
          "GRU: hidden-grad shape mismatch");
  expects(grads.empty() || (grads.size() == 4 && grads[0] == &wx_ &&
                            grads[1] == &wh_ && grads[2] == &bx_ &&
                            grads[3] == &bh_),
          "GRU: grads must be this layer's params()");

  Tensor3 dx(batch, steps, input_);
  Matrix dh_next = Matrix::zeros(batch, hidden_);

  for (int t = steps - 1; t >= 0; --t) {
    const StepCache& sc = cache[static_cast<std::size_t>(t)];
    Matrix dh = dh_all.time_slice(t);
    dh.add_in_place(dh_next);

    // Pre-activation gradients for the input path (dA = [dz, dr, dn]) and
    // the hidden path (dAh = [dz, dr, dn ⊙ r]).
    Matrix da(batch, 3 * hidden_);
    Matrix dah(batch, 3 * hidden_);
    Matrix dh_prev(batch, hidden_);
    for (int bi = 0; bi < batch; ++bi) {
      const auto zrow = sc.z.row(bi);
      const auto rrow = sc.r.row(bi);
      const auto nrow = sc.n.row(bi);
      const auto qrow = sc.ah_n.row(bi);
      const auto hrow = sc.h_prev.row(bi);
      const auto dhrow = dh.row(bi);
      auto darow = da.row(bi);
      auto dahrow = dah.row(bi);
      auto dhprow = dh_prev.row(bi);
      for (int j = 0; j < hidden_; ++j) {
        const auto ji = static_cast<std::size_t>(j);
        const auto jr = ji + static_cast<std::size_t>(hidden_);
        const auto jn = ji + static_cast<std::size_t>(2 * hidden_);
        const float z = zrow[ji], r = rrow[ji], n = nrow[ji];
        const float dz_pre = dhrow[ji] * (hrow[ji] - n) * dsigmoid_from_y(z);
        const float dn_pre = dhrow[ji] * (1.0f - z) * dtanh_from_y(n);
        const float dr_pre = dn_pre * qrow[ji] * dsigmoid_from_y(r);
        darow[ji] = dz_pre;
        darow[jr] = dr_pre;
        darow[jn] = dn_pre;
        dahrow[ji] = dz_pre;
        dahrow[jr] = dr_pre;
        dahrow[jn] = dn_pre * r;
        dhprow[ji] = dhrow[ji] * z;
      }
    }

    if (!grads.empty()) {
      grads[0]->grad.add_in_place(matmul_tn(sc.x, da));
      grads[2]->grad.add_in_place(da.column_sums());
      grads[1]->grad.add_in_place(matmul_tn(sc.h_prev, dah));
      grads[3]->grad.add_in_place(dah.column_sums());
    }

    dx.set_time_slice(t, matmul_nt(da, wx_.value));
    if (t > 0) dh_prev.add_in_place(matmul_nt(dah, wh_.value));  // dh_{-1} is never read
    dh_next = std::move(dh_prev);
  }
  return dx;
}

std::vector<Param*> GruLayer::params() { return {&wx_, &wh_, &bx_, &bh_}; }

}  // namespace cpsguard::nn
