#include "core/kernel_regression.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace deepmvi {

using ad::Tape;
using ad::Var;

KernelRegression::KernelRegression(nn::ParameterStore* store,
                                   const std::vector<Dimension>& dims,
                                   const DeepMviConfig& config, Rng& rng)
    : gamma_(config.kernel_gamma), top_siblings_(config.top_siblings) {
  // DeepMVI1D doubles the embedding size to keep the parameter budget
  // comparable (Sec 5.5.4).
  const int dim_size = config.flatten_multidim ? 2 * config.embedding_dim
                                               : config.embedding_dim;
  for (size_t i = 0; i < dims.size(); ++i) {
    embeddings_.emplace_back(store, "kr.embed." + dims[i].name + std::to_string(i),
                             dims[i].size(), dim_size, rng);
  }
}

Var KernelRegression::Forward(Tape& tape, const DataTensor& data,
                              const ValueWindow& values,
                              const MaskOverlay& avail, int row,
                              const std::vector<int>& times) const {
  DMVI_CHECK_EQ(static_cast<int>(embeddings_.size()), data.num_dims());
  const int n_pos = static_cast<int>(times.size());
  DMVI_CHECK_GT(n_pos, 0);
  const std::vector<int> k = data.UnflattenRow(row);

  std::vector<Var> features;  // 3 per dimension, each n_pos x 1.
  for (int dim = 0; dim < data.num_dims(); ++dim) {
    std::vector<int> siblings = data.Siblings(row, dim);
    // Siblings() lists the dimension's other members in ascending order:
    // sibling i is member i, or i + 1 once past the row's own member.
    const int own_member = k[dim];
    std::vector<int> sib_members(siblings.size());
    for (int i = 0; i < static_cast<int>(siblings.size()); ++i) {
      sib_members[i] = i < own_member ? i : i + 1;
    }

    // Pre-select the top-L siblings by current kernel similarity when the
    // dimension is large (Sec 4.2). Selection reads the embedding values
    // directly; gradients still flow through the kept siblings.
    if (static_cast<int>(siblings.size()) > top_siblings_) {
      const Matrix& table = embeddings_[dim].table_value();
      // (distance, sibling index): indices ascend with row ids, so ties
      // break towards the lower row.
      std::vector<std::pair<double, int>> scored;
      scored.reserve(siblings.size());
      for (int i = 0; i < static_cast<int>(siblings.size()); ++i) {
        double dist2 = 0.0;
        for (int c = 0; c < table.cols(); ++c) {
          const double d = table(own_member, c) - table(sib_members[i], c);
          dist2 += d * d;
        }
        scored.emplace_back(dist2, i);
      }
      std::nth_element(scored.begin(), scored.begin() + top_siblings_,
                       scored.end());
      std::vector<int> kept_rows(top_siblings_);
      std::vector<int> kept_members(top_siblings_);
      for (int i = 0; i < top_siblings_; ++i) {
        kept_rows[i] = siblings[scored[i].second];
        kept_members[i] = sib_members[scored[i].second];
      }
      siblings = std::move(kept_rows);
      sib_members = std::move(kept_members);
    }

    if (siblings.empty()) {
      // Singleton dimension: features are identically zero.
      Var zeros = tape.Constant(Matrix(n_pos, 1));
      features.push_back(zeros);
      features.push_back(zeros);
      features.push_back(zeros);
      continue;
    }
    const int num_sib = static_cast<int>(siblings.size());

    // ---- Kernel weights from embeddings (Eq. 17). ----------------------
    Var own_embed = embeddings_[dim].Forward(tape, {k[dim]});       // 1 x d
    Var sib_embed = embeddings_[dim].Forward(tape, sib_members);    // L x d
    Var diff = ad::SubRowVector(sib_embed, own_embed);
    Var dist2 = ad::RowSum(ad::Square(diff));                       // L x 1
    Var kernel = ad::Exp(ad::Scale(dist2, -gamma_));                // L x 1
    Var kernel_t = ad::Transpose(kernel);                           // 1 x L

    // ---- Sibling data at the requested times (constants). --------------
    Matrix sib_values(num_sib, n_pos);   // masked: unavailable -> 0
    Matrix sib_avail(num_sib, n_pos);    // 0/1
    for (int s = 0; s < num_sib; ++s) {
      for (int p = 0; p < n_pos; ++p) {
        const int t = times[p];
        if (avail.available(siblings[s], t)) {
          sib_avail(s, p) = 1.0;
          sib_values(s, p) = values(siblings[s], t);
        }
      }
    }

    // ---- U (Eq. 18), W (Eq. 19): differentiable in the embeddings. -----
    Var numerator = ad::MatMul(kernel_t, tape.Constant(sib_values));  // 1 x P
    Var weight_sum = ad::MatMul(kernel_t, tape.Constant(sib_avail));  // 1 x P
    Var u = ad::Div(numerator, ad::AddScalar(weight_sum, 1e-8));

    // ---- V (Eq. 20): plain sibling variance, a data constant. -----------
    Matrix variance(1, n_pos);
    for (int p = 0; p < n_pos; ++p) {
      double sum = 0.0, sum2 = 0.0;
      int count = 0;
      for (int s = 0; s < num_sib; ++s) {
        if (sib_avail(s, p) != 0.0) {
          sum += sib_values(s, p);
          sum2 += sib_values(s, p) * sib_values(s, p);
          ++count;
        }
      }
      if (count > 1) {
        const double mean = sum / count;
        variance(0, p) = std::max(sum2 / count - mean * mean, 0.0);
      }
    }

    features.push_back(ad::Transpose(u));
    features.push_back(ad::Transpose(weight_sum));
    features.push_back(tape.Constant(variance.Transpose()));
  }
  return ad::ConcatCols(features);  // n_pos x 3n (Eq. 21)
}

}  // namespace deepmvi
