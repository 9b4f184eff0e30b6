#ifndef SPA_TESTS_ML_TEST_UTIL_H_
#define SPA_TESTS_ML_TEST_UTIL_H_

#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/sparse.h"

/// Synthetic dataset builders shared by the ML tests.

namespace spa::ml::testing {

/// Two Gaussian blobs in `dims` dense dimensions, labels +1/-1. The
/// blobs are centered at +separation/2 and -separation/2 along every
/// axis; separation >> 1 gives a linearly separable problem.
inline Dataset MakeBlobs(size_t n, size_t dims, double separation,
                         uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.x.SetCols(static_cast<int32_t>(dims));
  for (size_t i = 0; i < n; ++i) {
    const bool pos = (i % 2 == 0);
    const double center = (pos ? 1.0 : -1.0) * separation / 2.0;
    std::vector<SparseEntry> entries;
    entries.reserve(dims);
    for (size_t d = 0; d < dims; ++d) {
      entries.push_back(
          {static_cast<int32_t>(d), rng.Normal(center, 1.0)});
    }
    data.x.AppendRow(entries);
    data.y.push_back(pos ? 1 : -1);
  }
  return data;
}

/// Sparse binary dataset: `informative` features correlate with the
/// label (present with probability p_match when the label "matches"),
/// the rest are noise. Mirrors the EIT answer sparsity pattern.
inline Dataset MakeSparseBinary(size_t n, size_t dims, size_t informative,
                                double p_informative, double p_noise,
                                uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.x.SetCols(static_cast<int32_t>(dims));
  for (size_t i = 0; i < n; ++i) {
    const bool pos = rng.Bernoulli(0.5);
    std::vector<SparseEntry> entries;
    for (size_t d = 0; d < dims; ++d) {
      double p;
      if (d < informative) {
        p = pos ? p_informative : p_noise;
      } else {
        p = p_noise;
      }
      if (rng.Bernoulli(p)) {
        entries.push_back({static_cast<int32_t>(d), 1.0});
      }
    }
    data.x.AppendRow(entries);
    data.y.push_back(pos ? 1 : -1);
  }
  return data;
}

/// Fraction of correct sign predictions.
template <typename Model>
double AccuracyOf(const Model& model, const Dataset& data) {
  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const double s = model.Score(data.x.row(i));
    const int pred = s >= 0.0 ? 1 : -1;
    if (pred == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(data.size());
}

}  // namespace spa::ml::testing

#endif  // SPA_TESTS_ML_TEST_UTIL_H_
