#include "model/analysis.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

namespace numaio::model {

namespace {

/// Average ranks (1-based), ties share the mean of their positions.
std::vector<double> ranks(std::span<const double> v) {
  const std::size_t n = v.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
  std::vector<double> r(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) +
                             static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[order[k]] = avg_rank;
    i = j + 1;
  }
  return r;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size();
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace

double spearman(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  return pearson(ra, rb);
}

}  // namespace numaio::model
