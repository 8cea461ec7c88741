#include "src/common/stats.h"

#include <cmath>

namespace tdb {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) {
      min_ = x;
    }
    if (x > max_) {
      max_ = x;
    }
  }
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

LinearRegression::LinearRegression(size_t num_predictors)
    : k_(num_predictors) {}

void LinearRegression::Add(const std::vector<double>& xs, double y,
                           double weight) {
  rows_.push_back(xs);
  ys_.push_back(y);
  weights_.push_back(weight);
}

std::vector<double> LinearRegression::Solve() const {
  const size_t m = k_ + 1;  // intercept + predictors
  if (rows_.size() < m) {
    return {};
  }
  // Build normal equations A * beta = b where A = X^T W X, b = X^T W y, the
  // design matrix X has a leading column of ones and W is diagonal with the
  // weights.
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  std::vector<double> b(m, 0.0);
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::vector<double> x(m);
    x[0] = 1.0;
    for (size_t j = 0; j < k_; ++j) {
      x[j + 1] = rows_[r][j];
    }
    const double w = weights_[r];
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        a[i][j] += w * x[i] * x[j];
      }
      b[i] += w * x[i] * ys_[r];
    }
  }
  // Gaussian elimination with partial pivoting.
  for (size_t col = 0; col < m; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < m; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) {
        pivot = r;
      }
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      return {};
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t r = 0; r < m; ++r) {
      if (r == col) {
        continue;
      }
      double factor = a[r][col] / a[col][col];
      for (size_t c = col; c < m; ++c) {
        a[r][c] -= factor * a[col][c];
      }
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> beta(m);
  for (size_t i = 0; i < m; ++i) {
    beta[i] = b[i] / a[i][i];
  }
  return beta;
}

double LinearRegression::RSquared(const std::vector<double>& beta) const {
  if (beta.size() != k_ + 1 || ys_.empty()) {
    return 0.0;
  }
  double mean = 0.0;
  double weight_sum = 0.0;
  for (size_t r = 0; r < ys_.size(); ++r) {
    mean += weights_[r] * ys_[r];
    weight_sum += weights_[r];
  }
  mean /= weight_sum;
  double ss_tot = 0.0;
  double ss_res = 0.0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    double pred = beta[0];
    for (size_t j = 0; j < k_; ++j) {
      pred += beta[j + 1] * rows_[r][j];
    }
    ss_res += weights_[r] * (ys_[r] - pred) * (ys_[r] - pred);
    ss_tot += weights_[r] * (ys_[r] - mean) * (ys_[r] - mean);
  }
  if (ss_tot == 0.0) {
    return 1.0;
  }
  return 1.0 - ss_res / ss_tot;
}

}  // namespace tdb
