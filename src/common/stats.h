// Statistics helpers for the benchmark harness: running mean/σ (Figure 12),
// and weighted least squares for the cost models of §9.2.2/§9.2.3, which the
// paper fits by linear regression (e.g. "132 µs + 36 µs per chunk + 0.24 µs
// per byte").

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace tdb {

// Welford's online mean/variance.
class RunningStats {
 public:
  void Add(double x);
  size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Weighted least squares: y ≈ beta0 + beta1*x1 + ... + betak*xk, minimizing
// the sum of weight * (y - fit)^2. Solves the normal equations with Gaussian
// elimination; k is small (≤3). With every weight 1 this is ordinary least
// squares, where the largest observations decide the fit; a weight of 1/y^2
// minimizes the squared relative error instead, so a model over
// observations that span orders of magnitude fits the small ones too.
class LinearRegression {
 public:
  explicit LinearRegression(size_t num_predictors);

  // xs.size() must equal num_predictors; weight > 0.
  void Add(const std::vector<double>& xs, double y, double weight = 1.0);

  // Returns {beta0, beta1, ..., betak}; empty if the system is singular or
  // there are fewer observations than coefficients.
  std::vector<double> Solve() const;

  // Coefficient of determination for the solved model (call after Solve()),
  // under the same weights as the fit.
  double RSquared(const std::vector<double>& beta) const;

 private:
  size_t k_;
  std::vector<std::vector<double>> rows_;  // each row: predictors
  std::vector<double> ys_;
  std::vector<double> weights_;
};

}  // namespace tdb

#endif  // SRC_COMMON_STATS_H_
