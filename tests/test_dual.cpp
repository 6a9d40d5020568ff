// Forward-mode dual numbers: every operation's derivative is checked
// against central finite differences over a parameter sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/dual.h"

namespace mivtx {
namespace {

using D1 = Dual<1>;

double fd(const std::function<double(double)>& f, double x, double h = 1e-6) {
  return (f(x + h) - f(x - h)) / (2.0 * h);
}

struct UnaryCase {
  const char* name;
  std::function<D1(const D1&)> dual_fn;
  std::function<double(double)> plain_fn;
  double x;
};

// Keeps the address of `name` (gtest's default byte dump) out of the test
// name, which would otherwise differ on every run.
void PrintTo(const UnaryCase& c, std::ostream* os) {
  *os << c.name << " at x=" << c.x;
}

class DualUnaryTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(DualUnaryTest, MatchesFiniteDifference) {
  const auto& c = GetParam();
  const D1 x = D1::variable(c.x, 0);
  const D1 y = c.dual_fn(x);
  EXPECT_NEAR(y.v, c.plain_fn(c.x), 1e-12) << c.name;
  const double dref = fd(c.plain_fn, c.x);
  EXPECT_NEAR(y.d[0], dref, 1e-5 * std::max(1.0, std::fabs(dref))) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, DualUnaryTest,
    ::testing::Values(
        UnaryCase{"sqrt", [](const D1& x) { return sqrt(x); },
                  [](double x) { return std::sqrt(x); }, 2.5},
        UnaryCase{"exp", [](const D1& x) { return exp(x); },
                  [](double x) { return std::exp(x); }, 0.7},
        UnaryCase{"log", [](const D1& x) { return log(x); },
                  [](double x) { return std::log(x); }, 3.0},
        UnaryCase{"log1p", [](const D1& x) { return log1p(x); },
                  [](double x) { return std::log1p(x); }, 0.4},
        UnaryCase{"tanh", [](const D1& x) { return tanh(x); },
                  [](double x) { return std::tanh(x); }, -0.8},
        UnaryCase{"pow17", [](const D1& x) { return pow(x, 1.7); },
                  [](double x) { return std::pow(x, 1.7); }, 1.9},
        UnaryCase{"neg", [](const D1& x) { return -x; },
                  [](double x) { return -x; }, 0.3},
        UnaryCase{"recip", [](const D1& x) { return D1(1.0) / x; },
                  [](double x) { return 1.0 / x; }, 0.9}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

TEST(Dual, Arithmetic) {
  const D1 x = D1::variable(3.0, 0);
  const D1 y = x * x + D1(2.0) * x - D1(5.0);
  EXPECT_DOUBLE_EQ(y.v, 10.0);
  EXPECT_DOUBLE_EQ(y.d[0], 8.0);  // 2x + 2

  const D1 q = (x + D1(1.0)) / (x - D1(1.0));
  EXPECT_DOUBLE_EQ(q.v, 2.0);
  // d/dx [(x+1)/(x-1)] = -2/(x-1)^2 = -0.5
  EXPECT_DOUBLE_EQ(q.d[0], -0.5);
}

TEST(Dual, TwoVariables) {
  using D2 = Dual<2>;
  const D2 x = D2::variable(2.0, 0);
  const D2 y = D2::variable(5.0, 1);
  const D2 f = x * y + sqrt(y);
  EXPECT_DOUBLE_EQ(f.v, 10.0 + std::sqrt(5.0));
  EXPECT_DOUBLE_EQ(f.d[0], 5.0);
  EXPECT_NEAR(f.d[1], 2.0 + 0.5 / std::sqrt(5.0), 1e-12);
}

class SoftplusTest : public ::testing::TestWithParam<double> {};

TEST_P(SoftplusTest, ValueAndDerivative) {
  const double xv = GetParam();
  const double k = 0.05;
  const D1 x = D1::variable(xv, 0);
  const D1 y = softplus(x, k);
  // Reference softplus.
  auto ref = [k](double t) {
    const double z = t / k;
    if (z > 40.0) return t;
    if (z < -40.0) return k * std::exp(z);
    return k * std::log1p(std::exp(z));
  };
  EXPECT_NEAR(y.v, ref(xv), 1e-12);
  EXPECT_NEAR(y.d[0], fd(ref, xv, 1e-7), 1e-4);
  // Positivity and asymptotics.
  EXPECT_GT(y.v, 0.0);
  if (xv > 10 * k) {
    EXPECT_NEAR(y.v, xv, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SoftplusTest,
                         ::testing::Values(-5.0, -0.5, -0.05, 0.0, 0.05, 0.5,
                                           5.0));

TEST(Dual, SmoothRelu) {
  const double eps = 0.01;
  for (double xv : {-1.0, -0.1, 0.0, 0.1, 1.0}) {
    const D1 x = D1::variable(xv, 0);
    const D1 y = smooth_relu(x, eps);
    EXPECT_GT(y.v, 0.0);
    if (xv > 10 * eps) {
      EXPECT_NEAR(y.v, xv, 1e-3 * xv);
    }
    if (xv < -10 * eps) {
      EXPECT_LT(y.v, 1e-2);
    }
    // Derivative bounded in [0, 1].
    EXPECT_GE(y.d[0], 0.0);
    EXPECT_LE(y.d[0], 1.0 + 1e-12);
  }
}

TEST(Dual, ChainThroughComposite) {
  // f(x) = exp(sqrt(x) * log(x)) at x = 4
  const D1 x = D1::variable(4.0, 0);
  const D1 f = exp(sqrt(x) * log(x));
  auto ref = [](double t) { return std::exp(std::sqrt(t) * std::log(t)); };
  EXPECT_NEAR(f.v, ref(4.0), 1e-10);
  EXPECT_NEAR(f.d[0], fd(ref, 4.0), 1e-4 * std::fabs(f.d[0]));
}

}  // namespace
}  // namespace mivtx
