// Unit tests for src/common: strings, table formatting, RNG, error macros.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

namespace mivtx {
namespace {

TEST(Strings, ToLowerUpper) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_EQ(to_upper("AbC123"), "ABC123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, StartsWithCi) {
  EXPECT_TRUE(starts_with_ci(".MODEL nch", ".model"));
  EXPECT_TRUE(starts_with_ci("pulse(0 1)", "PULSE"));
  EXPECT_FALSE(starts_with_ci("pul", "pulse"));
  EXPECT_TRUE(equals_ci("NMOS", "nmos"));
  EXPECT_FALSE(equals_ci("NMOS", "pmos"));
  EXPECT_FALSE(equals_ci("NMOSX", "nmos"));
}

TEST(Strings, Split) {
  const auto t = split("a  b\tc", " \t");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split("", " ").empty());
  EXPECT_TRUE(split("   ", " ").empty());
}

struct SpiceNumberCase {
  const char* text;
  double expected;
};

// Names the case by its text and value; gtest's default byte dump would put
// the address of `text` into the test name, which differs on every run.
void PrintTo(const SpiceNumberCase& c, std::ostream* os) {
  *os << '"' << c.text << "\" = " << c.expected;
}

class SpiceNumberTest : public ::testing::TestWithParam<SpiceNumberCase> {};

TEST_P(SpiceNumberTest, Parses) {
  const auto& c = GetParam();
  EXPECT_DOUBLE_EQ(parse_spice_number(c.text), c.expected) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceNumberTest,
    ::testing::Values(SpiceNumberCase{"1.5", 1.5},
                      SpiceNumberCase{"1k", 1e3},
                      SpiceNumberCase{"2.5meg", 2.5e6},
                      SpiceNumberCase{"10u", 10e-6},
                      SpiceNumberCase{"3n", 3e-9},
                      SpiceNumberCase{"1.5p", 1.5e-12},
                      SpiceNumberCase{"7f", 7e-15},
                      SpiceNumberCase{"2a", 2e-18},
                      SpiceNumberCase{"1e-9", 1e-9},
                      SpiceNumberCase{"-4m", -4e-3},
                      SpiceNumberCase{"1.0v", 1.0},
                      SpiceNumberCase{"5T", 5e12},
                      SpiceNumberCase{"2g", 2e9},
                      SpiceNumberCase{"  42  ", 42.0}));

TEST(Strings, ParseSpiceNumberRejectsJunk) {
  EXPECT_THROW(parse_spice_number("abc"), Error);
  EXPECT_THROW(parse_spice_number(""), Error);
  EXPECT_THROW(parse_spice_number("   "), Error);
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.2345), "1.23");
}

TEST(Strings, EngFormat) {
  EXPECT_EQ(eng_format(3.5e-10, "s", 1), "350.0 ps");
  EXPECT_EQ(eng_format(1e3, "Hz", 0), "1 kHz");
  EXPECT_EQ(eng_format(2.5e-6, "W", 1), "2.5 uW");
  // Zero stays plain.
  EXPECT_NE(eng_format(0.0, "A").find("0"), std::string::npos);
}

TEST(Units, Helpers) {
  EXPECT_DOUBLE_EQ(nm(24), 24e-9);
  EXPECT_DOUBLE_EQ(fF(1), 1e-15);
  EXPECT_DOUBLE_EQ(per_cm3(1e19), 1e25);
  EXPECT_NEAR(thermal_voltage(300.0), 0.02585, 1e-4);
}

TEST(Error, ExpectMacroThrowsWithContext) {
  try {
    MIVTX_EXPECT(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Error, FailMacroThrows) {
  EXPECT_THROW(MIVTX_FAIL("boom"), Error);
}

TEST(Table, FormatsAlignedGrid) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  // 4 rules + header + 2 rows = 7 lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 7);
}

TEST(Table, RejectsBadArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, PercentDelta) {
  EXPECT_EQ(percent_delta(100.0, 82.0), "-18.0%");
  EXPECT_EQ(percent_delta(100.0, 103.1), "+3.1%");
  EXPECT_EQ(percent_delta(0.0, 1.0), "n/a");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, Bernoulli) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

}  // namespace
}  // namespace mivtx
