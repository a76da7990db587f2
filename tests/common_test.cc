#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/flags.h"
#include "common/memory.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/timer.h"

namespace relmax {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "k must be positive");
  EXPECT_EQ(st.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::NotFound("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::vector<int>> result = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(result.ok());
  std::vector<int> v = std::move(result).value();
  EXPECT_EQ(v.size(), 3u);
}

Status HelperThatPropagates(bool fail) {
  RELMAX_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::Ok());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(HelperThatPropagates(false).ok());
  EXPECT_EQ(HelperThatPropagates(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleIsRoughlyUniform) {
  Rng rng(99);
  const int kBuckets = 10;
  const int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<int>(rng.NextDouble() * kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextUint64RespectsBound) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.NextUint64(17);
    EXPECT_LT(x, 17u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateEndpoints) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, GaussianMomentsReasonable) {
  Rng rng(321);
  const int kDraws = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.Next() == child.Next();
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"Method", "Gain"});
  t.AddRow({"BE", "0.33"});
  t.AddRow({"HillClimbing", "0.31"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| Method       | Gain |"), std::string::npos);
  EXPECT_NE(s.find("| BE           | 0.33 |"), std::string::npos);
  EXPECT_NE(s.find("| HillClimbing | 0.31 |"), std::string::npos);
}

TEST(TableTest, FmtDouble) {
  EXPECT_EQ(Fmt(0.3333333, 2), "0.33");
  EXPECT_EQ(Fmt(1.0, 3), "1.000");
  EXPECT_EQ(Fmt(static_cast<int64_t>(12345)), "12345");
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=0.5", "--count", "7", "--verbose"};
  Flags flags = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 13), 13);
  EXPECT_EQ(flags.GetString("missing", "d"), "d");
  EXPECT_TRUE(flags.Has("alpha"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, EnvironmentFallback) {
  setenv("RELMAX_FROM_ENV", "21", 1);
  const char* argv[] = {"prog"};
  Flags flags = Flags::Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("from-env", 0), 21);
  unsetenv("RELMAX_FROM_ENV");
}

// Parses one `--name=value` argument.
Flags OneFlag(const char* arg) {
  const char* argv[] = {"prog", arg};
  return Flags::Parse(2, const_cast<char**>(argv));
}

TEST(FlagsTest, AcceptsWellFormedValues) {
  EXPECT_EQ(OneFlag("--n=-5").GetInt("n", 0), -5);
  EXPECT_EQ(OneFlag("--n=+7").GetInt("n", 0), 7);
  EXPECT_DOUBLE_EQ(OneFlag("--x=1e-3").GetDouble("x", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(OneFlag("--x=-5").GetDouble("x", 0.0), -5.0);
  EXPECT_TRUE(OneFlag("--b=yes").GetBool("b", false));
  EXPECT_TRUE(OneFlag("--b=1").GetBool("b", false));
  EXPECT_FALSE(OneFlag("--b=no").GetBool("b", true));
  EXPECT_FALSE(OneFlag("--b=0").GetBool("b", true));
  EXPECT_FALSE(OneFlag("--b=false").GetBool("b", true));
}

TEST(FlagsDeathTest, MalformedValuesExitTwoNamingTheFlag) {
  const auto exits = testing::ExitedWithCode(2);
  EXPECT_EXIT(OneFlag("--n=abc").GetInt("n", 0), exits,
              "prog: invalid value 'abc' for --n: want an integer");
  EXPECT_EXIT(OneFlag("--n=12x").GetInt("n", 0), exits, "'12x' for --n");
  EXPECT_EXIT(OneFlag("--n=").GetInt("n", 0), exits, "'' for --n");
  EXPECT_EXIT(OneFlag("--n= 4").GetInt("n", 0), exits, "' 4' for --n");
  EXPECT_EXIT(OneFlag("--n=99999999999999999999").GetInt("n", 0), exits,
              "for --n: want an integer");
  EXPECT_EXIT(OneFlag("--x=0.5.1").GetDouble("x", 0.0), exits,
              "'0.5.1' for --x: want a finite number");
  EXPECT_EXIT(OneFlag("--x=inf").GetDouble("x", 0.0), exits, "'inf' for --x");
  EXPECT_EXIT(OneFlag("--x=1e999").GetDouble("x", 0.0), exits,
              "'1e999' for --x");
  EXPECT_EXIT(OneFlag("--x=").GetDouble("x", 0.0), exits, "'' for --x");
  EXPECT_EXIT(OneFlag("--b=ture").GetBool("b", false), exits,
              "'ture' for --b: want true\\|false");
}

TEST(FlagsDeathTest, MalformedEnvironmentValueNamesTheVariable) {
  setenv("RELMAX_BAD_ENV", "7up", 1);
  const char* argv[] = {"prog"};
  Flags flags = Flags::Parse(1, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("bad-env", 0), testing::ExitedWithCode(2),
              "'7up' for --bad-env \\(from RELMAX_BAD_ENV\\)");
  unsetenv("RELMAX_BAD_ENV");
}

// ---------------------------------------------------------------- Timer/mem

TEST(TimerTest, ElapsedIsMonotonic) {
  WallTimer timer;
  const double t1 = timer.ElapsedSeconds();
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

TEST(MemoryTest, RssIsPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
  EXPECT_NEAR(BytesToGiB(1ull << 30), 1.0, 1e-12);
}

}  // namespace
}  // namespace relmax
