#include "util/table.hpp"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fne {
namespace {

TEST(Table, BuildsAndPrints) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("beta").cell(std::size_t{42});
  EXPECT_EQ(t.num_rows(), 2U);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("| name"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a", "b"});
  t.row().cell("x,y").cell("quote\"inside");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("one");
  EXPECT_THROW(t.cell("two"), PreconditionError);
}

TEST(Table, RejectsCellBeforeRow) {
  Table t({"h"});
  EXPECT_THROW(t.cell("x"), PreconditionError);
}

TEST(FormatPm, ContainsBothParts) {
  const std::string s = format_pm(1.2345, 0.01);
  EXPECT_NE(s.find("1.234"), std::string::npos);
  EXPECT_NE(s.find("±"), std::string::npos);
}

TEST(FormatFixed, KeepsDecimalsAndNeverGoesScientific) {
  EXPECT_EQ(format_fixed(20.34, 1), "20.3");
  EXPECT_EQ(format_fixed(28.9346, 1), "28.9");
  EXPECT_EQ(format_fixed(1234.56, 1), "1234.6");
  EXPECT_EQ(format_fixed(0.04, 1), "0.0");
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--p=0.25", "--verbose", "positional"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.25);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("verbose", ""), "1");
  EXPECT_FALSE(cli.has("positional"));
  EXPECT_EQ(cli.get("missing", "fallback"), "fallback");
}

TEST(Cli, NumericFlagsMustParseWhole) {
  const char* argv[] = {"prog",    "--threads=2x", "--churn-steps=abc", "--empty=",
                        "--p=0.5q", "--ok=-7",     "--x=2.5e-1",
                        "--huge=99999999999999999999"};
  Cli cli(8, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("threads", 1), PreconditionError);
  EXPECT_THROW((void)cli.get_threads(), PreconditionError);
  EXPECT_THROW((void)cli.get_int("churn-steps", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_int("empty", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_double("empty", 0.0), PreconditionError);
  EXPECT_THROW((void)cli.get_double("p", 0.0), PreconditionError);
  EXPECT_THROW((void)cli.get_int("x", 0), PreconditionError) << "a double is not an integer";
  EXPECT_THROW((void)cli.get_int("huge", 0), PreconditionError);
  EXPECT_EQ(cli.get_int("ok", 0), -7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("ok", 0.0), -7.0);
}

TEST(Cli, SeedHelper) {
  const char* argv[] = {"prog", "--seed=99"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_seed(42), 99U);
  Cli empty(1, const_cast<char**>(argv));
  EXPECT_EQ(empty.get_seed(42), 42U);
  // Range [0, INT64_MAX]: a negative seed once ran as 2^64 - 1.
  const char* bounds[] = {"prog", "--seed=9223372036854775807"};
  EXPECT_EQ(Cli(2, const_cast<char**>(bounds)).get_seed(), 9223372036854775807ULL);
  const char* negative[] = {"prog", "--seed=-1"};
  try {
    (void)Cli(2, const_cast<char**>(negative)).get_seed();
    ADD_FAILURE() << "--seed=-1 must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--seed=-1 out of range"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, RequireOnlyNamesTheFirstFlagAModeDoesNotRead) {
  const char* argv[] = {"prog", "--campaign=x.json", "--threads=2", "--retry-budget=0"};
  const Cli cli(4, const_cast<char**>(argv));
  EXPECT_NO_THROW(cli.require_only("--campaign", {"campaign", "threads", "retry-budget"}));
  try {
    cli.require_only("--campaign", {"campaign", "threads"});
    ADD_FAILURE() << "--retry-budget must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--retry-budget does not apply to --campaign"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, MainReportsABadFlagAndExitsOne) {
  const char* argv[] = {"prog", "--side=4294967297"};
  const auto body = [](const Cli& cli) {
    return static_cast<int>(cli.get_int_in_range<unsigned>("side", 24, 2, 4096));
  };
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(cli_main(2, const_cast<char**>(argv), body), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--side=4294967297 out of range [2, 4096]"), std::string::npos) << err;
  EXPECT_EQ(cli_main(1, const_cast<char**>(argv), body), 24) << "the body's status passes through";
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.millis(), 0.0);
}

}  // namespace
}  // namespace fne
