#include "common/args.hpp"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace anadex {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EmptyCommandLine) {
  const auto args = parse({});
  EXPECT_TRUE(args.positionals().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(Args, PositionalsInOrder) {
  const auto args = parse({"explore", "extra"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "explore");
  EXPECT_EQ(args.positionals()[1], "extra");
}

TEST(Args, OptionWithValue) {
  const auto args = parse({"--algo", "sacga"});
  EXPECT_TRUE(args.has("algo"));
  EXPECT_EQ(args.get("algo", "x"), "sacga");
}

TEST(Args, MissingOptionFallsBack) {
  const auto args = parse({});
  EXPECT_EQ(args.get("algo", "default"), "default");
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(Args, IntegerParsing) {
  const auto args = parse({"--n", "123", "--neg", "-7"});
  EXPECT_EQ(args.get_int("n", 0), 123);
  EXPECT_EQ(args.get_int("neg", 0), -7);
}

TEST(Args, IntegerRejectsGarbage) {
  const auto args = parse({"--n", "12x"});
  EXPECT_THROW(args.get_int("n", 0), PreconditionError);
}

TEST(Args, IntegerRejectsOverflow) {
  const auto args = parse({"--n", "9223372036854775808"});
  EXPECT_THROW(args.get_int("n", 0), PreconditionError);
}

TEST(Args, CountParsing) {
  const auto args = parse({"--n", "123", "--zero", "0", "--max", "18446744073709551615"});
  EXPECT_EQ(args.get_count("n", 0), 123u);
  EXPECT_EQ(args.get_count("zero", 7), 0u);
  EXPECT_EQ(args.get_count("max", 0), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(args.get_count("missing", 42), 42u);
}

TEST(Args, CountRejectsSignsJunkAndOverflowNamingTheOption) {
  for (const char* value : {"-5", "+5", "3abc", " 3", "3 ", "0x10", "1e3", "",
                            "18446744073709551616", "99999999999999999999999"}) {
    const auto args = parse({"--generations", value});
    try {
      (void)args.get_count("generations", 0);
      ADD_FAILURE() << "accepted '" << value << "'";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("--generations"), std::string::npos)
          << value << ": " << e.what();
    }
  }
}

TEST(Args, DoubleParsing) {
  const auto args = parse({"--x", "2.5e-3"});
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5e-3);
}

TEST(Args, DoubleRejectsGarbage) {
  const auto args = parse({"--x", "abc"});
  EXPECT_THROW(args.get_double("x", 0.0), PreconditionError);
}

TEST(Args, BareFlagDetected) {
  const auto args = parse({"--verbose", "--n", "3"});
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
}

TEST(Args, FlagWithValueRejectedByGetFlag) {
  const auto args = parse({"--verbose", "yes"});
  EXPECT_THROW(args.get_flag("verbose"), PreconditionError);
}

TEST(Args, ValueGetterRejectsBareFlag) {
  const auto args = parse({"--csv"});
  EXPECT_THROW(args.get("csv", ""), PreconditionError);
}

TEST(Args, FlagFollowedByOptionParsesAsFlag) {
  const auto args = parse({"--history", "--seed", "9"});
  EXPECT_TRUE(args.get_flag("history"));
  EXPECT_EQ(args.get_int("seed", 0), 9);
}

TEST(Args, DuplicateOptionRejected) {
  std::vector<const char*> argv{"prog", "--n", "1", "--n", "2"};
  EXPECT_THROW(ArgParser(static_cast<int>(argv.size()), argv.data()), PreconditionError);
}

TEST(Args, EmptyOptionNameRejected) {
  std::vector<const char*> argv{"prog", "--"};
  EXPECT_THROW(ArgParser(static_cast<int>(argv.size()), argv.data()), PreconditionError);
}

TEST(Args, UnusedOptionsReported) {
  const auto args = parse({"--used", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, NegativeNumberIsValueNotOption) {
  const auto args = parse({"--delta", "-3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), -3.5);
}

}  // namespace
}  // namespace anadex
