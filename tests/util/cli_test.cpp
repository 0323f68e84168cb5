#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/time.hpp"

namespace fgcs {
namespace {

ArgParser parse(std::initializer_list<const char*> argv,
                std::set<std::string> flags = {}) {
  std::vector<const char*> args(argv);
  return ArgParser(static_cast<int>(args.size()), args.data(), std::move(flags));
}

TEST(ArgParserTest, SpaceAndEqualsForms) {
  const ArgParser args = parse({"prog", "--name", "alpha", "--count=3"});
  EXPECT_EQ(args.get("name"), "alpha");
  EXPECT_EQ(args.get_int("count"), 3);
}

TEST(ArgParserTest, FlagsTakeNoValue) {
  const ArgParser args =
      parse({"prog", "--verbose", "--out", "x"}, {"verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.get("out"), "x");
}

TEST(ArgParserTest, PositionalArguments) {
  const ArgParser args = parse({"prog", "first", "--k", "v", "second"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"first", "second"}));
}

TEST(ArgParserTest, DefaultsAndMissing) {
  const ArgParser args = parse({"prog"});
  EXPECT_EQ(args.get_or("name", "fallback"), "fallback");
  EXPECT_EQ(args.get_int_or("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double_or("x", 1.5), 1.5);
  EXPECT_THROW(args.get("name"), PreconditionError);
}

TEST(ArgParserTest, NumericValidation) {
  const ArgParser args = parse({"prog", "--n", "12x", "--x", "3.5"});
  EXPECT_THROW(args.get_int("n"), PreconditionError);
  EXPECT_DOUBLE_EQ(args.get_double("x"), 3.5);
}

TEST(ArgParserTest, DoublesMustBeFinite) {
  const ArgParser args = parse({"prog", "--rate", "nan", "--timeout", "inf",
                                "--big", "1e999", "--neg", "-inf"});
  EXPECT_THROW(args.get_double("rate"), PreconditionError);
  EXPECT_THROW(args.get_double_or("timeout", 30.0), PreconditionError);
  EXPECT_THROW(args.get_double("big"), PreconditionError);
  EXPECT_THROW(args.get_double_or("neg", 1.0), PreconditionError);
  try {
    args.get_double("rate");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("--rate"), std::string::npos);
  }
}

TEST(ArgParserTest, BoundedReadsRejectNegativeAndOverRangeValues) {
  const ArgParser args = parse(
      {"prog", "--reactors", "-1", "--port", "70000", "--ops", "-5"});
  // Unbounded, these narrow silently: 4294967295 reactors, port 4464.
  EXPECT_THROW(args.get_int_or("reactors", 1, 1, 256), PreconditionError);
  EXPECT_THROW(args.get_int_or("port", 0, 0, 65535), PreconditionError);
  EXPECT_THROW(args.get_int("port", 1, 65535), PreconditionError);
  EXPECT_THROW(args.get_int_or("ops", 10, 0, 1000), PreconditionError);
  // strtoll saturates on overflow; that must not pass as INT64_MAX.
  const ArgParser huge = parse({"prog", "--seed", "99999999999999999999"});
  EXPECT_THROW(huge.get_int_or("seed", 1), PreconditionError);
  try {
    args.get_int_or("port", 0, 0, 65535);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("--port"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("70000"), std::string::npos);
  }
}

TEST(ArgParserTest, BoundedReadsAcceptBoundariesAndFallbacks) {
  const ArgParser args = parse({"prog", "--lo", "0", "--hi", "65535",
                                "--one", "1", "--max", "256"});
  EXPECT_EQ(args.get_int_or("lo", 7, 0, 65535), 0);
  EXPECT_EQ(args.get_int_or("hi", 7, 0, 65535), 65535);
  EXPECT_EQ(args.get_int("one", 1, 256), 1);
  EXPECT_EQ(args.get_int_or("max", 1, 1, 256), 256);
  EXPECT_EQ(args.get_int_or("absent", 7, 0, 65535), 7);
  EXPECT_THROW(args.get_int("missing", 0, 1), PreconditionError);
  EXPECT_NO_THROW(args.check_all_consumed());
}

TEST(ArgParserTest, ValueOptionAtEndWithoutValueThrows) {
  std::vector<const char*> argv{"prog", "--dangling"};
  EXPECT_THROW(ArgParser(2, argv.data()), PreconditionError);
}

TEST(ArgParserTest, UnknownOptionDetection) {
  const ArgParser args = parse({"prog", "--known", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("known"), 1);
  EXPECT_THROW(args.check_all_consumed(), PreconditionError);
}

TEST(ArgParserTest, AllConsumedPasses) {
  const ArgParser args = parse({"prog", "--a", "1"}, {});
  EXPECT_EQ(args.get_int("a"), 1);
  EXPECT_NO_THROW(args.check_all_consumed());
}

TEST(ArgParserTest, InputErrorsCarryOnlyTheUserMessage) {
  // Tools print what() as is: a bad value must read as advice to the user,
  // not as a source location and the failed C++ expression.
  const ArgParser args = parse({"prog", "--rate", "abc"}, {});
  try {
    args.get_double("rate");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what, "option --rate expects a finite number, got 'abc'");
    EXPECT_EQ(what.find("cli.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find("precondition failed"), std::string::npos) << what;
  }
}

TEST(ParseTimeOfDayTest, Formats) {
  EXPECT_EQ(parse_time_of_day("08:30"), 8 * kSecondsPerHour + 1800);
  EXPECT_EQ(parse_time_of_day("23:59:59"), kSecondsPerDay - 1);
  EXPECT_EQ(parse_time_of_day("00:00"), 0);
}

TEST(ParseTimeOfDayTest, RejectsBadInput) {
  EXPECT_THROW(parse_time_of_day("24:00"), PreconditionError);
  EXPECT_THROW(parse_time_of_day("12:60"), PreconditionError);
  EXPECT_THROW(parse_time_of_day("noon"), PreconditionError);
  EXPECT_THROW(parse_time_of_day("7"), PreconditionError);
}

TEST(ParseTimeOfDayTest, RejectsTrailingText) {
  EXPECT_THROW(parse_time_of_day("09:30junk"), PreconditionError);
  EXPECT_THROW(parse_time_of_day("09:30:15x"), PreconditionError);
  EXPECT_THROW(parse_time_of_day("09:30:"), PreconditionError);
  EXPECT_THROW(parse_time_of_day("09:30 "), PreconditionError);
  EXPECT_EQ(parse_time_of_day("09:30:15"), 9 * kSecondsPerHour + 1815);
}

TEST(ParseEndpointTest, SplitsHostAndPort) {
  const Endpoint local = parse_endpoint("127.0.0.1:7070");
  EXPECT_EQ(local.host, "127.0.0.1");
  EXPECT_EQ(local.port, 7070);
  EXPECT_EQ(parse_endpoint("node-a:1").port, 1);
  EXPECT_EQ(parse_endpoint("h:65535").port, 65535);
  // The last ':' splits, so an IPv6-style host keeps its colons.
  EXPECT_EQ(parse_endpoint("::1:9000").host, "::1");
}

TEST(ParseEndpointTest, RejectsMalformedAndOutOfRangePorts) {
  for (const char* text : {"127.0.0.1:70000", "h:7070x", "h:abc", "h:0",
                           "h:", ":7070", "7070", "h:-1", "h:+80", "h: 80",
                           "h:0000080", ""}) {
    EXPECT_THROW(parse_endpoint(text), PreconditionError) << text;
  }
  try {
    parse_endpoint("127.0.0.1:70000");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("127.0.0.1:70000"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace fgcs
