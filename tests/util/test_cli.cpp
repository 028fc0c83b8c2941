#include <gtest/gtest.h>

#include <array>
#include <string>

#include "util/assertx.hpp"
#include "util/cli.hpp"

namespace cscv::util {
namespace {

CliFlags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  auto f = make_flags({"--size=128", "--tol=0.5"});
  EXPECT_EQ(f.get_int("size", 0), 128);
  EXPECT_DOUBLE_EQ(f.get_double("tol", 0.0), 0.5);
  f.finish();
}

TEST(Cli, SpaceSyntax) {
  auto f = make_flags({"--size", "64"});
  EXPECT_EQ(f.get_int("size", 0), 64);
  f.finish();
}

TEST(Cli, BareBooleanFlag) {
  auto f = make_flags({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("quiet"));
  f.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  auto f = make_flags({});
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_EQ(f.get_string("name", "dflt"), "dflt");
  f.finish();
}

TEST(Cli, IntList) {
  auto f = make_flags({"--sizes=4,8,16"});
  EXPECT_EQ(f.get_int_list("sizes", {}), (std::vector<int>{4, 8, 16}));
  f.finish();
}

TEST(Cli, PositionalArgsCollected) {
  auto f = make_flags({"input.mtx", "--n=3", "output.mtx"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.mtx");
  EXPECT_EQ(f.positional()[1], "output.mtx");
  EXPECT_EQ(f.get_int("n", 0), 3);
  f.finish();
}

// A value is read whole: garbage, a numeric prefix with a tail, and a
// number outside the type's range are errors that name the flag.
TEST(Cli, MalformedNumbersNameTheFlag) {
  auto f = make_flags({"--image=abc", "--views=12abc", "--big=99999999999", "--tol=0.5x",
                       "--huge=1e999", "--sizes=4,x,16", "--empty="});
  const auto message = [](auto&& read) {
    try {
      read();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message([&] { f.get_int("image", 0); }).find("--image"), std::string::npos);
  EXPECT_NE(message([&] { f.get_int("views", 0); }).find("--views"), std::string::npos);
  EXPECT_NE(message([&] { f.get_int("big", 0); }).find("out of range"), std::string::npos);
  EXPECT_NE(message([&] { f.get_double("tol", 0.0); }).find("--tol"), std::string::npos);
  EXPECT_NE(message([&] { f.get_double("huge", 0.0); }).find("out of range"),
            std::string::npos);
  EXPECT_NE(message([&] { f.get_int_list("sizes", {}); }).find("--sizes"), std::string::npos);
  EXPECT_NE(message([&] { f.get_double("empty", 0.0); }).find("needs a value"),
            std::string::npos);
}

TEST(Cli, NegativeAndExponentNumbers) {
  auto f = make_flags({"--offset=-3", "--tol=1e-6"});
  EXPECT_EQ(f.get_int("offset", 0), -3);
  EXPECT_DOUBLE_EQ(f.get_double("tol", 0.0), 1e-6);
  f.finish();
}

TEST(Cli, UnknownFlagRejectedAtFinish) {
  auto f = make_flags({"--typo=1"});
  EXPECT_THROW(f.finish(), CheckError);
}

}  // namespace
}  // namespace cscv::util
