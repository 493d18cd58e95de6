// The command-line flag table (src/util/flags.h): every value kind parses
// its whole text or throws naming the flag; switches, aliases, unknown
// flags and duplicate registrations behave as documented.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/flags.h"

namespace unilocal {
namespace {

/// Parses "--x=<text>" through a one-row table of `kind` into `target`.
template <class T>
void parse_one(FlagKind kind, T* target, const std::string& text) {
  FlagTable table;
  table.add({"--x", kind, target});
  table.parse({"--x=" + text});
}

/// Every text in `bad` must throw a std::runtime_error naming the flag and
/// quoting the text; every (text, value) in `good` must parse to value.
template <class T>
void check_kind(FlagKind kind, std::initializer_list<const char*> bad,
                std::initializer_list<std::pair<const char*, T>> good) {
  for (const char* text : bad) {
    T value{};
    try {
      parse_one(kind, &value, text);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("--x: expected"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + std::string(text) + "'"),
                std::string::npos)
          << message;
    }
  }
  for (const auto& [text, expected] : good) {
    T value{};
    parse_one(kind, &value, text);
    EXPECT_EQ(value, expected) << text;
  }
}

TEST(FlagKinds, CountRejectsGarbageSignOverflowAndEmpty) {
  check_kind<int>(FlagKind::kCount,
                  {"2x", " 2", "+2", "0", "-3", "2147483648", "", "1.5"},
                  {{"1", 1}, {"2147483647", 2147483647}});
}

TEST(FlagKinds, NonNegativeRejectsGarbageSignOverflowAndEmpty) {
  check_kind<std::int64_t>(
      FlagKind::kNonNegative,
      {"5x", "-1", "9223372036854775808", "", "abc"},
      {{"0", 0}, {"9223372036854775807", INT64_MAX}});
}

TEST(FlagKinds, U64RejectsGarbageSignOverflowAndEmpty) {
  check_kind<std::uint64_t>(
      FlagKind::kU64, {"7x", "-1", "18446744073709551616", "", "+7"},
      {{"0", 0u}, {"18446744073709551615", UINT64_MAX}});
}

TEST(FlagKinds, DoubleRejectsGarbageOverflowNonFiniteAndEmpty) {
  check_kind<double>(FlagKind::kDouble,
                     {"0.5x", "abc", "1e999", "nan", "inf", "", " 1"},
                     {{"0.5", 0.5}, {"-2.25", -2.25}, {"3", 3.0}});
}

TEST(FlagKinds, ProbabilityRejectsGarbageSignRangeAndEmpty) {
  check_kind<double>(FlagKind::kProbability,
                     {"0.5x", "-0.1", "1.5", "1e999", "nan", ""},
                     {{"0", 0.0}, {"0.25", 0.25}, {"1", 1.0}});
}

TEST(FlagKinds, TicksRejectGarbageSignOverflowAndEmpty) {
  check_kind<std::int64_t>(
      FlagKind::kTicks, {"12x", "0", "-3", "7.5", "9223372036854775808", ""},
      {{"1", 1}, {"12", 12}});
}

TEST(FlagKinds, StringTakesAnyTextAndSwitchTakesNone) {
  std::string text = "default";
  bool on = false;
  FlagTable table;
  table.add({"--name", FlagKind::kString, &text});
  table.add({"--on", FlagKind::kSwitch, &on});
  EXPECT_TRUE(table.parse({"--name=a=b,c", "--on"}).empty());
  EXPECT_EQ(text, "a=b,c");
  EXPECT_TRUE(on);
  table.parse({"--name="});
  EXPECT_EQ(text, "");
  EXPECT_THROW(table.parse({"--on=1"}), UnknownFlagError);
  EXPECT_THROW(table.parse({"--name"}), UnknownFlagError);
}

TEST(FlagTable, AliasesResolveToTheirRow) {
  std::string algorithms;
  FlagTable table;
  table.add({"--algorithms", FlagKind::kString, &algorithms, "--algos"});
  EXPECT_FALSE(table.given("--algorithms"));
  table.parse({"--algos=luby-mis"});
  EXPECT_EQ(algorithms, "luby-mis");
  EXPECT_TRUE(table.given("--algorithms"));
  EXPECT_TRUE(table.given("--algos"));
  table.parse({"--algorithms=all"});
  EXPECT_EQ(algorithms, "all");
}

TEST(FlagTable, UnknownFlagIsReportedAsUnknown) {
  int workers = 1;
  FlagTable table;
  table.add({"--workers", FlagKind::kCount, &workers});
  try {
    table.parse({"--wrokers=2"});
    FAIL() << "expected UnknownFlagError";
  } catch (const UnknownFlagError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag --wrokers"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(workers, 1);
}

TEST(FlagTable, PositionalArgumentsComeBackInOrderAndLastValueWins) {
  int seeds = 2;
  FlagTable table;
  table.add({"--seeds", FlagKind::kCount, &seeds});
  const std::vector<std::string> positional =
      table.parse({"plan.json", "--seeds=3", "-", "r.json", "--seeds=5"});
  EXPECT_EQ(positional,
            (std::vector<std::string>{"plan.json", "-", "r.json"}));
  EXPECT_EQ(seeds, 5);
}

TEST(FlagTable, DuplicateRowsThrow) {
  int a = 0;
  int b = 0;
  std::string text;
  FlagTable table;
  table.add({"--n", FlagKind::kCount, &a});
  EXPECT_THROW(table.add({"--n", FlagKind::kCount, &b}), std::logic_error);
  table.add({"--algorithms", FlagKind::kString, &text, "--algos"});
  EXPECT_THROW(table.add({"--algos", FlagKind::kString, &text}),
               std::logic_error);
  EXPECT_THROW(table.add({"--x", FlagKind::kString, &text, "--n"}),
               std::logic_error);
}

TEST(FlagTable, TargetMustFitTheKind) {
  int count = 0;
  double value = 0.0;
  FlagTable table;
  EXPECT_THROW(table.add({"--n", FlagKind::kDouble, &count}),
               std::logic_error);
  EXPECT_THROW(table.add({"--p", FlagKind::kCount, &value}), std::logic_error);
  EXPECT_THROW(table.add({"--q", FlagKind::kString,
                          static_cast<std::string*>(nullptr)}),
               std::logic_error);
}

TEST(FlagTable, GroupSubsetsAddOnlyTheNamedRows) {
  int n = 0;
  int seeds = 0;
  bool smoke = false;
  const std::vector<Flag> group = {{"--n", FlagKind::kCount, &n},
                                   {"--seeds", FlagKind::kCount, &seeds},
                                   {"--smoke", FlagKind::kSwitch, &smoke}};
  FlagTable table;
  table.add(group, {"--n", "--smoke"});
  table.parse({"--n=4", "--smoke"});
  EXPECT_EQ(n, 4);
  EXPECT_TRUE(smoke);
  EXPECT_THROW(table.parse({"--seeds=2"}), UnknownFlagError);
  EXPECT_THROW(FlagTable().add(group, {"--typo"}), std::logic_error);
}

}  // namespace
}  // namespace unilocal
