// Command-line flag tables. Each flag a program accepts is one row: its
// name (plus an optional alias), the kind of value it takes, and the
// variable the parsed value lands in. Parsing, range checks and error
// messages live here once, so every program and every verb reports a bad
// value the same way: "<flag>: expected <what>, got '<text>'".
//
// Spelling: "--name=value" for value kinds, bare "--name" for switches.
// Every numeric value must parse in full — no trailing text, no sign the
// kind forbids, no overflow, no empty value.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace unilocal {

enum class FlagKind {
  kSwitch,       // "--name", no value: sets a bool to true
  kString,       // any text, empty included
  kCount,        // int in [1, INT_MAX]
  kNonNegative,  // int64 in [0, INT64_MAX]
  kU64,          // uint64 in [0, UINT64_MAX]
  kDouble,       // a finite double
  kProbability,  // a double in [0, 1]
  kTicks,        // int64 in [1, INT64_MAX]
};

/// Where a row's value lands; the pointer type must fit the kind (bool for
/// switches, std::string, int for counts, int64 for non-negative integers
/// and ticks, uint64, double for doubles and probabilities).
using FlagTarget = std::variant<bool*, std::string*, int*, std::int64_t*,
                                std::uint64_t*, double*>;

struct Flag {
  std::string name;  // "--workers"
  FlagKind kind = FlagKind::kSwitch;
  FlagTarget target;
  std::string alias = {};  // a second spelling ("--algos"), or empty
};

/// An argument no row accepts: an unknown flag, a switch given a value, or
/// a value flag given none. Programs answer it with their usage text.
class UnknownFlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FlagTable {
 public:
  /// Registers one row. Throws std::logic_error when its name or alias is
  /// already taken, or its target is null or does not fit its kind.
  void add(Flag flag);
  /// Registers the rows of `group` named in `names` — every row when
  /// `names` is empty. Throws std::logic_error for a name the group lacks.
  void add(const std::vector<Flag>& group,
           std::initializer_list<std::string_view> names = {});

  /// Parses `args` in order and returns the arguments that do not start
  /// with "--" (positional), in order. Throws UnknownFlagError for an
  /// argument no row accepts and std::runtime_error naming the flag for a
  /// malformed value. A flag given twice keeps its last value.
  std::vector<std::string> parse(const std::vector<std::string>& args);

  /// Whether the flag (by name or alias) appeared in the parsed arguments.
  bool given(std::string_view name) const;

 private:
  /// Index of the row spelled `spelling`, or -1.
  int find(std::string_view spelling) const;

  std::vector<Flag> rows_;
  std::vector<bool> given_;
};

/// The probability and tick parsers behind kProbability and kTicks:
/// [0, 1] and integers >= 1. Throw std::runtime_error naming `flag`.
double parse_unit_interval(std::string_view flag, const std::string& text);
std::int64_t parse_positive_ticks(std::string_view flag,
                                  const std::string& text);

}  // namespace unilocal
