#include "src/util/flags.h"

#include <charconv>
#include <cmath>
#include <utility>

namespace unilocal {

namespace {

[[noreturn]] void bad_value(std::string_view flag, const char* expected,
                            const std::string& text) {
  throw std::runtime_error(std::string(flag) + ": expected " + expected +
                           ", got '" + text + "'");
}

/// The whole text as a T >= min; from_chars rejects an empty value, a
/// leading '+' or space, a '-' on unsigned types and overflow.
template <class T>
T parse_integer(std::string_view flag, const std::string& text, T min,
                const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [rest, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || rest != end || std::cmp_less(value, min))
    bad_value(flag, expected, text);
  return value;
}

double parse_finite(std::string_view flag, const std::string& text,
                    const char* expected) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [rest, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || rest != end || !std::isfinite(value))
    bad_value(flag, expected, text);
  return value;
}

/// The variant index FlagTarget must hold for each kind.
std::size_t target_index(FlagKind kind) {
  switch (kind) {
    case FlagKind::kSwitch: return 0;
    case FlagKind::kString: return 1;
    case FlagKind::kCount: return 2;
    case FlagKind::kNonNegative:
    case FlagKind::kTicks: return 3;
    case FlagKind::kU64: return 4;
    case FlagKind::kDouble:
    case FlagKind::kProbability: return 5;
  }
  return std::variant_npos;
}

void assign(const Flag& flag, std::string_view spelling,
            const std::string& text) {
  switch (flag.kind) {
    case FlagKind::kSwitch:
      *std::get<bool*>(flag.target) = true;
      return;
    case FlagKind::kString:
      *std::get<std::string*>(flag.target) = text;
      return;
    case FlagKind::kCount:
      *std::get<int*>(flag.target) =
          parse_integer(spelling, text, 1, "a positive integer");
      return;
    case FlagKind::kNonNegative:
      *std::get<std::int64_t*>(flag.target) = parse_integer<std::int64_t>(
          spelling, text, 0, "a non-negative integer");
      return;
    case FlagKind::kU64:
      *std::get<std::uint64_t*>(flag.target) = parse_integer<std::uint64_t>(
          spelling, text, 0, "an unsigned 64-bit integer");
      return;
    case FlagKind::kDouble:
      *std::get<double*>(flag.target) =
          parse_finite(spelling, text, "a finite number");
      return;
    case FlagKind::kProbability:
      *std::get<double*>(flag.target) = parse_unit_interval(spelling, text);
      return;
    case FlagKind::kTicks:
      *std::get<std::int64_t*>(flag.target) =
          parse_positive_ticks(spelling, text);
      return;
  }
}

}  // namespace

double parse_unit_interval(std::string_view flag, const std::string& text) {
  const double value = parse_finite(flag, text, "a probability in [0, 1]");
  if (!(value >= 0.0 && value <= 1.0))
    bad_value(flag, "a probability in [0, 1]", text);
  return value;
}

std::int64_t parse_positive_ticks(std::string_view flag,
                                  const std::string& text) {
  return parse_integer<std::int64_t>(flag, text, 1, "an integer >= 1");
}

void FlagTable::add(Flag flag) {
  const bool null_target =
      std::visit([](auto* target) { return target == nullptr; }, flag.target);
  if (null_target || flag.target.index() != target_index(flag.kind))
    throw std::logic_error("flag " + flag.name +
                           ": target does not fit its kind");
  for (const std::string* spelling : {&flag.name, &flag.alias})
    if (!spelling->empty() && find(*spelling) >= 0)
      throw std::logic_error("flag " + *spelling + " registered twice");
  if (flag.name == flag.alias)
    throw std::logic_error("flag " + flag.name + " registered twice");
  rows_.push_back(std::move(flag));
  given_.push_back(false);
}

void FlagTable::add(const std::vector<Flag>& group,
                    std::initializer_list<std::string_view> names) {
  if (names.size() == 0) {
    for (const Flag& flag : group) add(flag);
    return;
  }
  for (const std::string_view name : names) {
    const Flag* match = nullptr;
    for (const Flag& flag : group)
      if (flag.name == name) match = &flag;
    if (match == nullptr)
      throw std::logic_error("flag group has no row " + std::string(name));
    add(*match);
  }
}

std::vector<std::string> FlagTable::parse(
    const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(arg);
      continue;
    }
    const std::size_t equals = arg.find('=');
    const std::string spelling = arg.substr(0, equals);
    const int index = find(spelling);
    if (index < 0) throw UnknownFlagError("unknown flag " + spelling);
    const Flag& flag = rows_[static_cast<std::size_t>(index)];
    const bool has_value = equals != std::string::npos;
    if (has_value == (flag.kind == FlagKind::kSwitch))
      throw UnknownFlagError(has_value ? spelling + " takes no value"
                                       : spelling + " needs " + spelling +
                                             "=<value>");
    assign(flag, spelling, has_value ? arg.substr(equals + 1) : "");
    given_[static_cast<std::size_t>(index)] = true;
  }
  return positional;
}

bool FlagTable::given(std::string_view name) const {
  const int index = find(name);
  return index >= 0 && given_[static_cast<std::size_t>(index)];
}

int FlagTable::find(std::string_view spelling) const {
  for (std::size_t i = 0; i < rows_.size(); ++i)
    if (rows_[i].name == spelling ||
        (!rows_[i].alias.empty() && rows_[i].alias == spelling))
      return static_cast<int>(i);
  return -1;
}

}  // namespace unilocal
