#ifndef TXMOD_COMMON_STR_UTIL_H_
#define TXMOD_COMMON_STR_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace txmod {

/// Joins the elements of `parts` with `sep`, e.g. Join({"a","b"}, ", ").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Concatenates the streamed representation of all arguments.
/// Usage: StrCat("relation ", name, " has ", n, " tuples").
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// True when `text` begins with `prefix`.
inline bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// True when `s` consists only of ASCII letters, digits, and underscores and
/// starts with a letter or underscore (a valid identifier).
bool IsIdentifier(const std::string& s);

/// Lowercases ASCII characters of `s`.
std::string AsciiToLower(const std::string& s);

}  // namespace txmod

#endif  // TXMOD_COMMON_STR_UTIL_H_
