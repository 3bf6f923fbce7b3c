#include "util/string_util.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace simrankpp {

std::vector<std::string> SplitString(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
           c == '\v';
  };
  while (begin < end && is_space(input[begin])) ++begin;
  while (end > begin && is_space(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ParseSize(const std::string& value, size_t* out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(parsed);
  return true;
}

bool ParseDouble(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap_copy);
  }
  va_end(ap_copy);
  return out;
}

std::string FormatDouble(double value, int decimals) {
  return StringPrintf("%.*f", decimals, value);
}

std::string FormatWithCommas(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (size_t i = digits.size(); i > 0; --i) {
    out.push_back(digits[i - 1]);
    if (++count == 3 && i != 1) {
      out.push_back(',');
      count = 0;
    }
  }
  std::string reversed(out.rbegin(), out.rend());
  return reversed;
}

}  // namespace simrankpp
