// Small string helpers shared across modules (no locale dependence; all
// text handling is byte-oriented ASCII, which is what the synthetic query
// vocabulary produces).
#ifndef SIMRANKPP_UTIL_STRING_UTIL_H_
#define SIMRANKPP_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace simrankpp {

/// \brief Splits on a single character; empty fields are kept.
std::vector<std::string> SplitString(std::string_view input, char sep);

/// \brief Joins with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// \brief ASCII lowercase copy.
std::string ToLowerAscii(std::string_view input);

/// \brief Removes leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view input);

/// \brief True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief True when `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// \brief Strict decimal parse of a size: the whole of `value` must be
/// ASCII digits that fit a size_t. Unlike strtoull, "-1", "", "12x" and
/// out-of-range values are rejected instead of wrapped or truncated.
bool ParseSize(const std::string& value, size_t* out);

/// \brief Strict floating-point parse: the whole of `value` must consume
/// ("", "abc" and "1.5s" are rejected instead of reading as 0 or 1.5).
bool ParseDouble(const std::string& value, double* out);

/// \brief printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief Formats a double with fixed decimals, trimming to a compact form
/// ("0.619" not "0.619000").
std::string FormatDouble(double value, int decimals);

/// \brief Formats an integer with thousands separators ("1,280,920").
std::string FormatWithCommas(uint64_t value);

}  // namespace simrankpp

#endif  // SIMRANKPP_UTIL_STRING_UTIL_H_
