// Strict whole-string number parsing for command-line flags and small
// text inputs. Each parser accepts the entire string or nothing: no
// leading whitespace or sign games, no trailing garbage, no silent
// truncation of fractions, no wrap-around, no NaN or infinity. Callers
// turn a `false` into a located error (flag name or file:line).
#ifndef DMASIM_UTIL_PARSE_NUMBER_H_
#define DMASIM_UTIL_PARSE_NUMBER_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace dmasim {

// Decimal integer in [min, max], optionally signed ("-3", "42").
inline bool ParseInt64(const std::string& text, std::int64_t min,
                       std::int64_t max, std::int64_t* out) {
  const char* begin = text.c_str();
  if (*begin != '-' && std::isdigit(static_cast<unsigned char>(*begin)) == 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) return false;
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

// Unsigned integer covering the full 64-bit range in `base` (10 or 16).
// A leading '-' is rejected rather than wrapped.
inline bool ParseUint64(const std::string& text, std::uint64_t* out,
                        int base = 10) {
  const unsigned char first = static_cast<unsigned char>(text.c_str()[0]);
  if (std::isxdigit(first) == 0 || (base == 10 && std::isdigit(first) == 0)) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

// Finite floating-point value (strtod syntax; "nan" and "inf" rejected).
inline bool ParseFiniteDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace dmasim

#endif  // DMASIM_UTIL_PARSE_NUMBER_H_
