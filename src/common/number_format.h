// Locale-independent number text for the CSV writers (trace CSV, sweep CSV)
// and the bench reports. std::to_chars ignores the C locale and every
// stream's imbued locale, so the bytes depend on the value alone.
#pragma once

#include <charconv>
#include <string>
#include <type_traits>

namespace themis {

/// Appends `v` to `out`. A floating-point value is written as printf
/// "%.17g" writes it in the C locale: 17 significant digits, enough for
/// ParseNumber (std::from_chars) to read back the same double bit for bit.
/// An integer is written in plain decimal, with no digit grouping.
template <class T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
void AppendNumber(std::string& out, T v) {
  char buf[32];  // "-2.2250738585072014e-308" is the longest: 24 chars
  std::to_chars_result res;
  if constexpr (std::is_floating_point_v<T>)
    res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        17);
  else
    res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace themis
