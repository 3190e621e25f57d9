/**
 * @file
 * Minimal JSON emission helpers shared by the observability layer
 * (stats export, trace events, interval samples). Writing only — the
 * simulator never parses JSON; tests carry their own checker.
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

namespace smarco::json {

/** Escape a string for inclusion inside JSON double quotes. */
inline std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Quoted, escaped JSON string literal. */
inline std::string
str(std::string_view s)
{
    return '"' + escape(s) + '"';
}

/**
 * Finite-number JSON literal. JSON has no NaN/Inf, so non-finite
 * values (possible from degenerate ratios) become null.
 */
inline std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    if (v == 0.0)
        return "0"; // never-sampled stats must diff stably: no "-0"
    // %.17g round-trips doubles; trim to a compact form first.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

inline std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace smarco::json
