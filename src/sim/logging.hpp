/**
 * @file
 * Status and error reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user/configuration errors and exits with a
 * non-zero status; warn() never stops the simulation.
 */
#pragma once

#include <cstdarg>
#include <string>

#include "sim/types.hpp"

namespace smarco {

/**
 * Abort with a message. Call when an internal invariant is violated,
 * i.e. when the simulator itself is broken.
 */
[[noreturn]] void panic(const char *fmt, ...);

/**
 * Exit with an error message. Call when the simulation cannot continue
 * because of a user error (bad configuration, invalid arguments).
 */
[[noreturn]] void fatal(const char *fmt, ...);

/** Print a warning about questionable-but-survivable behaviour. */
void warn(const char *fmt, ...);

/**
 * Install the simulated-clock source used to prefix warn() lines
 * with "@<cycle>" while a simulation is active, so log output
 * correlates with stats samples and trace events. The Simulator
 * installs its own cycle counter on construction and restores the
 * previous source on destruction; pass nullptr to clear.
 */
void setLogCycleSource(const Cycle *cycle);

/** Currently installed cycle source (nullptr when none). */
const Cycle *logCycleSource();

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...);

namespace detail {
std::string vstrprintf(const char *fmt, std::va_list args);
} // namespace detail

} // namespace smarco
