#include "sim/logging.hpp"

#include <cstdio>
#include <cstdlib>

namespace smarco {

namespace {

const Cycle *g_cycle = nullptr;

/** " @<cycle>" when a simulation clock is installed, else "". */
std::string
cyclePrefix()
{
    if (!g_cycle)
        return std::string();
    return " @" + std::to_string(*g_cycle);
}

} // namespace

void
setLogCycleSource(const Cycle *cycle)
{
    g_cycle = cycle;
}

const Cycle *
logCycleSource()
{
    return g_cycle;
}

namespace detail {

std::string
vstrprintf(const char *fmt, std::va_list args)
{
    // One pass into a stack buffer covers nearly every message (stat
    // name prefixes, log lines); only longer results format twice.
    char buf[256];
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(buf, sizeof buf, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return "<format error>";
    const auto len = static_cast<std::size_t>(needed);
    if (len < sizeof buf)
        return std::string(buf, len);
    std::string out(len, '\0');
    std::vsnprintf(out.data(), len + 1, fmt, args);
    return out;
}

} // namespace detail

std::string
strprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn%s: %s\n", cyclePrefix().c_str(),
                 msg.c_str());
}

} // namespace smarco
