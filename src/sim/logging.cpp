#include "sim/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

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
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
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
