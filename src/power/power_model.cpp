#include "power/power_model.hpp"

#include <cmath>
#include <utility>

#include "chip/chip_config.hpp"
#include "sim/logging.hpp"

namespace smarco::power {

namespace {

// Calibration constants derived from Table 1 (32 nm, activity 1.0):
//   cores  634.32 mm2 / 209.91 W for 256 4-wide 8-thread cores @1.5GHz
//   ring    57.43 mm2 /  14.55 W for 22x64B + 272x32B ring stops
//   MACT     1.43 mm2 /   0.14 W for 16 tables of 32 lines
//   SRAM    44.90 mm2 /   1.84 W for 40 MB of SPM+cache
//   MC+PHY  12.92 mm2 /  13.65 W for 4 controllers, 136.5 GB/s
constexpr double kCoreArea = 0.50108;   // mm2 per unit core complexity
constexpr double kCoreDyn = 0.085848;   // W per complexity*GHz
constexpr double kCoreLeak = 0.099271;  // W per mm2
constexpr double kRingArea = 0.0056794; // mm2 per byte-stop
constexpr double kRingDyn = 0.00076729; // W per byte-stop*GHz
constexpr double kRingLeak = 0.050671;  // W per mm2
constexpr double kMactArea = 0.0027930; // mm2 per line
constexpr double kMactDyn = 0.00013021; // W per line*GHz
constexpr double kMactLeak = 0.027972;  // W per mm2
constexpr double kSramAreaPerMb = 1.1225;  // mm2 per MB
constexpr double kSramDynPerMb = 0.0073333;// W per MB*GHz
constexpr double kSramLeak = 0.031180;  // W per mm2
constexpr double kMcArea = 3.23;        // mm2 per controller
constexpr double kMcDyn = 0.080586;     // W per GB/s
constexpr double kMcLeak = 0.205108;    // W per mm2

double
coreComplexity(std::uint32_t issue_width, std::uint32_t threads)
{
    // Superlinear issue-width cost, modest per-context cost: the
    // shape McPAT reports for narrow in-order multithreaded cores.
    return std::pow(static_cast<double>(issue_width), 0.9) *
           (1.0 + 0.06 * static_cast<double>(threads - 1));
}

double
coreDynFactor(std::uint32_t issue_width, std::uint32_t threads)
{
    return std::pow(static_cast<double>(issue_width), 0.9) *
           (1.0 + 0.04 * static_cast<double>(threads - 1));
}

} // namespace

double
TechNode::areaScale() const
{
    return (nm / 32.0) * (nm / 32.0);
}

double
TechNode::dynScale() const
{
    return (nm / 32.0) * (vdd / 0.90) * (vdd / 0.90);
}

double
TechNode::leakScale() const
{
    return (nm / 32.0) * std::pow(vdd / 0.90, 3.0);
}

TechNode
TechNode::nm40()
{
    return TechNode{"tsmc-40nm", 40.0, 1.00};
}

TechNode
TechNode::nm32()
{
    return TechNode{"32nm", 32.0, 0.90};
}

TechNode
TechNode::nm14()
{
    return TechNode{"14nm", 14.0, 0.70};
}

double
ChipPowerReport::totalAreaMm2() const
{
    double a = 0.0;
    for (const auto &c : components)
        a += c.areaMm2;
    return a;
}

double
ChipPowerReport::totalPowerW() const
{
    double p = 0.0;
    for (const auto &c : components)
        p += c.totalW();
    return p;
}

const ComponentPower &
ChipPowerReport::component(const std::string &name) const
{
    for (const auto &c : components) {
        if (c.name == name)
            return c;
    }
    panic("power report has no component '%s'", name.c_str());
}

PowerModel::PowerModel(TechNode node)
    : node_(std::move(node))
{
    if (node_.nm <= 0.0 || node_.vdd <= 0.0)
        fatal("power model: bad tech node");
}

ComponentPower
PowerModel::cores(std::uint32_t count, std::uint32_t issue_width,
                  std::uint32_t threads, double freq_ghz,
                  double activity) const
{
    ComponentPower p;
    p.name = "Cores";
    const double n = static_cast<double>(count);
    p.areaMm2 = n * kCoreArea * coreComplexity(issue_width, threads) *
                node_.areaScale();
    p.dynamicW = n * kCoreDyn * coreDynFactor(issue_width, threads) *
                 freq_ghz * node_.dynScale() * activity;
    p.leakageW = p.areaMm2 * kCoreLeak * node_.leakScale() /
                 node_.areaScale();
    return p;
}

ComponentPower
PowerModel::ring(std::uint32_t main_stops, std::uint32_t sub_rings,
                 std::uint32_t stops_per_sub,
                 std::uint32_t main_bytes_per_cycle,
                 std::uint32_t sub_bytes_per_cycle, double freq_ghz,
                 double activity) const
{
    ComponentPower p;
    p.name = "Hierarchy Ring";
    const double byte_stops =
        static_cast<double>(main_stops) * main_bytes_per_cycle +
        static_cast<double>(sub_rings) * stops_per_sub *
            sub_bytes_per_cycle;
    p.areaMm2 = byte_stops * kRingArea * node_.areaScale();
    p.dynamicW = byte_stops * kRingDyn * freq_ghz * node_.dynScale() *
                 activity;
    p.leakageW = p.areaMm2 * kRingLeak * node_.leakScale() /
                 node_.areaScale();
    return p;
}

ComponentPower
PowerModel::mact(std::uint32_t count, std::uint32_t lines,
                 double freq_ghz, double activity) const
{
    ComponentPower p;
    p.name = "MACT";
    const double total_lines = static_cast<double>(count) * lines;
    p.areaMm2 = total_lines * kMactArea * node_.areaScale();
    p.dynamicW = total_lines * kMactDyn * freq_ghz * node_.dynScale() *
                 activity;
    p.leakageW = p.areaMm2 * kMactLeak * node_.leakScale() /
                 node_.areaScale();
    return p;
}

ComponentPower
PowerModel::sram(std::uint64_t total_bytes, double freq_ghz,
                 double activity) const
{
    ComponentPower p;
    p.name = "SPM+Cache";
    const double mb = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
    p.areaMm2 = mb * kSramAreaPerMb * node_.areaScale();
    p.dynamicW = mb * kSramDynPerMb * freq_ghz * node_.dynScale() *
                 activity;
    p.leakageW = p.areaMm2 * kSramLeak * node_.leakScale() /
                 node_.areaScale();
    return p;
}

ComponentPower
PowerModel::memCtrl(std::uint32_t count, double bandwidth_gbs,
                    double activity) const
{
    ComponentPower p;
    p.name = "MC+PHY";
    p.areaMm2 = static_cast<double>(count) * kMcArea *
                node_.areaScale();
    p.dynamicW = bandwidth_gbs * kMcDyn * node_.dynScale() * activity;
    p.leakageW = p.areaMm2 * kMcLeak * node_.leakScale() /
                 node_.areaScale();
    return p;
}

ChipPowerReport
smarcoPower(const chip::ChipConfig &cfg, TechNode node, double activity)
{
    const PowerModel model(std::move(node));
    const auto &noc = cfg.noc;
    const auto &core = cfg.core;
    const std::uint32_t cores = cfg.numCores();
    ChipPowerReport report;
    report.components.push_back(model.cores(
        cores, core.issueWidth, core.numThreads, cfg.freqGHz,
        activity));
    // Main-ring stops: one gateway per sub-ring, the memory
    // controllers and the I/O ports; each sub-ring adds its gateway
    // to its cores.
    report.components.push_back(model.ring(
        noc.numSubRings + cfg.dram.channels + noc.numIo, noc.numSubRings,
        noc.coresPerSubRing + 1,
        2 * noc.mainFixedBytesPerDir + noc.mainFlexBytes,
        2 * noc.subFixedBytesPerDir + noc.subFlexBytes, cfg.freqGHz,
        activity));
    report.components.push_back(model.mact(
        noc.numSubRings, cfg.mact.lines, cfg.freqGHz, activity));
    report.components.push_back(model.sram(
        static_cast<std::uint64_t>(cores) *
            (core.spm.sizeBytes + core.icache.sizeBytes +
             core.dcache.sizeBytes),
        cfg.freqGHz, activity));
    report.components.push_back(model.memCtrl(
        cfg.dram.channels,
        cfg.dram.channels * cfg.dram.bytesPerCycle * cfg.freqGHz,
        activity));
    return report;
}

double
xeonPowerW(double utilisation)
{
    // TDP 165 W; roughly 45% is uncore/leakage/idle cost that does
    // not scale with load on this class of server part.
    if (utilisation < 0.0)
        utilisation = 0.0;
    if (utilisation > 1.0)
        utilisation = 1.0;
    return 165.0 * (0.45 + 0.55 * utilisation);
}

} // namespace smarco::power
