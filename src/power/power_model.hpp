/**
 * @file
 * Analytical area/power models in the spirit of McPAT (cores),
 * CACTI 6.0 (SRAM arrays) and Orion 2.0 (routers), which the paper
 * uses for Table 1. Constants are calibrated so the simulated 256-core
 * chip at the 32 nm node reproduces Table 1; technology
 * scaling then derives the 40 nm prototype and the 14 nm Xeon
 * comparisons.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace smarco::chip {
struct ChipConfig;
} // namespace smarco::chip

namespace smarco::power {

/** A CMOS technology node with first-order scaling factors. */
struct TechNode {
    std::string name;
    double nm = 32.0;
    double vdd = 0.90;

    /** Area scale relative to the 32 nm calibration node. */
    double areaScale() const;
    /** Dynamic-power scale (CV^2f per transistor) vs 32 nm. */
    double dynScale() const;
    /** Leakage scale vs 32 nm. */
    double leakScale() const;

    static TechNode nm40();
    static TechNode nm32();
    static TechNode nm14();
};

/** Area and power of one chip component. */
struct ComponentPower {
    std::string name;
    double areaMm2 = 0.0;
    double dynamicW = 0.0;
    double leakageW = 0.0;

    double totalW() const { return dynamicW + leakageW; }
};

/** Whole-chip roll-up (Table 1 rows + total). */
struct ChipPowerReport {
    std::vector<ComponentPower> components;

    double totalAreaMm2() const;
    double totalPowerW() const;
    /** Row lookup by name; panics when missing. */
    const ComponentPower &component(const std::string &name) const;
};

/**
 * The analytical model. All methods take an activity factor in
 * [0, 1]: 1.0 reproduces the paper's Table 1 (peak design point).
 */
class PowerModel
{
  public:
    explicit PowerModel(TechNode node);

    const TechNode &node() const { return node_; }

    /** McPAT-like TCG core array model. */
    ComponentPower cores(std::uint32_t count, std::uint32_t issue_width,
                         std::uint32_t threads, double freq_ghz,
                         double activity = 1.0) const;

    /** Orion-like hierarchical ring model. */
    ComponentPower ring(std::uint32_t main_stops,
                        std::uint32_t sub_rings,
                        std::uint32_t stops_per_sub,
                        std::uint32_t main_bytes_per_cycle,
                        std::uint32_t sub_bytes_per_cycle,
                        double freq_ghz, double activity = 1.0) const;

    /** RAM-based MACT arrays at the gateways. */
    ComponentPower mact(std::uint32_t count, std::uint32_t lines,
                        double freq_ghz, double activity = 1.0) const;

    /** CACTI-like SRAM model covering all SPMs and caches. */
    ComponentPower sram(std::uint64_t total_bytes, double freq_ghz,
                        double activity = 1.0) const;

    /** Memory controllers + PHY. */
    ComponentPower memCtrl(std::uint32_t count, double bandwidth_gbs,
                           double activity = 1.0) const;

  private:
    TechNode node_;
};

/**
 * Build the Table 1 report for a SmarCo chip. Every component is
 * sized from cfg, the same description the simulator instantiates;
 * only the technology node and the average activity (1.0 = Table 1
 * peak design point) belong to the power model.
 */
ChipPowerReport smarcoPower(const chip::ChipConfig &cfg, TechNode node,
                            double activity = 1.0);

/**
 * Operating power of the Xeon E7-8890V4 baseline at a given
 * utilisation (TDP 165 W; ~45% of it idle/uncore).
 */
double xeonPowerW(double utilisation);

} // namespace smarco::power
