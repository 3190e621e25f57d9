/**
 * @file
 * Tests of the analytical power/area models, including the Table 1
 * calibration.
 */
#include <utility>

#include <gtest/gtest.h>

#include "chip/chip_config.hpp"
#include "power/power_model.hpp"

using namespace smarco::power;
using smarco::chip::ChipConfig;

namespace {

ChipPowerReport
fullChipAt(TechNode node, double activity = 1.0)
{
    return smarcoPower(ChipConfig::simulated256(), std::move(node),
                       activity);
}

} // namespace

TEST(Power, Table1CalibrationAt32nm)
{
    const auto report = fullChipAt(TechNode::nm32());
    // Table 1 rows (32 nm, peak activity).
    EXPECT_NEAR(report.component("Cores").areaMm2, 634.32, 0.5);
    EXPECT_NEAR(report.component("Cores").totalW(), 209.91, 0.5);
    EXPECT_NEAR(report.component("Hierarchy Ring").areaMm2, 57.43, 0.3);
    EXPECT_NEAR(report.component("Hierarchy Ring").totalW(), 14.55, 0.2);
    EXPECT_NEAR(report.component("MACT").areaMm2, 1.43, 0.05);
    EXPECT_NEAR(report.component("MACT").totalW(), 0.14, 0.02);
    EXPECT_NEAR(report.component("SPM+Cache").areaMm2, 44.90, 0.3);
    EXPECT_NEAR(report.component("SPM+Cache").totalW(), 1.84, 0.1);
    EXPECT_NEAR(report.component("MC+PHY").areaMm2, 12.92, 0.1);
    EXPECT_NEAR(report.component("MC+PHY").totalW(), 13.65, 0.2);
    EXPECT_NEAR(report.totalAreaMm2(), 751.00, 1.0);
    EXPECT_NEAR(report.totalPowerW(), 240.09, 1.0);
}

TEST(Power, ComponentsAreSizedFromTheChipConfig)
{
    // The prototype's main ring has 5 stops (2 gateways, 1 memory
    // controller, 2 I/O ports) and each of its 2 sub-rings has 17
    // (16 cores + the gateway).
    const auto cfg = ChipConfig::prototype40nm();
    const auto report = smarcoPower(cfg, TechNode::nm40());
    const auto ring =
        PowerModel(TechNode::nm40()).ring(5, 2, 17, 64, 32, 1.0, 1.0);
    const auto &row = report.component("Hierarchy Ring");
    EXPECT_DOUBLE_EQ(row.areaMm2, ring.areaMm2);
    EXPECT_DOUBLE_EQ(row.dynamicW, ring.dynamicW);
    EXPECT_DOUBLE_EQ(row.leakageW, ring.leakageW);
    // One DRAM channel of 22.75 B/cycle at 1.0 GHz.
    const auto mc = PowerModel(TechNode::nm40()).memCtrl(1, 22.75);
    EXPECT_DOUBLE_EQ(report.component("MC+PHY").totalW(), mc.totalW());
}

TEST(Power, MactIsTinyFractionOfChip)
{
    const auto report = fullChipAt(TechNode::nm32());
    EXPECT_LT(report.component("MACT").areaMm2 /
                  report.totalAreaMm2(),
              0.005);
}

TEST(Power, ActivityScalesDynamicOnly)
{
    const auto r_idle = fullChipAt(TechNode::nm32(), 0.0);
    const auto r_busy = fullChipAt(TechNode::nm32(), 1.0);
    EXPECT_LT(r_idle.totalPowerW(), r_busy.totalPowerW());
    EXPECT_GT(r_idle.totalPowerW(), 0.0); // leakage remains
    EXPECT_DOUBLE_EQ(r_idle.totalAreaMm2(), r_busy.totalAreaMm2());
}

TEST(Power, TechScalingDirections)
{
    const auto r32 = fullChipAt(TechNode::nm32());
    const auto r40 = fullChipAt(TechNode::nm40());
    const auto r14 = fullChipAt(TechNode::nm14());
    // Older node: bigger and hungrier; newer node: smaller, cooler.
    EXPECT_GT(r40.totalAreaMm2(), r32.totalAreaMm2());
    EXPECT_GT(r40.totalPowerW(), r32.totalPowerW());
    EXPECT_LT(r14.totalAreaMm2(), r32.totalAreaMm2());
    EXPECT_LT(r14.totalPowerW(), r32.totalPowerW());
}

TEST(Power, PrototypeSmallerThanFullChip)
{
    const auto full = fullChipAt(TechNode::nm32());
    const auto p =
        smarcoPower(ChipConfig::prototype40nm(), TechNode::nm40());
    EXPECT_LT(p.totalAreaMm2(), full.totalAreaMm2() / 3.0);
    EXPECT_LT(p.totalPowerW(), full.totalPowerW() / 3.0);
}

TEST(Power, CoreComplexityGrowsWithWidthAndThreads)
{
    PowerModel m(TechNode::nm32());
    const auto narrow = m.cores(1, 2, 4, 1.5);
    const auto wide = m.cores(1, 8, 4, 1.5);
    const auto few = m.cores(1, 4, 2, 1.5);
    const auto many = m.cores(1, 4, 8, 1.5);
    EXPECT_GT(wide.areaMm2, narrow.areaMm2);
    EXPECT_GT(wide.totalW(), narrow.totalW());
    EXPECT_GT(many.areaMm2, few.areaMm2);
}

TEST(Power, XeonPowerCurve)
{
    EXPECT_NEAR(xeonPowerW(1.0), 165.0, 1e-9);
    EXPECT_LT(xeonPowerW(0.0), 165.0 * 0.5);
    EXPECT_GT(xeonPowerW(0.5), xeonPowerW(0.1));
    // Clamped outside [0, 1].
    EXPECT_DOUBLE_EQ(xeonPowerW(2.0), xeonPowerW(1.0));
    EXPECT_DOUBLE_EQ(xeonPowerW(-1.0), xeonPowerW(0.0));
}

TEST(Power, EnergyEfficiencyRatioMatchesPaperArithmetic)
{
    // The paper's 6.95x mean energy-efficiency gain is its 10.11x
    // mean speedup scaled by the 165 W / 240 W power ratio.
    const auto report = fullChipAt(TechNode::nm32());
    const double ratio = 10.11 * xeonPowerW(1.0) /
                         report.totalPowerW();
    EXPECT_NEAR(ratio, 6.95, 0.05);
}
