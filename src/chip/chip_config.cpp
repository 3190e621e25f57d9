#include "chip/chip_config.hpp"

#include "sim/logging.hpp"

namespace smarco::chip {

void
ChipConfig::validate() const
{
    if (noc.numSubRings == 0 || noc.coresPerSubRing == 0)
        fatal("chip %s: empty topology", name.c_str());
    if (freqGHz <= 0.0)
        fatal("chip %s: non-positive frequency", name.c_str());
}

ChipConfig
ChipConfig::simulated256()
{
    ChipConfig cfg;
    cfg.name = "smarco-256";
    cfg.freqGHz = 1.5;
    // Defaults of the member structs already match the paper:
    // 16 sub-rings x 16 cores, 4 MCs, 8-thread TCG cores, 16 KB I/D
    // caches, 128 KB SPM, 512/256-bit rings, MACT threshold 16.
    cfg.validate();
    return cfg;
}

ChipConfig
ChipConfig::prototype40nm()
{
    ChipConfig cfg;
    cfg.name = "smarco-proto-40nm";
    // 256 threads at most: 32 cores x 8 threads, 2 sub-rings of 16.
    cfg.freqGHz = 1.0; // conservative 40 nm clock
    cfg.noc.numSubRings = 2;
    cfg.dram.channels = 1;
    cfg.validate();
    return cfg;
}

ChipConfig
ChipConfig::scaled(std::uint32_t sub_rings, std::uint32_t cores_per)
{
    ChipConfig cfg;
    cfg.name = strprintf("smarco-%ux%u", sub_rings, cores_per);
    cfg.noc.numSubRings = sub_rings;
    cfg.noc.coresPerSubRing = cores_per;
    cfg.dram.channels = sub_rings >= 4 && sub_rings % 4 == 0 ? 4 : 1;
    cfg.validate();
    return cfg;
}

} // namespace smarco::chip
