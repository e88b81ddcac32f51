#include "chip/paired.hh"

#include <cstring>
#include <memory>
#include <vector>

#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace visa
{
namespace chip
{
namespace
{

std::uint64_t
fpBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** One side of the pair: a private rig around one pipeline. */
template <typename CpuT>
struct CoreRig
{
    MainMemory mem;
    Platform platform;
    MemController memctrl;
    std::unique_ptr<CpuT> cpu;

    explicit CoreRig(const Program &prog)
    {
        mem.loadProgram(prog);
        cpu = std::make_unique<CpuT>(prog, mem, platform, memctrl);
        cpu->resetForTask();
    }
};

} // anonymous namespace

PairedCheckResult
runPairedCheck(const Program &prog, FaultPort *victimPort,
               std::uint64_t maxCycles)
{
    PairedCheckResult res;

    // The two arms are fully private rigs, so they can run on
    // concurrent workers (nested fine inside a campaign's own
    // parallelFor arm — the pool lets arms claim indices on their own
    // stack). Only with a tracer installed do they stay serial: two
    // arms must not interleave one ring, and a detector check is a
    // rare, traced-for-debugging path, not the campaign hot loop.
    CoreRig<SimpleCpu> spare(prog);
    CoreRig<OooCpu> victim(prog);
    victim.cpu->setFaultPort(victimPort);
    bool trapped = false;
    const auto arm = [&](std::size_t i) {
        if (i == 0) {
            spare.cpu->run(maxCycles);
            return;
        }
        try {
            victim.cpu->run(maxCycles);
        } catch (const std::exception &) {
            // A corrupted pc/operand drove the pipeline into a panic
            // (unmapped fetch, malformed instruction): the spare's
            // clean completion against a dead victim is an immediate
            // detection.
            trapped = true;
        }
    };
    if (currentTracer()) {
        arm(0);
        arm(1);
    } else {
        parallelFor(2, arm);
    }
    res.spareRetired = spare.cpu->retired();
    if (trapped) {
        res.victimTrapped = true;
        res.detected = true;
        res.report = "victim trapped before the boundary\n";
        return res;
    }
    res.victimRetired = victim.cpu->retired();

    if (!victim.cpu->halted()) {
        // The boundary deadline passed (the spare finished inside the
        // same budget): a wedged or looping victim is a detection.
        res.victimTimedOut = true;
        res.detected = true;
        res.report = "victim missed the boundary deadline\n";
        return res;
    }

    std::string &report = res.report;
    const ArchState &v = victim.cpu->arch();
    const ArchState &s = spare.cpu->arch();
    if (v.pc != s.pc)
        appendf(report, "pc: victim=0x%08X spare=0x%08X\n", v.pc, s.pc);
    // r1 is the assembler scratch (`at`): workload boundary snippets
    // load the MMIO cycle counter through it for AET reporting, and
    // cycle counts legitimately differ between the complex victim and
    // the simple spare — timing state, not functional state. Faults
    // that corrupt r1 with functional consequences still surface in
    // the memory / checksum / console votes below.
    for (int r = 0; r < numIntRegs; ++r)
        if (r != 1 && v.readInt(r) != s.readInt(r)) {
            appendf(report, "r%d: victim=0x%08X spare=0x%08X\n", r,
                    v.readInt(r), s.readInt(r));
            break;    // one sample per state class keeps reports small
        }
    for (int f = 0; f < numFpRegs; ++f)
        if (fpBits(v.fpRegs[f]) != fpBits(s.fpRegs[f])) {
            appendf(report, "f%d: bits differ\n", f);
            break;
        }
    if (v.fcc != s.fcc)
        appendf(report, "fcc: victim=%d spare=%d\n", v.fcc, s.fcc);

    static const std::uint8_t zeros[4096] = {};
    std::vector<Addr> bases = spare.mem.pageBases();
    for (Addr base : victim.mem.pageBases())
        if (!spare.mem.peekPage(base))
            bases.push_back(base);
    for (Addr base : bases) {
        const std::uint8_t *pv = victim.mem.peekPage(base);
        const std::uint8_t *ps = spare.mem.peekPage(base);
        if (!pv)
            pv = zeros;
        if (!ps)
            ps = zeros;
        if (std::memcmp(pv, ps,
                        static_cast<std::size_t>(
                            MainMemory::pageBytes())) != 0) {
            appendf(report, "memory page 0x%08X differs\n", base);
            break;
        }
    }

    if (victim.platform.lastChecksum() != spare.platform.lastChecksum() ||
        victim.platform.checksumReported() !=
            spare.platform.checksumReported())
        appendf(report, "checksum: victim=0x%08X(%d) spare=0x%08X(%d)\n",
                victim.platform.lastChecksum(),
                victim.platform.checksumReported(),
                spare.platform.lastChecksum(),
                spare.platform.checksumReported());
    if (victim.platform.consoleOutput() != spare.platform.consoleOutput())
        appendf(report, "console output differs\n");

    res.detected = !report.empty();
    return res;
}

} // namespace chip
} // namespace visa
