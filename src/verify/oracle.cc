#include "verify/oracle.hh"

#include <cinttypes>
#include <cmath>
#include <map>
#include <memory>

#include "core/checkpoints.hh"
#include "core/wcet_table.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "mem/memctrl.hh"
#include "mem/memory.hh"
#include "mem/platform.hh"
#include "sim/logging.hh"
#include "wcet/analyzer.hh"

namespace visa::verify
{

namespace
{

/** Forced-expiry watchdog budget: fires early in sub-task 1. */
constexpr Word forcedExpiryCycles = 8;

/** A self-contained machine for one oracle run. */
template <typename CpuT>
struct Rig
{
    explicit Rig(const Program &prog)
    {
        mem.loadProgram(prog);
        cpu = std::make_unique<CpuT>(prog, mem, platform, memctrl);
        cpu->resetForTask();
    }

    MainMemory mem;
    Platform platform;
    MemController memctrl;
    std::unique_ptr<CpuT> cpu;
};

/**
 * Run @p prog to completion at @p f collecting per-sub-task AETs; the
 * snippets report sub-task i's AET when sub-task i+1 begins (and the
 * last at task end), with the cycle counter reset in between.
 */
template <typename CpuT>
std::map<int, std::uint64_t>
collectAets(const Program &prog, MHz f, Word &checksum)
{
    Rig<CpuT> rig(prog);
    rig.cpu->setFrequency(f);
    std::map<int, std::uint64_t> aets;
    rig.platform.onAetReport = [&](int id, std::uint64_t cycles) {
        aets[id] = cycles;
    };
    rig.cpu->run(2'000'000'000ULL);
    checksum = rig.platform.lastChecksum();
    return aets;
}

void
checkAets(std::string &report, const char *what,
          const std::map<int, std::uint64_t> &aets, const WcetTable &wcet,
          MHz f)
{
    for (int k = 0; k < wcet.numSubtasks(); ++k) {
        auto it = aets.find(k + 1);
        if (it == aets.end()) {
            appendf(report, "%s: sub-task %d reported no AET at %u MHz\n",
                    what, k + 1, f);
            continue;
        }
        const Cycles bound = wcet.subtaskCycles(k, f);
        if (it->second > bound)
            appendf(report,
                    "%s: sub-task %d AET %" PRIu64
                    " exceeds WCET %" PRIu64 " at %u MHz\n",
                    what, k + 1, it->second,
                    static_cast<std::uint64_t>(bound), f);
    }
}

/**
 * Re-derive EQ 1 from a raw analyzer report (independent of the
 * WcetTable plumbing computeCheckpoints itself uses) and diff the
 * runtime's plan against it.
 */
void
checkCheckpointArithmetic(std::string &report, const CheckpointPlan &plan,
                          const WcetReport &rec, const OracleOptions &opts,
                          double deadline)
{
    const int s = static_cast<int>(rec.subtaskCycles.size());
    if (static_cast<int>(plan.checkpoints.size()) != s ||
        static_cast<int>(plan.increments.size()) != s) {
        appendf(report, "EQ1: plan has %zu checkpoints / %zu increments "
                        "for %d sub-tasks\n",
                plan.checkpoints.size(), plan.increments.size(), s);
        return;
    }
    const double fhz = opts.fSpec * 1e6;
    double tail = 0.0;
    std::vector<double> expected(static_cast<std::size_t>(s));
    for (int i = s - 1; i >= 0; --i) {
        tail += static_cast<double>(rec.subtaskCycles[static_cast<
                    std::size_t>(i)]) /
                (opts.fRec * 1e6);
        expected[static_cast<std::size_t>(i)] =
            deadline - opts.ovhdSeconds - tail;
    }
    std::int64_t cum = 0;
    for (int i = 0; i < s; ++i) {
        const double want = expected[static_cast<std::size_t>(i)];
        const double got = plan.checkpoints[static_cast<std::size_t>(i)];
        if (std::fabs(got - want) >
            1e-12 * std::max(1.0, std::fabs(want)))
            appendf(report,
                    "EQ1: checkpoint %d is %.12g s, expected %.12g s\n",
                    i + 1, got, want);
        if (got <= 0.0)
            appendf(report, "EQ1: checkpoint %d non-positive (%.3g s)\n",
                    i + 1, got);
        if (i > 0 && got < plan.checkpoints[static_cast<std::size_t>(i - 1)])
            appendf(report, "EQ1: checkpoint %d not monotonic\n", i + 1);
        if (plan.increments[static_cast<std::size_t>(i)] <= 0)
            appendf(report, "EQ1: increment %d non-positive\n", i + 1);
        cum += plan.increments[static_cast<std::size_t>(i)];
        // The running watchdog total realizes checkpoint i in cycles
        // at f_spec: never beyond it (safety), and within one floor()
        // rounding step per term of it (tightness).
        const double cumSeconds = static_cast<double>(cum) / fhz;
        if (cumSeconds > got + 1e-12)
            appendf(report,
                    "EQ1: watchdog total %" PRId64
                    " overshoots checkpoint %d (%.12g > %.12g s)\n",
                    cum, i + 1, cumSeconds, got);
        if (static_cast<double>(cum + i + 1) < got * fhz - 1.0)
            appendf(report,
                    "EQ1: watchdog total %" PRId64
                    " undershoots checkpoint %d by more than rounding\n",
                    cum, i + 1);
    }
}

/**
 * Force a missed checkpoint and verify the recovery path: complex
 * execution until the (unmasked) watchdog fires, drain to simple mode,
 * charge the reconfiguration overhead, finish at f_rec — total must
 * meet the provisioned deadline.
 */
void
checkForcedRecovery(std::string &report, const Program &prog,
                    const OracleOptions &opts, double deadline)
{
    Rig<OooCpu> rig(prog);
    rig.cpu->setFrequency(opts.fSpec);
    rig.platform.setRecoveryFreq(opts.fRec);
    // Arm the watchdog with a tiny budget through the program's own
    // wdinc table: the sub-task 1 snippet loads wdinc[0] and stores it
    // to the watchdog port. Later entries stay zero (add nothing).
    rig.mem.writeWord(prog.symbol("wdinc"), forcedExpiryCycles);
    rig.platform.maskWatchdog(false);

    RunResult r = rig.cpu->run(2'000'000'000ULL);
    if (r.reason != StopReason::WatchdogExpired) {
        appendf(report, "recovery: watchdog never fired (reason %d)\n",
                static_cast<int>(r.reason));
        return;
    }
    rig.platform.maskWatchdog(true);
    rig.cpu->switchToSimple();
    const Cycles specCycles = rig.cpu->cycles();
    rig.cpu->setFrequency(opts.fRec);
    r = rig.cpu->run(2'000'000'000ULL);
    if (r.reason != StopReason::Halted) {
        appendf(report, "recovery: task did not complete (reason %d)\n",
                static_cast<int>(r.reason));
        return;
    }
    if (!rig.platform.checksumReported())
        appendf(report, "recovery: no checksum reported after recovery\n");

    const Cycles recCycles = rig.cpu->cycles() - specCycles;
    const double elapsed =
        static_cast<double>(specCycles) / (opts.fSpec * 1e6) +
        opts.ovhdSeconds +
        static_cast<double>(recCycles) / (opts.fRec * 1e6);
    if (elapsed > deadline)
        appendf(report,
                "recovery: %.6g s exceeds deadline %.6g s "
                "(spec %" PRIu64 " cy @%u MHz + ovhd + rec %" PRIu64
                " cy @%u MHz)\n",
                elapsed, deadline, static_cast<std::uint64_t>(specCycles),
                opts.fSpec, static_cast<std::uint64_t>(recCycles),
                opts.fRec);
}

} // namespace

OracleResult
runTimingOracle(const GeneratedProgram &gp, const OracleOptions &opts)
{
    OracleResult res;
    const Program &prog = gp.program;

    try {
        WcetAnalyzer analyzer(prog);
        const DMissProfile dmiss = profileDataMisses(prog);
        const DvsTable dvs;
        const WcetTable wcet(analyzer, dvs, &dmiss);
        res.subtasks = wcet.numSubtasks();

        // 1. AET <= WCET, on both machines at their frequencies.
        Word simpleCk = 0;
        Word complexCk = 0;
        checkAets(res.report, "simple-fixed",
                  collectAets<SimpleCpu>(prog, opts.fRec, simpleCk), wcet,
                  opts.fRec);
        checkAets(res.report, "complex",
                  collectAets<OooCpu>(prog, opts.fSpec, complexCk), wcet,
                  opts.fSpec);
        if (simpleCk != complexCk)
            appendf(res.report,
                    "functional: checksum mismatch simple=0x%08X "
                    "complex=0x%08X\n",
                    simpleCk, complexCk);

        // 2. EQ 1 arithmetic, against an independent re-derivation.
        const double deadline =
            opts.deadlineSlack *
            (opts.ovhdSeconds + wcet.taskSeconds(opts.fRec));
        const CheckpointPlan plan = computeCheckpoints(
            wcet, opts.fRec, opts.fSpec, deadline, opts.ovhdSeconds);
        const WcetReport recReport = analyzer.analyze(opts.fRec, &dmiss);
        checkCheckpointArithmetic(res.report, plan, recReport, opts,
                                  deadline);

        // 3. Forced-miss recovery meets the provisioned deadline.
        if (opts.checkForcedRecovery)
            checkForcedRecovery(res.report, prog, opts, deadline);
    } catch (const FatalError &e) {
        appendf(res.report, "oracle: fatal: %s\n", e.what());
    }

    res.ok = res.report.empty();
    return res;
}

} // namespace visa::verify
