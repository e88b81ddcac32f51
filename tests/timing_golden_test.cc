/**
 * @file
 * Golden timing regression test: every workload in src/workloads runs
 * cold-start to completion on each machine configuration and what the
 * run publishes is compared against the checked-in table
 * (tests/timing_golden.inc). Per row:
 *
 *   - total cycle count and retired instruction count;
 *   - a 64-bit FNV-1a digest of the CPU's buildStats JSON (every
 *     counter, including the activity_* counts that drive power);
 *   - a digest of the trace JSONL.
 *
 * The configurations:
 *
 *   - simple-fixed, complex, forced-simple: the simple-fixed pipeline,
 *     the complex pipeline in its default out-of-order mode, and the
 *     complex pipeline forced into the VISA simple mode. The trace
 *     records the pipeline categories ("cpu" and "mem").
 *   - visa-miss: the VISA run-time system on the complex pipeline runs
 *     one instance with an induced, forced checkpoint miss, so the
 *     drain, the simple-mode recovery and advanceIdle() all run. The
 *     stats digest adds the runtime's stats group and the power
 *     meter's energy breakdown; the trace records every category.
 *   - wcet: the static analyzer at 100, 425 and 1000 MHz with the
 *     profiled D-miss padding. The stats column digests analyze()'s
 *     sub-task and task cycles, the trace column attribute()'s charges;
 *     cycles carries the 1000 MHz task WCET.
 *
 * Every ring is sized so nothing is dropped (asserted). The table pins
 * the timing model bit-for-bit: any change to the cycle-level behavior
 * of either pipeline or the analyzer — intended or not — shows up as an
 * explicit one-line diff of the table, reviewed like any other code
 * change. Refactors of the pipelines land against it unchanged.
 *
 * Regenerating after an intentional timing change:
 *
 *   VISA_TIMING_GOLDEN_DUMP=1 build/tests/visa_tests \
 *       --gtest_filter='TimingGolden.*' 2>/dev/null \
 *       | grep '^    {' > tests/timing_golden.inc
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/runtime.hh"
#include "core/wcet_table.hh"
#include "power/dvs.hh"
#include "power/energy_model.hh"
#include "power/meter.hh"
#include "sim/builder.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

struct GoldenRow
{
    const char *workload;
    const char *config;
    std::uint64_t cycles;
    std::uint64_t retired;
    std::uint64_t stats;    ///< FNV-1a of the stats JSON
    std::uint64_t trace;    ///< FNV-1a of the trace JSONL
};

constexpr GoldenRow goldenRows[] = {
#include "tests/timing_golden.inc"
};

constexpr const char *configNames[] = {"simple-fixed", "complex",
                                       "forced-simple", "visa-miss",
                                       "wcet"};

/** Large enough for a whole workload's per-instruction events. */
constexpr std::size_t traceCapacity = 1 << 19;

/** 64-bit FNV-1a. */
std::uint64_t
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
traceDigest(const Tracer &tracer)
{
    std::ostringstream os;
    tracer.writeJsonl(os);
    return digest(os.str());
}

CpuKind
configKind(const std::string &config)
{
    if (config == "simple-fixed")
        return CpuKind::Simple;
    if (config == "complex")
        return CpuKind::Complex;
    return CpuKind::ComplexSimpleMode;
}

/** Cold-start run of @p workload on a bare pipeline until HALT. */
GoldenRow
measurePipeline(const char *workload, const char *config)
{
    auto sim = SimBuilder()
                   .workload(workload)
                   .cpu(configKind(config))
                   .build();
    Tracer tracer(traceCapacity);
    tracer.setKindMask(Tracer::maskFor("cpu") | Tracer::maskFor("mem"));
    RunResult r;
    {
        ScopedTracer install(tracer);
        r = sim->cpu().run();
    }
    EXPECT_EQ(r.reason, StopReason::Halted)
        << workload << " on " << config << " did not halt";
    EXPECT_EQ(sim->platform().lastChecksum(),
              sim->workload()->expectedChecksum)
        << workload << " on " << config << " computed a bad checksum";
    EXPECT_EQ(tracer.dropped(), 0u) << workload << " on " << config;

    StatSet set;
    sim->cpu().buildStats(set);
    std::ostringstream stats;
    set.dumpJson(stats);
    return {workload,
            config,
            sim->cpu().cycles(),
            sim->cpu().retired(),
            digest(stats.str()),
            traceDigest(tracer)};
}

/** A workload with its analyzer, D-miss profile and WCET table. */
struct Analyzed
{
    explicit Analyzed(const std::string &name)
        : wl(makeWorkload(name)), analyzer(wl.program),
          dmiss(profileDataMisses(wl.program)), wcet(analyzer, dvs, &dmiss)
    {
    }

    Workload wl;
    WcetAnalyzer analyzer;
    DMissProfile dmiss;
    DvsTable dvs;
    WcetTable wcet;
};

/**
 * One VISA instance on the complex pipeline with an induced, forced
 * checkpoint miss: drain, simple-mode recovery, idle advance.
 */
GoldenRow
measureVisaMiss(const char *workload, const Analyzed &a)
{
    RuntimeConfig cfg;
    cfg.deadlineSeconds = a.wcet.taskSeconds(650);
    cfg.ovhdSeconds = 2e-6;
    cfg.dvsSoftwareCycles = 500;
    cfg.drainBudgetCycles = 512;
    auto sim = SimBuilder()
                   .program(a.wl.program)
                   .runtime(RuntimeKind::Visa, a.wcet, a.dvs, cfg)
                   .build();
    DvsRuntime &rt = sim->runtime();
    rt.pets().seed(profileComplexAets(a.wl.program, a.wl.numSubtasks));
    PowerMeter meter(sim->cpu(), complexEnergyModel(), a.dvs,
                     ClockGating::Perfect);
    rt.attachMeter(&meter);

    Tracer tracer(traceCapacity);
    TaskStats ts;
    {
        ScopedTracer install(tracer);
        rt.forceNextMiss();
        ts = rt.runTask(true);
    }
    EXPECT_TRUE(ts.missedCheckpoint) << workload;
    EXPECT_TRUE(ts.deadlineMet) << workload;
    EXPECT_TRUE(ts.checksumReported) << workload;
    EXPECT_EQ(ts.checksum, a.wl.expectedChecksum) << workload;
    EXPECT_EQ(tracer.dropped(), 0u) << workload;

    StatSet set;
    sim->cpu().buildStats(set);
    rt.buildStats(set);
    std::ostringstream stats;
    set.dumpJson(stats);
    stats.precision(17);
    stats << meter.totalEnergyJoules() << ' ' << meter.totalTimeSeconds()
          << ' ' << meter.clockEnergyJoules();
    for (int u = 0; u < numUnits; ++u)
        stats << ' ' << meter.unitEnergyJoules(static_cast<Unit>(u));
    return {workload,
            "visa-miss",
            sim->cpu().cycles(),
            sim->cpu().retired(),
            digest(stats.str()),
            traceDigest(tracer)};
}

/** The analyzer's bounds and attributions at three frequencies. */
GoldenRow
measureWcet(const char *workload, const Analyzed &a)
{
    std::ostringstream bounds, charges;
    Cycles top = 0;
    for (const MHz f : {100u, 425u, 1000u}) {
        const WcetReport rep = a.analyzer.analyze(f, &a.dmiss);
        bounds << f << ':' << rep.taskCycles;
        for (const Cycles c : rep.subtaskCycles)
            bounds << ' ' << c;
        bounds << '\n';
        top = rep.taskCycles;

        const WcetAttribution att = a.analyzer.attribute(f, &a.dmiss);
        for (std::size_t k = 0; k < att.subtaskCharges.size(); ++k)
            for (const WcetCharge &c : att.subtaskCharges[k])
                charges << f << ' ' << k << ' '
                        << wcetChargeKindName(c.kind) << ' ' << c.startPc
                        << ' ' << c.endPc << ' ' << c.count << ' '
                        << c.cycles << '\n';
    }
    return {workload,           "wcet",
            top,                0,
            digest(bounds.str()), digest(charges.str())};
}

TEST(TimingGolden, AllWorkloadsMatchTable)
{
    const bool dump = std::getenv("VISA_TIMING_GOLDEN_DUMP") != nullptr;
    for (const std::string &name : allWorkloadNames()) {
        const Analyzed analyzed(name);
        for (const char *config : configNames) {
            const std::string cfg = config;
            const GoldenRow actual =
                cfg == "visa-miss" ? measureVisaMiss(name.c_str(), analyzed)
                : cfg == "wcet"    ? measureWcet(name.c_str(), analyzed)
                                   : measurePipeline(name.c_str(), config);
            if (dump) {
                std::printf("    {\"%s\", \"%s\", %lluull, %lluull, "
                            "0x%016llxull, 0x%016llxull},\n",
                            actual.workload, actual.config,
                            static_cast<unsigned long long>(actual.cycles),
                            static_cast<unsigned long long>(actual.retired),
                            static_cast<unsigned long long>(actual.stats),
                            static_cast<unsigned long long>(actual.trace));
                continue;
            }
            const GoldenRow *golden = nullptr;
            for (const GoldenRow &row : goldenRows)
                if (name == row.workload && cfg == row.config) {
                    golden = &row;
                    break;
                }
            ASSERT_NE(golden, nullptr)
                << "no golden row for " << name << " / " << config
                << " — regenerate tests/timing_golden.inc (see file "
                   "comment)";
            const std::string label = name + " on " + config;
            const char *hint =
                " — if intentional, regenerate tests/timing_golden.inc "
                "(see file comment)";
            EXPECT_EQ(actual.cycles, golden->cycles)
                << label << ": cycle count changed" << hint;
            EXPECT_EQ(actual.retired, golden->retired)
                << label << ": retired count changed" << hint;
            EXPECT_EQ(actual.stats, golden->stats)
                << label << ": stats digest changed" << hint;
            EXPECT_EQ(actual.trace, golden->trace)
                << label << ": trace digest changed" << hint;
        }
    }
}

/** The table covers exactly workloads x configs, nothing stale. */
TEST(TimingGolden, TableIsComplete)
{
    const std::size_t expected =
        allWorkloadNames().size() * std::size(configNames);
    EXPECT_EQ(std::size(goldenRows), expected)
        << "tests/timing_golden.inc is stale — regenerate it (see file "
           "comment)";
}

} // anonymous namespace
} // namespace visa
