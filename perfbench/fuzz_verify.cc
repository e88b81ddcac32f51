/**
 * @file
 * fuzz-verify: one unit is one generated program (verify/progen.hh):
 * generate() with the profile rotating alu/branch/memory/mixed, then
 * runLockstep() of the two pipelines. One unit in four also runs the
 * timing oracle on the instrumented mixed-profile variant of its seed;
 * one in eight runs one injected fault of a seed-drawn class under the
 * restart runtime, with the paired-core vote on one in four of those.
 * Programs are a few hundred instructions on fresh rigs, so rig
 * set-up, block-cache translation and WCET analysis dominate — the
 * opposite regime to visa-fig2's long warm runs.
 *
 * The oracle and the injected runs use mixed-profile programs only:
 * on branch-profile programs the WCET analyzer exceeds its path cap
 * and one call costs up to a hundred times the median, so a handful
 * of seeds would decide a run's figures (NOTES.md).
 */

#include "perfbench/analysis.hh"
#include "verify/inject.hh"
#include "verify/lockstep.hh"
#include "verify/oracle.hh"
#include "verify/progen.hh"

using namespace visa;
using namespace visa::verify;

namespace perfbench
{
namespace
{

constexpr GenProfile profiles[4] = {GenProfile::Alu, GenProfile::Branch,
                                    GenProfile::Memory, GenProfile::Mixed};
/**
 * Instruction cap of the inject runs (visa-fuzz: 2 000 000). A
 * fault-free generated program retires at most GenParams::maxDynamic
 * (20 000) instructions, so a faulty one past five times that has hung;
 * at the default cap each hung paired vote (4x the cap) cost 1-2 s and
 * one or two of them decided a seed's throughput.
 */
constexpr std::uint64_t hangInstructions = 100'000;
/** planOf() repeats after this many units: eight blocks of four. */
constexpr std::size_t planUnits = 32;
/**
 * Programs per seed. Unit i runs program i mod poolUnits, so the seed
 * alone fixes the inputs and the work of a pass, whatever the host
 * speed; every later run of a program must repeat its first. A pass is
 * the workload's rotation cycle (~4 s); the pool is large enough that
 * the few programs whose faults hang average out between seeds.
 */
constexpr std::size_t poolUnits = 64 * planUnits;

enum Role
{
    LockstepOnly,
    WithOracle,
    WithInject,
};

/** The plan of unit @p i: role, profile and paired vote. */
struct UnitPlan
{
    Role role = LockstepOnly;
    GenProfile profile = GenProfile::Alu;
    bool paired = false;
};

/**
 * Unit i generates a program of profile i mod 4. Blocks of four
 * consecutive units share a role: one block in four adds the timing
 * oracle, one in eight an injected fault, with the paired vote on the
 * block's first unit. One unit in eight rather than one in four injects,
 * so that more than half of the units are lockstep-only and the median
 * lies inside that group instead of on its edge, where it would be the
 * slowest lockstep-only unit of the run.
 */
UnitPlan
planOf(std::size_t i)
{
    UnitPlan p;
    p.profile = profiles[i % 4];
    const std::size_t block = (i / 4) % 8;
    p.role = block % 4 == 1 ? WithOracle
             : block == 3   ? WithInject
                            : LockstepOnly;
    p.paired = p.role == WithInject && i % 4 == 0;
    return p;
}

/** Everything a unit produced that must repeat. */
struct UnitOutcome
{
    std::uint64_t digest = 0;
    bool injected = false;
    bool fired = false;
    bool detected = false;
    bool sdc = false;
    bool pairedChecked = false;
    bool pairedDetected = false;
};

class FuzzVerifyCampaign final : public Campaign
{
  public:
    explicit FuzzVerifyCampaign(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        // Warm the generator, the assembler, the pipelines and the
        // analyzer on the first plan period (the timed units check its
        // results), and time rig construction for its programs.
        for (std::size_t w = 0; w < planUnits; ++w) {
            UnitOutcome o;
            runOn(progenSeed(w), planOf(w), o);
            const GeneratedProgram g =
                generate(progenSeed(w), GenParams{planOf(w).profile});
            buildSim(spans, g.program, CpuKind::Simple);
            buildSim(spans, g.program, CpuKind::Complex);
        }
        outcomes_.clear();
    }

    std::size_t cycleUnits() const override { return poolUnits; }
    std::size_t prefixUnits() const override { return poolUnits; }

    UnitResult
    runUnit(std::size_t i) override
    {
        const std::size_t slot = i % poolUnits;
        UnitOutcome o;
        UnitResult r = runOn(progenSeed(slot), planOf(i), o);
        if (i < poolUnits) {
            outcomes_.push_back(o);
        } else if (o.digest != outcomes_[slot].digest && r.ok) {
            r.ok = false;
            r.error = strf("program %zu (seed %llu) differs from its first "
                           "run",
                           slot, (unsigned long long)progenSeed(slot));
        }
        return r;
    }

    std::string
    verify() override
    {
        // Every unit past the first pass already re-checked its program.
        return outcomes_.size() == poolUnits
                   ? ""
                   : "fuzz-verify: the first pass did not complete";
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const UnitOutcome &o : outcomes_)
            d.add(o.digest);
        return d.value();
    }

    std::vector<std::string>
    report() const override
    {
        const Counts c = counts();
        return {strf("fuzz-verify prefix: %llu inject runs, %llu fired, "
                     "%llu detected, %llu silent corruptions, paired vote "
                     "%llu/%llu",
                     c.injected, c.fired, c.detected, c.sdc,
                     c.pairedDetected, c.pairedChecked)};
    }

    void
    perLayer(Metrics &out) const override
    {
        const auto layers = layerTotals(spans, false);
        auto get = [&](const std::string &n) { return layer(layers, n); };
        out["verify.generate_ms"] = {get("verify.generate").meanMs(), "ms"};
        out["verify.lockstep_ms"] = {get("verify.lockstep").meanMs(), "ms"};
        out["verify.lockstep.ns_per_inst"] = {
            get("verify.lockstep").nsPerCount(), "ns/inst"};
        out["verify.oracle_ms"] = {get("verify.oracle").meanMs(), "ms"};
        out["verify.inject_ms"] = {get("verify.inject").meanMs(), "ms"};
        out["verify.inject_paired_ms"] = {
            get("verify.inject_paired").meanMs(), "ms"};
        const Counts c = counts();
        out["verify.inject.fired_ratio"] = {ratio(c.fired, c.injected),
                                            "ratio"};
        out["verify.inject.detected_ratio"] = {ratio(c.detected, c.fired),
                                               "ratio"};
        out["verify.inject.sdc_ratio"] = {ratio(c.sdc, c.fired), "ratio"};
        out["verify.inject.paired_detected_ratio"] = {
            ratio(c.pairedDetected, c.pairedChecked), "ratio"};
    }

  private:
    struct Counts
    {
        unsigned long long injected = 0, fired = 0, detected = 0, sdc = 0,
                           pairedChecked = 0, pairedDetected = 0;
    };

    Counts
    counts() const
    {
        Counts c;
        for (const UnitOutcome &o : outcomes_) {
            c.injected += o.injected;
            c.fired += o.fired;
            c.detected += o.detected;
            c.sdc += o.sdc;
            c.pairedChecked += o.pairedChecked;
            c.pairedDetected += o.pairedDetected;
        }
        return c;
    }

    std::uint64_t
    progenSeed(std::size_t i) const
    {
        return Rng(seed_ * 0x2545f4914f6cdd1dULL + i).next();
    }

    UnitResult
    runOn(std::uint64_t pseed, const UnitPlan &plan, UnitOutcome &o)
    {
        UnitResult r;
        Digest d;
        GenParams gp;
        gp.profile = plan.profile;
        GeneratedProgram g;
        {
            Scope sp(spans, "verify.generate");
            g = generate(pseed, gp);
        }
        d.add(g.source);
        LockstepResult ls;
        {
            Scope sp(spans, "verify.lockstep");
            ls = runLockstep(g.program);
            sp.count = ls.instructions;
        }
        r.simInsts = 2 * ls.instructions;    // both pipelines retire them
        d.add(static_cast<std::uint64_t>(ls.equivalent));
        d.add(ls.instructions);
        if (!ls.equivalent) {
            r.ok = false;
            r.error = strf("seed %llu: lockstep %s",
                           (unsigned long long)pseed,
                           ls.timedOut ? "timed out" : "diverged");
        }

        if (plan.role == WithOracle) {
            GenParams og;
            og.profile = GenProfile::Mixed;
            og.instrument = true;
            og.allowCalls = false;
            GeneratedProgram inst;
            {
                Scope sp(spans, "verify.generate");
                inst = generate(pseed, og);
            }
            OracleResult orc;
            {
                Scope sp(spans, "verify.oracle");
                orc = runTimingOracle(inst);
            }
            d.add(static_cast<std::uint64_t>(orc.ok));
            d.add(static_cast<std::uint64_t>(orc.subtasks));
            if (!orc.ok && r.ok) {
                r.ok = false;
                r.error = strf("seed %llu: timing oracle: %s",
                               (unsigned long long)pseed,
                               orc.report.c_str());
            }
        } else if (plan.role == WithInject) {
            InjectRunOptions io;
            io.profile = GenProfile::Mixed;
            io.maxInstructions = hangInstructions;
            io.pairedCheck = plan.paired;
            const FaultClass cls = static_cast<FaultClass>(
                Rng(pseed ^ 0xfa017c1a55ULL).below(numFaultClasses));
            InjectRunResult ir;
            {
                Scope sp(spans, plan.paired ? "verify.inject_paired"
                                            : "verify.inject");
                ir = runInjectProgram(pseed, cls, io);
            }
            // runInjectProgram folds host exceptions into its "trap"
            // outcome; an allocation refused by the address-space cap
            // (main.cc) is the simulator's failure, not the guest's.
            if (ir.report.find("bad_alloc") != std::string::npos && r.ok) {
                r.ok = false;
                r.error = strf("seed %llu %s: %s",
                               (unsigned long long)pseed,
                               faultClassName(cls), ir.report.c_str());
            }
            o.injected = true;
            o.fired = ir.fault.fired;
            o.detected = ir.outcome == InjectOutcome::DetectedWatchdog ||
                         ir.outcome == InjectOutcome::DetectedLockstep;
            o.sdc = ir.outcome == InjectOutcome::SilentCorruption;
            o.pairedChecked = ir.pairedChecked;
            o.pairedDetected = ir.pairedDetected;
            d.add(static_cast<std::uint64_t>(cls));
            d.add(static_cast<std::uint64_t>(ir.outcome));
            d.add(ir.fault.seq);
            d.add(static_cast<std::uint64_t>(ir.fault.pc));
            d.add(ir.fault.cycle);
            d.add(ir.detectionLatencyCycles);
            d.add(ir.completionSeconds);
            d.add(static_cast<std::uint64_t>(ir.restarts));
            d.add(static_cast<std::uint64_t>(ir.checksum));
            d.add(static_cast<std::uint64_t>(ir.pairedDetected));
        }
        o.digest = d.value();
        return r;
    }

    std::uint64_t seed_;
    std::vector<UnitOutcome> outcomes_;
};

} // namespace

std::unique_ptr<Campaign>
makeFuzzVerifyCampaign(std::uint64_t seed)
{
    return std::make_unique<FuzzVerifyCampaign>(seed);
}

} // namespace perfbench
