/**
 * @file
 * visa-fig2: the paper's Figure 2 experiment as a closed-loop batch.
 * Each of the six Table-3 kernels runs a simple-fixed arm (EQ 2 on the
 * explicitly-safe pipeline) and a VISA arm (EQ 4 on the complex
 * pipeline), both metered with perfect clock gating as in
 * bench/power_arm.hh, at one deadline per kernel drawn from
 * [tight, loose]. One unit is one runTask() on one arm; units rotate
 * through the twelve arms. In every block of ten VISA instances one
 * seed-placed instance starts with flushed caches and predictors (the
 * Fig. 4 mechanism), so the drain / simple-mode / f_rec recovery path
 * runs too.
 */


#include "bench/power_arm.hh"
#include "perfbench/analysis.hh"
#include "workloads/clab.hh"

using namespace visa;

namespace perfbench
{
namespace
{

/** Instances per arm that every run completes: the digest, the
 *  simulated ratios and the power figure cover exactly these. */
constexpr int prefixInstances = 30;
/** One induced miss in every block of this many VISA instances. */
constexpr int induceBlock = 10;

/** What one runTask() produced. */
struct UnitRecord
{
    Word checksum = 0;
    std::uint64_t retired = 0;
    Cycles cycles = 0;
    MHz fSpec = 0;
    MHz fRec = 0;
    bool missed = false;
    int switches = 0;
};

/** Simulated counters of one arm after its prefix instances. */
struct ArmSnapshot
{
    double avgPowerW = 0.0;
    std::uint64_t icAccesses = 0, icMisses = 0;
    std::uint64_t dcAccesses = 0, dcMisses = 0;
    std::uint64_t blockHits = 0, blocksDecoded = 0;
    int checkpointMisses = 0;
    std::uint64_t retired = 0, cycles = 0, switches = 0;
};

struct Arm
{
    bool visa = false;
    int kernel = 0;
    const AnalyzedKernel *k = nullptr;
    std::unique_ptr<Sim> sim;
    std::unique_ptr<PowerMeter> meter;
    int instances = 0;
    ArmSnapshot snap;
};

/** Everything setup() builds: analyzed kernels and their twelve arms. */
struct ArmSet
{
    std::vector<std::unique_ptr<AnalyzedKernel>> kernels;
    std::vector<Arm> arms;    ///< kernel-major: simple, then VISA
};

class Fig2Campaign final : public Campaign
{
  public:
    explicit Fig2Campaign(std::uint64_t seed) : seed_(seed)
    {
        Rng rng(seed);
        for (std::size_t k = 0; k < clabNames().size(); ++k)
            deadlineFrac_.push_back(rng.uniform());
    }

    void
    setup() override
    {
        auto set = std::make_unique<ArmSet>();
        const std::vector<std::string> &names = clabNames();
        for (const std::string &name : names)
            set->kernels.push_back(analyzeKernel(spans, name));
        for (std::size_t k = 0; k < names.size(); ++k) {
            const bench::ExperimentSetup &s = set->kernels[k]->setup;
            const double deadline =
                s.tightDeadline +
                deadlineFrac_[k] * (s.looseDeadline - s.tightDeadline);
            set->arms.push_back(makeArm(*set->kernels[k],
                                        static_cast<int>(k), false,
                                        deadline));
            set->arms.push_back(makeArm(*set->kernels[k],
                                        static_cast<int>(k), true,
                                        deadline));
        }
        // The previous set stays alive as the replay target of verify().
        previous_ = std::move(current_);
        current_ = std::move(set);
        records_.clear();
    }

    std::size_t cycleUnits() const override { return current_->arms.size(); }

    std::size_t
    prefixUnits() const override
    {
        return prefixInstances * current_->arms.size();
    }

    UnitResult
    runUnit(std::size_t i) override
    {
        UnitRecord rec;
        UnitResult r = step(*current_, i, rec);
        if (i < prefixUnits())
            records_.push_back(rec);
        return r;
    }

    std::string
    verify() override
    {
        // Replay the prefix on the arm set the previous setup() built
        // (a fresh analysis and fresh rigs): every record must repeat.
        spans.enabled = false;
        if (!previous_)
            fatal("visa-fig2: verify() needs two setup() calls");
        for (std::size_t i = 0; i < prefixUnits(); ++i) {
            UnitRecord rec;
            step(*previous_, i, rec);
            const UnitRecord &a = records_[i];
            if (rec.checksum != a.checksum || rec.retired != a.retired ||
                rec.cycles != a.cycles || rec.fSpec != a.fSpec ||
                rec.fRec != a.fRec || rec.missed != a.missed ||
                rec.switches != a.switches)
                return strf("visa-fig2: unit %zu differs on replay "
                                 "(cycles %llu vs %llu)",
                                 i, (unsigned long long)rec.cycles,
                                 (unsigned long long)a.cycles);
        }
        if (digestOf(*previous_) != digest())
            return "visa-fig2: prefix power/counter digest differs on "
                   "replay";
        return "";
    }

    std::uint64_t
    digest() const override
    {
        return current_ ? digestOf(*current_) : 0;
    }

    /** Mean over kernels of the VISA arm's saving against simple-fixed
     *  (savingsPercent of fig2_power), after the prefix instances. */
    double
    savingsPercent() const
    {
        double sum = 0.0;
        const auto &arms = current_->arms;
        for (std::size_t a = 0; a + 1 < arms.size(); a += 2)
            sum += bench::savingsPercent(arms[a + 1].snap.avgPowerW,
                                         arms[a].snap.avgPowerW);
        return sum / static_cast<double>(arms.size() / 2);
    }

    std::vector<std::string>
    report() const override
    {
        std::vector<std::string> lines;
        const auto &arms = current_->arms;
        for (std::size_t a = 0; a + 1 < arms.size(); a += 2) {
            const Arm &sp = arms[a];
            const Arm &vp = arms[a + 1];
            const bench::ExperimentSetup &s = sp.k->setup;
            lines.push_back(strf(
                "visa-fig2 %-6s deadline %.1f us (tight %.1f, loose "
                "%.1f): simple %.4f W, visa %.4f W, saving %.2f %%",
                s.wl.name.c_str(), deadlineOf(sp) * 1e6,
                s.tightDeadline * 1e6, s.looseDeadline * 1e6,
                sp.snap.avgPowerW, vp.snap.avgPowerW,
                bench::savingsPercent(vp.snap.avgPowerW,
                                      sp.snap.avgPowerW)));
        }
        lines.push_back(strf(
            "visa-fig2 sim_power_savings_pct %.4f (paper Fig. 2: 43-61 %% "
            "at tight deadlines, 22-48 %% at loose; deadlines here are "
            "drawn between the two; the model is not validated against "
            "hardware)",
            savingsPercent()));
        return lines;
    }

    void
    perLayer(Metrics &out) const override
    {
        const auto layers = layerTotals(spans, false);
        auto get = [&](const std::string &n) { return layer(layers, n); };
        out["core.runtime.visa.ns_per_inst"] = {
            get("core.runtime.visa").nsPerCount(), "ns/inst"};
        out["core.runtime.simple.ns_per_inst"] = {
            get("core.runtime.simple").nsPerCount(), "ns/inst"};
        out["core.runtime.visa_induced.ns_per_inst"] = {
            get("core.runtime.visa_induced").nsPerCount(), "ns/inst"};

        ArmSnapshot v, s, all;
        int visa_tasks = 0;
        for (const Arm &a : current_->arms) {
            ArmSnapshot &dst = a.visa ? v : s;
            for (ArmSnapshot *d : {&dst, &all}) {
                d->icAccesses += a.snap.icAccesses;
                d->icMisses += a.snap.icMisses;
                d->dcAccesses += a.snap.dcAccesses;
                d->dcMisses += a.snap.dcMisses;
                d->blockHits += a.snap.blockHits;
                d->blocksDecoded += a.snap.blocksDecoded;
                d->checkpointMisses += a.snap.checkpointMisses;
                d->retired += a.snap.retired;
                d->cycles += a.snap.cycles;
                d->switches += a.snap.switches;
                d->avgPowerW += a.snap.avgPowerW;
            }
            if (a.visa)
                visa_tasks += prefixInstances;
        }
        const double arms_per_kind = current_->arms.size() / 2.0;
        out["cpu.ooo.ipc"] = {ratio(v.retired, v.cycles), "inst/cycle"};
        out["cpu.simple.ipc"] = {ratio(s.retired, s.cycles), "inst/cycle"};
        out["mem.l1i_miss_rate"] = {ratio(all.icMisses, all.icAccesses),
                                    "ratio"};
        out["mem.l1d_miss_rate"] = {ratio(all.dcMisses, all.dcAccesses),
                                    "ratio"};
        out["isa.block_cache.hit_ratio"] = {
            ratio(all.blockHits, all.blockHits + all.blocksDecoded),
            "ratio"};
        out["core.runtime.checkpoint_miss_ratio"] = {
            ratio(v.checkpointMisses, visa_tasks), "ratio"};
        out["core.runtime.freq_switches_per_task"] = {
            ratio(all.switches, 2 * visa_tasks), "count/task"};
        out["power.avg_w.visa"] = {v.avgPowerW / arms_per_kind, "W"};
        out["power.avg_w.simple"] = {s.avgPowerW / arms_per_kind, "W"};
        out["sim_power_savings_pct"] = {savingsPercent(), "%"};
    }

  private:
    /** Seed-placed induced miss: one instance in each block of ten,
     *  never the block's first (the PET re-evaluation task). */
    bool
    induced(int kernel, int t) const
    {
        Rng r(seed_ ^ (0x51ed270b27f1e4a3ULL * (kernel + 1)) ^
              static_cast<std::uint64_t>(t / induceBlock));
        return t % induceBlock ==
               1 + static_cast<int>(r.below(induceBlock - 1));
    }

    double
    deadlineOf(const Arm &a) const
    {
        return a.sim->runtime().deadlineSeconds();
    }

    Arm
    makeArm(const AnalyzedKernel &k, int kernel, bool visa, double deadline)
    {
        const bench::ExperimentSetup &s = k.setup;
        const RuntimeConfig cfg = s.runtimeConfig(deadline);
        Arm arm;
        arm.visa = visa;
        arm.kernel = kernel;
        arm.k = &k;
        arm.sim = buildSim(spans, s.wl.program,
                           visa ? RuntimeKind::Visa
                                : RuntimeKind::SimpleFixed,
                           *s.wcet, s.dvs, cfg);
        DvsRuntime &rt = arm.sim->runtime();
        if (visa) {
            // Off-line PET seeding exactly as runComplexArm does it.
            MHz probe = s.dvs.maxFreq();
            for (int it = 0; it < 3; ++it) {
                std::vector<std::uint64_t> pets;
                {
                    Scope sp(spans, "core.pet_profile");
                    pets = profileComplexAets(s.wl.program,
                                              s.wl.numSubtasks, 1.03,
                                              probe);
                }
                rt.pets().seed(pets);
                FreqPair pair;
                {
                    Scope sp(spans, "core.deadline_solve");
                    pair = solveVisaSpeculation(
                        *s.wcet, rt.pets(), s.dvs, deadline,
                        cfg.ovhdSeconds,
                        cfg.dvsSoftwareCycles + cfg.drainBudgetCycles);
                }
                if (!pair.feasible || pair.fSpec == probe)
                    break;
                probe = pair.fSpec;
            }
        }
        arm.meter = std::make_unique<PowerMeter>(
            arm.sim->cpu(),
            visa ? complexEnergyModel() : simpleFixedEnergyModel(), s.dvs,
            ClockGating::Perfect);
        rt.attachMeter(arm.meter.get());
        return arm;
    }

    UnitResult
    step(ArmSet &set, std::size_t i, UnitRecord &rec)
    {
        Arm &arm = set.arms[i % set.arms.size()];
        const int t = arm.instances++;
        const bool induce = arm.visa && induced(arm.kernel, t);
        DvsRuntime &rt = arm.sim->runtime();
        Cpu &cpu = arm.sim->cpu();
        const MHz f0 = cpu.frequency();
        TaskStats ts;
        {
            Scope sp(spans, arm.visa ? "core.runtime.visa"
                                     : "core.runtime.simple");
            ts = rt.runTask(induce);
            sp.count = ts.retired;
            if (arm.visa && ts.missedCheckpoint)
                sp.rename("core.runtime.visa_induced");
        }
        rec.checksum = ts.checksum;
        rec.retired = ts.retired;
        rec.cycles = cpu.cycles();
        rec.fSpec = ts.fSpec;
        rec.fRec = ts.fRec;
        rec.missed = ts.missedCheckpoint;
        rec.switches = (ts.fSpec != f0 ? 1 : 0) +
                       (ts.missedCheckpoint && ts.fRec != ts.fSpec ? 1 : 0);

        if (t < prefixInstances) {
            ArmSnapshot &sn = arm.snap;
            sn.retired += rec.retired;
            sn.cycles += rec.cycles;
            sn.switches += static_cast<std::uint64_t>(rec.switches);
            if (t == prefixInstances - 1) {
                sn.avgPowerW = arm.meter->averagePowerWatts();
                sn.icAccesses = cpu.icache().accesses();
                sn.icMisses = cpu.icache().misses();
                sn.dcAccesses = cpu.dcache().accesses();
                sn.dcMisses = cpu.dcache().misses();
                const BlockCacheStats bc = cpu.execCore().blockCacheStats();
                sn.blockHits = bc.blockHits;
                sn.blocksDecoded = bc.blocksDecoded;
                sn.checkpointMisses = rt.stats().checkpointMisses;
            }
        }

        UnitResult r;
        r.simInsts = ts.retired;
        const Word want = arm.k->setup.wl.expectedChecksum;
        if (!ts.checksumReported || ts.checksum != want)
            r.error = strf("%s %s instance %d: checksum 0x%x, want "
                                "0x%x",
                                arm.k->setup.wl.name.c_str(),
                                arm.visa ? "visa" : "simple", t,
                                ts.checksum, want);
        else if (!ts.deadlineMet)
            r.error = strf("%s %s instance %d: deadline missed",
                                arm.k->setup.wl.name.c_str(),
                                arm.visa ? "visa" : "simple", t);
        r.ok = r.error.empty();
        return r;
    }

    std::uint64_t
    digestOf(const ArmSet &set) const
    {
        Digest d;
        for (const UnitRecord &r : records_) {
            d.add(static_cast<std::uint64_t>(r.checksum));
            d.add(r.retired);
            d.add(r.cycles);
            d.add(static_cast<std::uint64_t>(r.fSpec));
            d.add(static_cast<std::uint64_t>(r.fRec));
            d.add(static_cast<std::uint64_t>(r.missed));
            d.add(static_cast<std::uint64_t>(r.switches));
        }
        for (const Arm &a : set.arms) {
            d.add(a.snap.avgPowerW);
            d.add(a.snap.icMisses);
            d.add(a.snap.dcMisses);
            d.add(a.snap.blockHits);
            d.add(static_cast<std::uint64_t>(a.snap.checkpointMisses));
        }
        return d.value();
    }

    std::uint64_t seed_;
    std::vector<double> deadlineFrac_;
    std::unique_ptr<ArmSet> current_;
    std::unique_ptr<ArmSet> previous_;
    std::vector<UnitRecord> records_;
};

} // namespace

std::unique_ptr<Campaign>
makeFig2Campaign(std::uint64_t seed)
{
    return std::make_unique<Fig2Campaign>(seed);
}

} // namespace perfbench
