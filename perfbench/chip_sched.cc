/**
 * @file
 * chip-sched: one unit is one whole multi-task schedule — a fresh
 * MultiTaskScheduler, addTask() for each of eight tasks, then
 * run(jobsPerTask). Units rotate through three engines on the same
 * task set and job count: uni (1-core EDF), gedf (4-core global EDF,
 * the serial migrating engine) and pedf (4-core partitioned EDF, the
 * epoch engine on the worker pool). This is the workload where the
 * scheduler, the chip bus and the pool do the work.
 *
 * The members are fixed: the six Table-3 kernels plus crc and fir, so
 * the work per schedule does not depend on the seed (a seed-drawn
 * kernel mix moved host time per schedule by a quarter between seeds).
 * The seed draws their order, their period scales and the utilization;
 * of the drawn candidates the first is kept whose per-core instruction
 * load under the partitioner's worst-fit placement is within 7 % of the
 * mean (the best any placement of these eight reaches is 6.2 %), so
 * pedf measures the engine rather than the partitioner.
 */

#include <algorithm>
#include <array>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "perfbench/analysis.hh"
#include "workloads/clab.hh"

using namespace visa;

namespace perfbench
{
namespace
{

constexpr int setSize = 8;
constexpr int chipCores = 4;
/** Jobs of every task per schedule. */
constexpr int jobsPerTask = 2;
/** Budget stretch over the tight deadline (bench::makeTaskSetDefs). */
constexpr double budgetStretch = 1.25;
/** The task set's members (see the file comment). */
const char *const memberNames[setSize] = {"adpcm", "cnt", "fft", "lms",
                                          "mm",    "srt", "crc", "fir"};
/** Predicted max / mean per-core instructions a draw must reach. */
constexpr double acceptImbalance = 1.07;

enum Engine
{
    Uni,
    Gedf,
    Pedf,
    numEngines
};
const char *const engineName[numEngines] = {"uni", "gedf", "pedf"};
const char *const runSpan[numEngines] = {"sched.run.uni", "sched.run.gedf",
                                         "sched.run.pedf"};

/** Simulated results of one schedule that per-layer metrics read. */
struct ScheduleRecord
{
    std::uint64_t digest = 0;
    ScheduleOutcome out;
    std::uint64_t retired = 0;
    /** sched.bus.* scalars (multi-core engines only). */
    std::map<std::string, double> bus;
    std::vector<std::uint64_t> coreRetired;
};

class ChipSchedCampaign final : public Campaign
{
  public:
    ChipSchedCampaign(std::uint64_t seed, unsigned pedf_threads)
        : seed_(seed), pedfThreads_(pedf_threads)
    {
    }

    void
    setup() override
    {
        kernels_.clear();
        defs_.clear();
        for (const char *name : memberNames)
            kernels_.push_back(analyzeKernel(spans, name));
        Scope sp(spans, "bench.select_taskset");
        selectTaskSet();
        for (ScheduleRecord &r : ref_)
            r = ScheduleRecord{};
        haveRef_.fill(false);
    }

    std::size_t cycleUnits() const override { return numEngines; }
    std::size_t prefixUnits() const override { return numEngines; }

    UnitResult
    runUnit(std::size_t i) override
    {
        const Engine e = static_cast<Engine>(i % numEngines);
        ScheduleRecord rec;
        UnitResult r = schedule(e, rec);
        if (!r.ok)
            return r;
        if (!haveRef_[e]) {
            ref_[e] = rec;
            haveRef_[e] = true;
        } else if (rec.digest != ref_[e].digest) {
            r.ok = false;
            r.error = strf("%s schedule %zu differs from the first %s "
                           "schedule of this run",
                           engineName[e], i, engineName[e]);
        }
        return r;
    }

    std::string
    verify() override
    {
        spans.enabled = false;
        for (int e = 0; e < numEngines; ++e)
            if (!haveRef_[e])
                return strf("chip-sched: no %s schedule ran", engineName[e]);
        // The partitioned engine must not depend on the worker count.
        ::setenv("VISA_THREADS", "1", 1);
        ScheduleRecord one;
        UnitResult r = schedule(Pedf, one);
        ::setenv("VISA_THREADS", std::to_string(pedfThreads_).c_str(), 1);
        if (!r.ok)
            return "chip-sched: pedf at VISA_THREADS=1 failed: " + r.error;
        if (one.digest != ref_[Pedf].digest)
            return strf("chip-sched: pedf digest %016llx at VISA_THREADS=1 "
                        "vs %016llx at %u threads",
                        (unsigned long long)one.digest,
                        (unsigned long long)ref_[Pedf].digest,
                        pedfThreads_);
        return "";
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const ScheduleRecord &r : ref_)
            d.add(r.digest);
        return d.value();
    }

    std::vector<std::string>
    report() const override
    {
        std::string members;
        for (std::size_t i = 0; i < defs_.size(); ++i)
            members += strf("%s%s:%.2f", i ? "," : "",
                            defs_[i].name.c_str(), scales_[i]);
        std::vector<std::string> lines;
        lines.push_back(strf("chip-sched taskset %s util %.3f jobs/task %d "
                             "pedf threads %u predicted core imbalance %.4f",
                             members.c_str(), util_, jobsPerTask,
                             pedfThreads_, predictedImbalance_));
        for (int e = 0; e < numEngines; ++e)
            lines.push_back(strf(
                "chip-sched %-4s digest %016llx: %d jobs, %d dispatches, "
                "%d preemptions, %d checkpoint misses, %.3f ms simulated",
                engineName[e], (unsigned long long)ref_[e].digest,
                ref_[e].out.jobs, ref_[e].out.dispatches,
                ref_[e].out.preemptions, ref_[e].out.checkpointMisses,
                ref_[e].out.wallSeconds * 1e3));
        return lines;
    }

    void
    perLayer(Metrics &out) const override
    {
        const auto layers = layerTotals(spans, false);
        auto get = [&](const std::string &n) { return layer(layers, n); };
        for (int e = 0; e < numEngines; ++e) {
            const LayerTotals t = get(runSpan[e]);
            out[std::string("sched.run_ms.") + engineName[e]] = {t.meanMs(),
                                                                 "ms"};
            out[std::string("sched.ns_per_inst.") + engineName[e]] = {
                t.nsPerCount(), "ns/inst"};
        }
        out["sched.add_task_ms"] = {get("sched.add_task").meanMs(), "ms"};

        double jobs = 0, dispatches = 0, preemptions = 0, switches = 0;
        for (const ScheduleRecord &r : ref_) {
            jobs += r.out.jobs;
            dispatches += r.out.dispatches;
            preemptions += r.out.preemptions;
            switches += r.out.contextSwitches;
        }
        out["sched.dispatches_per_job"] = {ratio(dispatches, jobs),
                                           "count/job"};
        out["sched.preemptions_per_job"] = {ratio(preemptions, jobs),
                                            "count/job"};
        out["sched.context_switches_per_job"] = {ratio(switches, jobs),
                                                 "count/job"};

        // The partitioned engine's bus: its drain is what run_ms.pedf
        // pays for on the host.
        const ScheduleRecord &p = ref_[Pedf];
        auto bus = [&](const char *k) {
            auto it = p.bus.find(k);
            return it == p.bus.end() ? 0.0 : it->second;
        };
        const double req = bus("requests");
        out["chip.bus.requests_per_job"] = {ratio(req, p.out.jobs),
                                            "count/job"};
        out["chip.bus.bank_conflict_ratio"] = {
            ratio(bus("bank_conflicts"), req), "ratio"};
        out["chip.bus.bank_wait_ns_per_req"] = {
            ratio(bus("bank_wait_ns"), req), "ns/req"};
        out["chip.bus.l2_hit_ratio"] = {ratio(bus("l2_hits"), req), "ratio"};
        out["chip.bus.mshr_wait_ns_per_req"] = {
            ratio(bus("mshr_wait_ns"), req), "ns/req"};

        const LayerTotals pt = get(runSpan[Pedf]);
        const double par = pt.wallNs > 0
                               ? static_cast<double>(pt.cpuNs) / pt.wallNs
                               : 0.0;
        out["pool.parallelism"] = {par, "cpu_s/s"};
        out["pool.efficiency"] = {par / pedfThreads_, "ratio"};
        double mx = 0, sum = 0;
        for (std::uint64_t c : p.coreRetired) {
            mx = std::max(mx, static_cast<double>(c));
            sum += static_cast<double>(c);
        }
        out["sched.core_inst_imbalance"] = {
            sum > 0 ? mx / (sum / p.coreRetired.size()) : 0.0, "ratio"};
    }

  private:
    SchedTaskDef
    makeDef(const AnalyzedKernel &k, double scale) const
    {
        const bench::ExperimentSetup &s = k.setup;
        SchedTaskDef d;
        d.name = s.wl.name;
        d.program = &s.wl.program;
        d.wcet = s.wcet.get();
        d.dvs = &s.dvs;
        const double budget = budgetStretch * s.tightDeadline;
        d.runtime = s.runtimeConfig(budget);
        d.periodSeconds = setSize * budget * scale / util_;
        d.expectedChecksum = s.wl.expectedChecksum;
        return d;
    }

    /**
     * The partitioner's worst-fit placement (MultiTaskScheduler::
     * partitionedAssignment with the default SchedulerConfig),
     * reproduced so a candidate set can be judged without running it.
     */
    std::vector<int>
    predictPlacement(const std::vector<SchedTaskDef> &defs) const
    {
        const SchedulerConfig cfg;
        const double inflate =
            1.0 + (chipCores - 1) * cfg.memStallShare *
                      cfg.bus.busOccupancyNs / cfg.bus.memAccessNs;
        std::vector<int> core(defs.size());
        std::vector<double> load(chipCores, 0.0);
        for (std::size_t i = 0; i < defs.size(); ++i) {
            const SchedTaskDef &d = defs[i];
            const double sw = 2.0 * cfg.contextSwitchCycles /
                              (d.dvs->minFreq() * 1e6);
            const double u = (d.runtime.deadlineSeconds * inflate + sw) /
                             (1.0 - cfg.utilizationMargin) / d.periodSeconds;
            int c = 0;
            for (int j = 1; j < chipCores; ++j)
                if (load[j] < load[c])
                    c = j;
            core[i] = c;
            load[c] += u;
        }
        return core;
    }

    void
    selectTaskSet()
    {
        std::vector<int> members(setSize);
        std::iota(members.begin(), members.end(), 0);
        double total = 0;
        for (int k : members)
            total += static_cast<double>(kernels_[k]->instsPerJob);
        static const double scaleChoices[] = {1.0, 1.25, 1.5, 1.75, 2.0};

        Rng rng(seed_);
        util_ = 0.55 + 0.1 * rng.uniform();
        double best = 1e9;
        std::vector<int> best_order;
        std::vector<double> best_scales;
        for (int attempt = 0; attempt < 20000 && best > acceptImbalance;
             ++attempt) {
            std::vector<int> order = members;
            for (std::size_t i = order.size() - 1; i > 0; --i)
                std::swap(order[i], order[rng.below(i + 1)]);
            std::vector<double> scales(setSize);
            std::vector<SchedTaskDef> defs;
            for (int m = 0; m < setSize; ++m) {
                scales[m] = scaleChoices[rng.below(5)];
                defs.push_back(makeDef(*kernels_[order[m]], scales[m]));
            }
            const std::vector<int> place = predictPlacement(defs);
            std::vector<double> load(chipCores, 0.0);
            for (int m = 0; m < setSize; ++m)
                load[place[m]] +=
                    static_cast<double>(kernels_[order[m]]->instsPerJob);
            const double imb = *std::max_element(load.begin(), load.end()) /
                               (total / chipCores);
            if (imb < best) {
                best = imb;
                best_order = order;
                best_scales = scales;
            }
        }
        predictedImbalance_ = best;
        scales_ = best_scales;
        for (int m = 0; m < setSize; ++m)
            defs_.push_back(makeDef(*kernels_[best_order[m]],
                                    best_scales[m]));
    }

    SchedulerConfig
    configFor(Engine e) const
    {
        SchedulerConfig cfg;
        cfg.cores = e == Uni ? 1 : chipCores;
        cfg.placement = e == Gedf ? PlacementPolicy::Global
                                  : PlacementPolicy::Partitioned;
        return cfg;
    }

    UnitResult
    schedule(Engine e, ScheduleRecord &rec)
    {
        UnitResult r;
        MultiTaskScheduler sched(configFor(e));
        for (const SchedTaskDef &d : defs_) {
            Scope sp(spans, "sched.add_task");
            sched.addTask(d);
        }
        std::string err;
        {
            Scope sp(spans, "sched.admission");
            err = sched.admissionError();
        }
        if (!err.empty()) {
            r.ok = false;
            r.error = strf("%s: admission refused: %s", engineName[e],
                           err.c_str());
            return r;
        }
        {
            Scope sp(spans, runSpan[e]);
            rec.out = sched.run(jobsPerTask);
            for (int t = 0; t < sched.numTasks(); ++t)
                rec.retired += sched.taskStats(t).retired;
            sp.count = rec.retired;
        }
        r.simInsts = rec.retired;

        Scope sp(spans, "sched.collect");
        StatSet stats;
        sched.buildStats(stats);
        std::ostringstream text;
        stats.dump(text);
        Digest d;
        d.add(text.str());
        for (const JobRecord &j : sched.jobs()) {
            d.add(static_cast<std::uint64_t>(j.task));
            d.add(j.completionSeconds);
            d.add(j.busySeconds);
            d.add(static_cast<std::uint64_t>(j.preemptions));
        }
        for (int c : sched.assignment())
            d.add(static_cast<std::uint64_t>(c + 1));
        rec.digest = d.value();

        std::istringstream lines(text.str());
        std::string line;
        while (std::getline(lines, line)) {
            if (line.rfind("sched.bus.", 0) != 0)
                continue;
            std::istringstream f(line.substr(10));
            std::string key;
            double v = 0;
            if (f >> key >> v)
                rec.bus[key] = v;
        }
        if (e == Pedf) {
            rec.coreRetired.assign(chipCores, 0);
            const std::vector<int> &as = sched.assignment();
            for (int t = 0; t < sched.numTasks(); ++t)
                rec.coreRetired[static_cast<std::size_t>(as[t])] +=
                    sched.taskStats(t).retired;
        }

        int misses = 0, bad = 0;
        for (int t = 0; t < sched.numTasks(); ++t) {
            misses += sched.taskStats(t).deadlineMisses;
            bad += sched.taskStats(t).badChecksums;
        }
        if (misses || bad) {
            r.ok = false;
            r.error = strf("%s: %d deadline misses, %d bad checksums",
                           engineName[e], misses, bad);
        }
        return r;
    }

    std::uint64_t seed_;
    unsigned pedfThreads_;
    std::vector<std::unique_ptr<AnalyzedKernel>> kernels_;
    std::vector<SchedTaskDef> defs_;
    std::vector<double> scales_;
    double util_ = 0.6;
    double predictedImbalance_ = 0.0;
    std::array<ScheduleRecord, numEngines> ref_;
    std::array<bool, numEngines> haveRef_{};
};

} // namespace

std::unique_ptr<Campaign>
makeChipSchedCampaign(std::uint64_t seed, unsigned pedf_threads)
{
    return std::make_unique<ChipSchedCampaign>(seed, pedf_threads);
}

} // namespace perfbench
