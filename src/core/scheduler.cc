#include "core/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <numeric>

#include "chip/quantum.hh"
#include "sim/logging.hh"

namespace visa
{

namespace
{

std::string
formatted(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

} // anonymous namespace

/** One admitted task: its private rig plus the scheduler's job state. */
struct MultiTaskScheduler::ManagedTask
{
    SchedTaskDef def;

    // The rig: every task keeps its own cycle/watchdog/memory domain,
    // so preemption freezes exactly this task's watchdog and nothing
    // else (member order is construction order; the CPU references
    // mem/platform/memctrl).
    MainMemory mem;
    Platform platform;
    MemController memctrl;
    std::unique_ptr<Cpu> cpu;
    std::unique_ptr<DvsRuntime> rt;

    // Job state of the current period.
    int released = 0;              ///< jobs released so far
    int done = 0;                  ///< jobs completed so far
    bool ready = false;            ///< a released job awaits completion
    double releaseNominal = 0.0;   ///< r_k of the current job
    double deadline = 0.0;         ///< absolute deadline r_k + T
    int jobPreemptions = 0;
    double jobBusy = 0.0;
    /** Wall time from which the current job may (re)start: its release,
     *  or the preemption point it was last suspended at (multi-core
     *  runs; a core must not run a job from its local future). */
    double avail = 0.0;
    /** Core whose engine holds this job's context (-1 = none); a
     *  global job migrates only while suspended. */
    int host = -1;

    SchedTaskStats stats;
};

MultiTaskScheduler::MultiTaskScheduler(SchedulerConfig cfg)
    : cfg_(cfg)
{
}

MultiTaskScheduler::~MultiTaskScheduler() = default;

int
MultiTaskScheduler::addTask(const SchedTaskDef &def)
{
    if (!def.program || !def.wcet || !def.dvs)
        fatal("scheduler: task '%s' needs program, wcet and dvs",
              def.name.c_str());
    if (def.periodSeconds <= 0.0)
        fatal("scheduler: task '%s' needs a positive period",
              def.name.c_str());
    auto t = std::make_unique<ManagedTask>();
    t->def = def;
    t->mem.loadProgram(*def.program);
    if (def.complexMachine) {
        auto cpu = std::make_unique<OooCpu>(*def.program, t->mem,
                                            t->platform, t->memctrl);
        t->rt = std::make_unique<VisaComplexRuntime>(
            *cpu, *def.program, t->mem, *def.wcet, *def.dvs, def.runtime);
        t->cpu = std::move(cpu);
    } else {
        auto cpu = std::make_unique<SimpleCpu>(*def.program, t->mem,
                                               t->platform, t->memctrl);
        t->rt = std::make_unique<SimpleFixedRuntime>(
            *cpu, *def.program, t->mem, *def.wcet, *def.dvs, def.runtime);
        t->cpu = std::move(cpu);
    }
    t->stats.minSlackSeconds = def.periodSeconds;
    tasks_.push_back(std::move(t));
    return numTasks() - 1;
}

double
MultiTaskScheduler::switchSeconds(MHz f) const
{
    return static_cast<double>(cfg_.contextSwitchCycles) / (f * 1e6);
}

double
MultiTaskScheduler::nominalRelease(const ManagedTask &t) const
{
    return t.def.phaseSeconds + t.released * t.def.periodSeconds;
}

double
MultiTaskScheduler::interferenceFactor() const
{
    if (cfg_.cores <= 1)
        return 1.0;
    // Worst case, every shared-memory access in B_i queues behind one
    // in-flight access from each of the other m-1 cores; memStallShare
    // bounds the fraction of B_i that is such accesses.
    const double perAccess = cfg_.bus.memAccessNs > 0.0
        ? cfg_.bus.busOccupancyNs / cfg_.bus.memAccessNs
        : 0.0;
    return 1.0 + (cfg_.cores - 1) * cfg_.memStallShare * perAccess;
}

double
MultiTaskScheduler::inflatedDemand(int task) const
{
    const SchedTaskDef &d =
        tasks_[static_cast<std::size_t>(task)]->def;
    // Two context switches per job (in and out), costed at the slowest
    // clock the governor could pick. The configured margin inflates
    // demand rather than deflating the bound, so the reported
    // utilization stays recognizable.
    const double sw = 2.0 * switchSeconds(d.dvs->minFreq());
    return (d.runtime.deadlineSeconds * interferenceFactor() + sw) /
           (1.0 - cfg_.utilizationMargin);
}

std::vector<int>
MultiTaskScheduler::partitionedAssignment() const
{
    const int m = cfg_.cores;
    std::vector<int> assign(static_cast<std::size_t>(numTasks()), -1);
    std::vector<double> load(static_cast<std::size_t>(m), 0.0);
    for (int i = 0; i < numTasks(); ++i) {
        const double u = inflatedDemand(i) /
                         tasks_[static_cast<std::size_t>(i)]
                             ->def.periodSeconds;
        int core;
        if (i < static_cast<int>(cfg_.affinity.size()) &&
            cfg_.affinity[static_cast<std::size_t>(i)] >= 0) {
            core = cfg_.affinity[static_cast<std::size_t>(i)];
        } else {
            // Worst-fit: the least-loaded core; strict < keeps the
            // lowest id on ties, so placement is deterministic.
            core = 0;
            for (int c = 1; c < m; ++c)
                if (load[static_cast<std::size_t>(c)] <
                    load[static_cast<std::size_t>(core)])
                    core = c;
        }
        assign[static_cast<std::size_t>(i)] = core;
        load[static_cast<std::size_t>(core)] += u;
    }
    return assign;
}

std::string
MultiTaskScheduler::admissionError() const
{
    if (tasks_.empty())
        return "no tasks";
    if (cfg_.cores < 1)
        return "cores must be >= 1";
    for (const auto &tp : tasks_) {
        const SchedTaskDef &d = tp->def;
        const double budget = d.runtime.deadlineSeconds;
        if (budget > d.periodSeconds)
            return formatted("task '%s': budget %.3g ms exceeds its "
                             "period %.3g ms",
                             d.name.c_str(), budget * 1e3,
                             d.periodSeconds * 1e3);
        // Single-task feasibility of the budget: the task must have a
        // safe schedule within B_i on its own machine — statically, or
        // by frequency speculation with conservatively seeded PETs.
        bool feasible =
            solveStaticFrequency(*d.wcet, *d.dvs, budget) != 0;
        if (!feasible) {
            PetEstimator pets(d.wcet->numSubtasks(),
                              d.runtime.petPolicy);
            std::vector<std::uint64_t> seed;
            for (int k = 0; k < d.wcet->numSubtasks(); ++k)
                seed.push_back(
                    d.wcet->subtaskCycles(k, d.dvs->maxFreq()));
            pets.seed(seed);
            const FreqPair pair = d.complexMachine
                ? solveVisaSpeculation(
                      *d.wcet, pets, *d.dvs, budget, d.runtime.ovhdSeconds,
                      d.runtime.dvsSoftwareCycles +
                          d.runtime.drainBudgetCycles)
                : solveConventionalSpeculation(
                      *d.wcet, pets, *d.dvs, budget, d.runtime.ovhdSeconds,
                      d.runtime.dvsSoftwareCycles +
                          static_cast<Cycles>(d.wcet->numSubtasks()) *
                              d.runtime.armSlackCycles);
            feasible = pair.feasible;
        }
        if (!feasible)
            return formatted("task '%s': budget %.3g ms is infeasible "
                             "even at the top operating point",
                             d.name.c_str(), budget * 1e3);
    }

    // Compose the per-task feasibility above with a placement-aware
    // test over the inflated demands (inflatedDemand(): two context
    // switches per job, and on a multi-core chip the cross-core
    // shared-memory interference bound). One core is the partitioned
    // test with a single partition.
    const int m = cfg_.cores;
    for (std::size_t i = 0; i < cfg_.affinity.size(); ++i)
        if (cfg_.affinity[i] >= m)
            return formatted("affinity: task %d pinned to core %d of a "
                             "%d-core chip",
                             static_cast<int>(i), cfg_.affinity[i], m);
    if (m > 1 && cfg_.placement == PlacementPolicy::Global) {
        if (cfg_.policy != SchedPolicy::Edf)
            return "global placement supports EDF only";
        double total = 0.0;
        double umax = 0.0;
        for (int i = 0; i < numTasks(); ++i) {
            const double u =
                inflatedDemand(i) /
                tasks_[static_cast<std::size_t>(i)]->def.periodSeconds;
            if (u > 1.0)
                return formatted(
                    "G-EDF: task '%s': interference-inflated "
                    "utilization %.3f exceeds 1",
                    tasks_[static_cast<std::size_t>(i)]
                        ->def.name.c_str(),
                    u);
            total += u;
            umax = std::max(umax, u);
        }
        const double bound = m - (m - 1) * umax;
        if (total > bound)
            return formatted("G-EDF: inflated utilization %.3f exceeds "
                             "the GFB bound %.3f (m=%d, Umax=%.3f)",
                             total, bound, m, umax);
        return "";
    }
    const std::vector<int> assign = partitionedAssignment();
    const char *const tag = m == 1 ? "" : "P-";
    for (int c = 0; c < m; ++c) {
        std::vector<PeriodicTask> part;
        for (int i = 0; i < numTasks(); ++i)
            if (assign[static_cast<std::size_t>(i)] == c)
                part.push_back(
                    {inflatedDemand(i),
                     tasks_[static_cast<std::size_t>(i)]
                         ->def.periodSeconds});
        if (part.empty())
            continue;
        if (cfg_.policy == SchedPolicy::Edf) {
            if (!edfSchedulable(part))
                return formatted("%sEDF: core %d: interference-inflated "
                                 "utilization %.3f exceeds 1",
                                 tag, c, utilization(part));
        } else if (!rmResponseTimeFeasible(part)) {
            return formatted("%sRM: core %d: response-time analysis "
                             "rejects the partition (utilization %.3f)",
                             tag, c, utilization(part));
        }
    }
    return "";
}

/**
 * One core's scheduler. It owns the core's local wall clock, the task
 * whose context it holds, its DVS slot and its counters, and it holds
 * the one copy of every scheduling step: release, pick, dispatch,
 * slice and completion. The drivers below only decide which engine
 * advances when. An engine writes only its own state, its candidate
 * tasks' rigs and stats, its bus clock/lane, and the outcome and job
 * sinks its driver gave it — so engines over disjoint candidate sets
 * can run on concurrent threads.
 */
struct MultiTaskScheduler::CoreEngine
{
    MultiTaskScheduler &s;
    int id;
    /** Stamp this core's id on its events (multi-core chips); a single
     *  core leaves the tracer's stamp alone, like the classic rig. */
    bool stamp;
    int jobsPerTask;
    double horizon;
    /** Tasks this core may run, ascending: its partition, or every
     *  task (one core, or global placement). */
    std::vector<int> cands{};
    ScheduleOutcome *out = nullptr;
    std::vector<JobRecord> *jobs = nullptr;

    double w = 0.0;     ///< local wall clock
    int onCore = -1;    ///< task dispatched here (-1 = idle)
    int lastOn = -1;    ///< last task whose context is loaded here
    MHz freq = 0;       ///< this core's DVS slot
    bool done = false;
    CoreStats cs{};

    ManagedTask &
    task(int i) const
    {
        return *s.tasks_[static_cast<std::size_t>(i)];
    }

    bool
    pendingRelease(const ManagedTask &t) const
    {
        return t.released < jobsPerTask && t.done == t.released &&
               !t.ready;
    }

    bool
    allDone() const
    {
        for (int i : cands) {
            const ManagedTask &t = task(i);
            if (t.released < jobsPerTask || t.done < t.released)
                return false;
        }
        return true;
    }

    /**
     * Stamp a scheduler event at the local wall (integer nanoseconds
     * in the cycle field: per-task cycle domains are incomparable).
     * Releases are not tied to a core and stay unstamped.
     */
    void
    event(EventKind k, int i, std::uint64_t b, std::uint64_t c,
          bool release = false) const
    {
        Tracer *const tr = currentTracer();
        if (!tr)
            return;
        const Cycles off = tr->cycleOffset();
        const int prevCore = tr->coreId();
        tr->setCycleOffset(0);
        if (stamp)
            tr->setCoreId(release ? -1 : id);
        tr->record(k, static_cast<Cycles>(std::llround(w * 1e9)),
                   static_cast<std::uint64_t>(i), b, c, w);
        tr->setCoreId(prevCore);
        tr->setCycleOffset(off);
    }

    /**
     * Release every candidate job due at the local wall. A task
     * re-releases only after its previous job completed (jobs of one
     * task do not overlap; an overrun shows up as a deadline miss).
     */
    void
    releaseDue()
    {
        for (int i : cands) {
            ManagedTask &t = task(i);
            if (!pendingRelease(t) || s.nominalRelease(t) > w + 1e-15)
                continue;
            t.releaseNominal = s.nominalRelease(t);
            t.deadline = t.releaseNominal + t.def.periodSeconds;
            t.ready = true;
            t.avail = t.releaseNominal;
            t.jobPreemptions = 0;
            t.jobBusy = 0.0;
            ++t.released;
            event(EventKind::SchedRelease, i,
                  static_cast<std::uint64_t>(t.released - 1), 0, true);
        }
    }

    /**
     * The highest-priority job this core may run now: ready, not live
     * on another core, and not released or suspended in this core's
     * future. Strict < keeps the lowest task index on ties — the
     * deterministic tie-break the tests pin down. @return -1 if none.
     */
    int
    pick() const
    {
        int best = -1;
        double bestKey = 0.0;
        for (int i : cands) {
            const ManagedTask &t = task(i);
            if (!t.ready || (t.host >= 0 && t.host != id) ||
                t.avail > w + 1e-15)
                continue;
            const double key = s.cfg_.policy == SchedPolicy::Edf
                ? t.deadline
                : t.def.periodSeconds;
            if (best < 0 || key < bestKey) {
                best = i;
                bestKey = key;
            }
        }
        return best;
    }

    /** This core's next event while idle: a fresh release, or a
     *  suspended job becoming available to it. */
    double
    nextEvent() const
    {
        double tn = std::numeric_limits<double>::infinity();
        for (int i : cands) {
            const ManagedTask &t = task(i);
            if (pendingRelease(t))
                tn = std::min(tn, s.nominalRelease(t));
            else if (t.ready && t.host < 0)
                tn = std::min(tn, t.avail);
        }
        return tn;
    }

    void
    idleTo(double target)
    {
        if (target <= w)
            return;
        cs.idleSeconds += target - w;
        out->idleSeconds += target - w;
        w = target;
    }

    /** Charge execution @p r of task @p i to the wall and the task. */
    void
    charge(int i, const StepResult &r)
    {
        ManagedTask &t = task(i);
        w += r.ranSeconds;
        cs.busySeconds += r.ranSeconds;
        t.jobBusy += r.ranSeconds;
        t.stats.busySeconds += r.ranSeconds;
        if (r.recovered) {
            ++t.stats.checkpointMisses;
            ++out->checkpointMisses;
            event(EventKind::SchedRecovery, i,
                  static_cast<std::uint64_t>(
                      std::max(0, t.rt->activeMissedSubtask())),
                  0);
        }
    }

    /** Make @p next the running task (possibly preempting). */
    void
    dispatch(int next)
    {
        ManagedTask &t = task(next);
        if (onCore >= 0) {
            // Retire the outgoing task's in-flight instructions; the
            // cycles are its own execution time. A watchdog expiry
            // surfacing here takes the recovery path before the task
            // is suspended — available to any core from this wall time
            // on (its context ships with its private rig).
            const int o = onCore;
            ManagedTask &out_t = task(o);
            charge(o, out_t.rt->preemptDrain());
            ++out_t.jobPreemptions;
            ++out_t.stats.preemptions;
            ++out->preemptions;
            out_t.avail = w;
            out_t.host = -1;
            event(EventKind::SchedPreempt, o,
                  static_cast<std::uint64_t>(out_t.released - 1),
                  static_cast<std::uint64_t>(next));
        }
        if (!t.rt->instanceActive()) {
            const int job = t.released - 1;
            if (t.def.forceMissEvery > 0 && job % t.def.forceMissEvery == 0)
                t.rt->forceNextMiss(t.def.forceMissIncrement);
            const bool induce = t.def.induceMissEvery > 0 && job > 0 &&
                                job % t.def.induceMissEvery == 0;
            t.rt->beginInstance(induce);
        }
        // The governor resolves over this core's candidates: each core
        // is its own DVS domain.
        const MHz requested = t.rt->requestedFrequency();
        MHz f = requested;
        if (s.cfg_.governor == GovernorPolicy::MaxRequest)
            for (int i : cands) {
                const ManagedTask &u = task(i);
                if (u.ready && u.rt->instanceActive())
                    f = std::max(f, u.rt->requestedFrequency());
            }
        if (f != requested)
            t.rt->overrideFrequency(f);
        if (freq != 0 && f != freq)
            ++out->freqChanges;
        freq = f;
        if (lastOn != next) {
            // Context-switch cost: wall time only, charged to no
            // task's CPU — it must not tick any watchdog.
            const double sw = s.switchSeconds(f);
            w += sw;
            out->switchOverheadSeconds += sw;
            ++out->contextSwitches;
            ++cs.contextSwitches;
        }
        onCore = next;
        lastOn = next;
        t.host = id;
        ++out->dispatches;
        ++cs.dispatches;
        event(EventKind::SchedDispatch, next,
              static_cast<std::uint64_t>(t.released - 1),
              static_cast<std::uint64_t>(f));
    }

    /** Record the completion of task @p i's current job. */
    void
    complete(int i)
    {
        ManagedTask &t = task(i);
        const TaskStats ts = t.rt->finishInstance();
        JobRecord jr;
        jr.task = i;
        jr.job = t.released - 1;
        jr.releaseSeconds = t.releaseNominal;
        jr.completionSeconds = w;
        jr.deadlineSeconds = t.deadline;
        jr.deadlineMet = w <= t.deadline + 1e-12;
        jr.missedCheckpoint = ts.missedCheckpoint;
        jr.preemptions = t.jobPreemptions;
        jr.busySeconds = t.jobBusy;
        jobs->push_back(jr);
        ++out->jobs;

        SchedTaskStats &st = t.stats;
        ++st.jobs;
        st.retired += ts.retired;
        if (!jr.deadlineMet) {
            ++st.deadlineMisses;
            ++out->deadlineMisses;
        }
        if (t.def.expectedChecksum &&
            (!ts.checksumReported || ts.checksum != t.def.expectedChecksum))
            ++st.badChecksums;
        const double slack = t.deadline - w;
        if (st.jobs == 1 || slack < st.minSlackSeconds)
            st.minSlackSeconds = slack;
        st.maxResponseSeconds =
            std::max(st.maxResponseSeconds, w - t.releaseNominal);

        t.ready = false;
        ++t.done;
        event(EventKind::SchedComplete, i,
              static_cast<std::uint64_t>(jr.job), jr.deadlineMet ? 1 : 0);
        onCore = -1;
        t.host = -1;
    }

    /**
     * Dispatch @p next if needed, then run it to the next scheduling
     * point: the earliest candidate release (a possible preemption) or
     * @p limit, capped by the quantum.
     */
    void
    slice(int next, double limit)
    {
        ManagedTask &t = task(next);
        Tracer *const tr = currentTracer();
        if (stamp && tr)
            tr->setCoreId(id);    // runtime events carry the core too
        if (onCore != next)
            dispatch(next);

        if (s.bus_) {
            // Route the task's misses through this core's bus port and
            // re-anchor the bus clock to the core's wall; anchoring
            // every slice bounds cycle-to-ns drift to one quantum.
            t.memctrl.attachBus(s.bus_.get(), id);
            s.bus_->syncCore(id, w * 1e9, t.cpu->cycles());
        }

        double nextEvent = limit;
        for (int i : cands)
            if (pendingRelease(task(i)))
                nextEvent = std::min(nextEvent, s.nominalRelease(task(i)));
        Cycles budget = s.cfg_.quantumCycles;
        if (std::isfinite(nextEvent) && nextEvent > w) {
            const MHz f = t.cpu->frequency();
            const Cycles until = static_cast<Cycles>(
                std::ceil((nextEvent - w) * f * 1e6));
            budget = std::min(budget, std::max<Cycles>(until, 1));
        }

        const StepResult sr = t.rt->stepInstance(budget);
        charge(next, sr);
        if (sr.completed)
            complete(next);

        if (w > horizon)
            fatal("scheduler: core %d wall clock %.3g s exceeded the "
                  "runaway horizon %.3g s",
                  id, w, horizon);
    }

    /** Advance this core's schedule to @p epochEnd, or to completion
     *  of its candidates' jobs. */
    void
    advanceTo(double epochEnd)
    {
        while (!done) {
            if (allDone()) {
                done = true;
                break;
            }
            if (w >= epochEnd)
                break;
            releaseDue();
            const int next = pick();
            if (next >= 0) {
                slice(next, epochEnd);
                continue;
            }
            // Idle to the next own event, capped at the barrier.
            const double tn = nextEvent();
            if (!std::isfinite(tn))
                fatal("scheduler: core %d idle with no pending release",
                      id);
            idleTo(std::min(tn, epochEnd));
            if (tn > epochEnd)
                break;    // nothing more until after the barrier
        }
    }
};

namespace
{

/** Synchronization quantum of the partitioned multi-core epochs. */
constexpr double epochSeconds = 1e-3;

} // anonymous namespace

/**
 * The epoch driver (one core, or partitioned placement): every core
 * owns a disjoint candidate set, so the per-core schedules are
 * independent except for shared-bus contention and the output streams.
 * The cores advance in epochSeconds quanta through the chip's quantum
 * driver (chip/quantum.hh: epoch-buffered bus, per-core trace rings,
 * worker pool); counters and job lists are per-core and merged in core
 * order at the end, so the result is bit-identical for any
 * VISA_THREADS setting. One core is the m=1 case: a single unbounded
 * quantum, no bus, events straight to the caller's tracer.
 */
void
MultiTaskScheduler::runEpochs(std::vector<CoreEngine> &eng,
                              double horizon)
{
    const std::size_t m = eng.size();
    const double epoch =
        m == 1 ? std::numeric_limits<double>::infinity() : epochSeconds;
    std::vector<ScheduleOutcome> outs(m);
    std::vector<std::vector<JobRecord>> lists(m);
    std::vector<int> all(m);
    for (std::size_t c = 0; c < m; ++c) {
        eng[c].out = &outs[c];
        eng[c].jobs = &lists[c];
        all[c] = static_cast<int>(c);
    }

    chip::QuantumDriver driver(bus_.get(), static_cast<int>(m));
    for (double epochStart = 0.0;; epochStart += epoch) {
        bool any = false;
        for (const CoreEngine &e : eng)
            any = any || !e.done;
        if (!any)
            break;
        if (epochStart > horizon)
            fatal("scheduler: epoch clock %.3g s exceeded the runaway "
                  "horizon %.3g s",
                  epochStart, horizon);
        const double epochEnd = epochStart + epoch;
        driver.run(all, [&](int c) {
            eng[static_cast<std::size_t>(c)].advanceTo(epochEnd);
        });
    }

    // Deterministic merges, all in core order: counters summed, the
    // job lists ordered by (completion, core) — each list is already
    // in completion order, so a stable sort of their concatenation is
    // their k-way merge.
    for (const ScheduleOutcome &o : outs) {
        outcome_.jobs += o.jobs;
        outcome_.dispatches += o.dispatches;
        outcome_.preemptions += o.preemptions;
        outcome_.contextSwitches += o.contextSwitches;
        outcome_.freqChanges += o.freqChanges;
        outcome_.switchOverheadSeconds += o.switchOverheadSeconds;
        outcome_.idleSeconds += o.idleSeconds;
        outcome_.deadlineMisses += o.deadlineMisses;
        outcome_.checkpointMisses += o.checkpointMisses;
    }
    for (const std::vector<JobRecord> &l : lists)
        jobs_.insert(jobs_.end(), l.begin(), l.end());
    std::stable_sort(jobs_.begin(), jobs_.end(),
                     [](const JobRecord &a, const JobRecord &b) {
                         return a.completionSeconds < b.completionSeconds;
                     });
}

/**
 * The serial driver (global placement): every engine has all tasks as
 * candidates and the engines share one outcome and job list. The chip
 * is stepped by always letting the lowest-id core with a runnable job
 * at the earliest local wall run one slice. Releases are observed
 * lazily against each core's own clock — a core never sees a job
 * released, or a migrated job suspended, in its local future — which
 * keeps the interleaving a pure function of the task set.
 */
void
MultiTaskScheduler::runSerial(std::vector<CoreEngine> &eng)
{
    for (CoreEngine &e : eng) {
        e.out = &outcome_;
        e.jobs = &jobs_;
    }
    std::vector<int> order(eng.size());
    while (!eng[0].allDone()) {
        // Visit cores in (local wall, id) order; the first one with a
        // runnable job executes a slice this iteration.
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return eng[static_cast<std::size_t>(a)].w <
                   eng[static_cast<std::size_t>(b)].w;
        });
        CoreEngine *runner = nullptr;
        int next = -1;
        for (const int c : order) {
            CoreEngine &e = eng[static_cast<std::size_t>(c)];
            e.releaseDue();
            next = e.pick();
            if (next >= 0) {
                runner = &e;
                break;
            }
        }
        if (runner) {
            runner->slice(next, std::numeric_limits<double>::infinity());
            continue;
        }
        // Every core is idle at its local time: advance each to its
        // next local event.
        bool advanced = false;
        for (CoreEngine &e : eng) {
            const double tn = e.nextEvent();
            if (std::isfinite(tn) && tn > e.w) {
                e.idleTo(tn);
                advanced = true;
            }
        }
        if (!advanced)
            fatal("scheduler: idle with no pending release");
    }
    if (Tracer *const tr = currentTracer())
        tr->setCoreId(-1);
}

ScheduleOutcome
MultiTaskScheduler::run(int jobs_per_task)
{
    if (jobs_per_task <= 0)
        fatal("scheduler: jobs_per_task must be positive");
    const std::string err = admissionError();
    if (!err.empty())
        fatal("scheduler: task set rejected: %s", err.c_str());

    const int m = cfg_.cores;
    const bool global = m > 1 && cfg_.placement == PlacementPolicy::Global;
    // One core is the classic rig: no bus and no per-core groups.
    bus_.reset();
    assignment_.clear();
    coreStats_.clear();
    if (m > 1) {
        bus_ = std::make_unique<chip::ChipInterconnect>(m, cfg_.bus);
        assignment_ = global
            ? std::vector<int>(static_cast<std::size_t>(numTasks()), -1)
            : partitionedAssignment();
    }
    jobs_.clear();
    outcome_ = ScheduleOutcome{};
    for (auto &t : tasks_) {
        t->avail = 0.0;
        t->host = -1;
    }

    // Runaway guard: an admitted set completes well within one extra
    // hyperperiod of the last release.
    double horizon = 1e-3;
    for (const auto &t : tasks_)
        horizon = std::max(horizon,
                           t->def.phaseSeconds +
                               (jobs_per_task + 2) * t->def.periodSeconds);
    horizon = 10.0 * horizon + 1.0;

    std::vector<CoreEngine> eng;
    eng.reserve(static_cast<std::size_t>(m));
    for (int c = 0; c < m; ++c) {
        eng.push_back(CoreEngine{*this, c, m > 1, jobs_per_task, horizon});
        for (int i = 0; i < numTasks(); ++i)
            if (global || m == 1 ||
                assignment_[static_cast<std::size_t>(i)] == c)
                eng.back().cands.push_back(i);
    }
    if (global)
        runSerial(eng);
    else
        runEpochs(eng, horizon);

    double wmax = 0.0;
    for (const CoreEngine &e : eng)
        wmax = std::max(wmax, e.w);
    outcome_.wallSeconds = wmax;
    if (m > 1) {
        for (const CoreEngine &e : eng) {
            coreStats_.push_back(e.cs);
            coreStats_.back().wallSeconds = e.w;
        }
        // The rigs outlive this run; detach them from the bus (the bus
        // itself stays alive for buildStats).
        for (auto &t : tasks_)
            t->memctrl.attachBus(nullptr);
    }
    return outcome_;
}

const SchedTaskStats &
MultiTaskScheduler::taskStats(int task) const
{
    return tasks_.at(static_cast<std::size_t>(task))->stats;
}

const SchedTaskDef &
MultiTaskScheduler::taskDef(int task) const
{
    return tasks_.at(static_cast<std::size_t>(task))->def;
}

DvsRuntime &
MultiTaskScheduler::taskRuntime(int task)
{
    return *tasks_.at(static_cast<std::size_t>(task))->rt;
}

void
MultiTaskScheduler::buildStats(StatSet &set) const
{
    StatGroup &g = set.group("sched");
    g.scalar("tasks", "tasks in the set")
        .set(static_cast<std::uint64_t>(numTasks()));
    g.scalar("jobs", "jobs completed")
        .set(static_cast<std::uint64_t>(outcome_.jobs));
    g.scalar("dispatches", "dispatch decisions")
        .set(static_cast<std::uint64_t>(outcome_.dispatches));
    g.scalar("preemptions", "jobs suspended mid-execution")
        .set(static_cast<std::uint64_t>(outcome_.preemptions));
    g.scalar("context_switches", "running-task changes")
        .set(static_cast<std::uint64_t>(outcome_.contextSwitches));
    g.scalar("freq_changes", "governor-visible core clock changes")
        .set(static_cast<std::uint64_t>(outcome_.freqChanges));
    g.scalar("deadline_misses", "job deadline violations (must stay 0)")
        .set(static_cast<std::uint64_t>(outcome_.deadlineMisses));
    g.scalar("checkpoint_misses", "missed-checkpoint recoveries")
        .set(static_cast<std::uint64_t>(outcome_.checkpointMisses));
    g.formula("wall_seconds", [this] { return outcome_.wallSeconds; },
              "schedule length");
    g.formula("switch_overhead_seconds",
              [this] { return outcome_.switchOverheadSeconds; },
              "modeled context-switch cost");
    g.formula("idle_seconds", [this] { return outcome_.idleSeconds; },
              "core idle time");
    g.formula("utilization",
              [this] {
                  // Multi-core: total execution over m x makespan
                  // (per-core idle is measured against local walls, so
                  // the single-core identity does not generalize).
                  if (!coreStats_.empty()) {
                      double busy = 0.0;
                      for (const CoreStats &cs : coreStats_)
                          busy += cs.busySeconds;
                      return busy /
                             (static_cast<double>(coreStats_.size()) *
                              outcome_.wallSeconds);
                  }
                  return (outcome_.wallSeconds - outcome_.idleSeconds) /
                         outcome_.wallSeconds;
              },
              "busy fraction of the schedule");
    for (int i = 0; i < numTasks(); ++i) {
        const ManagedTask &t = *tasks_[i];
        StatGroup &tg = set.group("sched.task" + std::to_string(i));
        tg.scalar("jobs", "jobs completed (" + t.def.name + ")")
            .set(static_cast<std::uint64_t>(t.stats.jobs));
        tg.scalar("deadline_misses", "deadline violations (must stay 0)")
            .set(static_cast<std::uint64_t>(t.stats.deadlineMisses));
        tg.scalar("checkpoint_misses", "missed-checkpoint recoveries")
            .set(static_cast<std::uint64_t>(t.stats.checkpointMisses));
        tg.scalar("preemptions", "times suspended mid-job")
            .set(static_cast<std::uint64_t>(t.stats.preemptions));
        tg.scalar("bad_checksums", "checksum mismatches (must stay 0)")
            .set(static_cast<std::uint64_t>(t.stats.badChecksums));
        tg.scalar("retired", "instructions retired")
            .set(t.stats.retired);
        tg.formula("busy_seconds",
                   [&t] { return t.stats.busySeconds; },
                   "execution time consumed");
        tg.formula("min_slack_seconds",
                   [&t] { return t.stats.minSlackSeconds; },
                   "worst observed deadline slack");
        tg.formula("max_response_seconds",
                   [&t] { return t.stats.maxResponseSeconds; },
                   "worst observed response time");
    }
    // Multi-core runs add per-core groups plus the shared-bus counters.
    for (int c = 0; c < static_cast<int>(coreStats_.size()); ++c) {
        const CoreStats &cs = coreStats_[static_cast<std::size_t>(c)];
        StatGroup &cg = set.group("sched.core" + std::to_string(c));
        cg.scalar("dispatches", "dispatch decisions on this core")
            .set(static_cast<std::uint64_t>(cs.dispatches));
        cg.scalar("context_switches", "running-task changes")
            .set(static_cast<std::uint64_t>(cs.contextSwitches));
        cg.formula("busy_seconds", [&cs] { return cs.busySeconds; },
                   "execution time spent on this core");
        cg.formula("idle_seconds", [&cs] { return cs.idleSeconds; },
                   "idle time on this core");
        cg.formula("wall_seconds", [&cs] { return cs.wallSeconds; },
                   "this core's local schedule length");
    }
    if (bus_)
        bus_->buildStats(set.group("sched.bus"));
}

const char *
schedPolicyName(SchedPolicy p)
{
    return p == SchedPolicy::Edf ? "edf" : "rm";
}

const char *
governorPolicyName(GovernorPolicy p)
{
    return p == GovernorPolicy::PerTask ? "pertask" : "max";
}

const char *
placementName(PlacementPolicy p)
{
    return p == PlacementPolicy::Partitioned ? "partitioned" : "global";
}

bool
parseSchedPolicy(const std::string &name, SchedPolicy &out)
{
    if (name == "edf")
        out = SchedPolicy::Edf;
    else if (name == "rm")
        out = SchedPolicy::RateMonotonic;
    else
        return false;
    return true;
}

bool
parseSchedPolicyEx(const std::string &name, SchedPolicy &pol,
                   PlacementPolicy &pl)
{
    if (name == "pedf") {
        pol = SchedPolicy::Edf;
        pl = PlacementPolicy::Partitioned;
    } else if (name == "gedf") {
        pol = SchedPolicy::Edf;
        pl = PlacementPolicy::Global;
    } else {
        return parseSchedPolicy(name, pol);
    }
    return true;
}

bool
parseGovernorPolicy(const std::string &name, GovernorPolicy &out)
{
    if (name == "pertask")
        out = GovernorPolicy::PerTask;
    else if (name == "max")
        out = GovernorPolicy::MaxRequest;
    else
        return false;
    return true;
}

} // namespace visa
