/**
 * @file
 * visa-perfbench: runs one seeded campaign workload as a closed loop
 * for a fixed host time, checks its results, and prints the metrics as
 * one JSON object on the last line of stdout.
 *
 *   visa-perfbench --workload visa-fig2|chip-sched|fuzz-verify
 *                  --seed N --seconds S --trace 0|1
 *                  [--out DIR] [--source-id ID]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics of a run in which every second rotation cycle is
 * traced (the untraced cycles give bench.trace_overhead_pct). perfbench/
 * NOTES.md describes the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

/** Set-up runs per benchmark run; setup_s is their median. */
constexpr int setupReps = 5;
/** Address-space limit of the benchmark process. */
constexpr rlim_t addressSpaceCap = rlim_t{2} << 30;
/** A run that has not finished its prefix by then gives up. */
constexpr double maxRoiSeconds = 120.0;

/**
 * Every per-layer metric a traced run prints (BENCHMARK.json lists the
 * same names and units). A layer that does no work on a workload
 * reports 0.
 */
const std::pair<const char *, const char *> perLayerCatalog[] = {
    {"core.runtime.visa.ns_per_inst", "ns/inst"},
    {"core.runtime.simple.ns_per_inst", "ns/inst"},
    {"core.runtime.visa_induced.ns_per_inst", "ns/inst"},
    {"cpu.ooo.ipc", "inst/cycle"},
    {"cpu.simple.ipc", "inst/cycle"},
    {"mem.l1i_miss_rate", "ratio"},
    {"mem.l1d_miss_rate", "ratio"},
    {"isa.block_cache.hit_ratio", "ratio"},
    {"core.runtime.checkpoint_miss_ratio", "ratio"},
    {"core.runtime.freq_switches_per_task", "count/task"},
    {"power.avg_w.visa", "W"},
    {"power.avg_w.simple", "W"},
    {"sim_power_savings_pct", "%"},
    {"workloads.make_s", "s"},
    {"wcet.analyze_s", "s"},
    {"cpu.calibrate_s", "s"},
    {"core.deadline_solve_s", "s"},
    {"core.pet_profile_s", "s"},
    {"sim.builder.rig_ms", "ms"},
    {"sched.add_task_ms", "ms"},
    {"sched.run_ms.uni", "ms"},
    {"sched.run_ms.gedf", "ms"},
    {"sched.run_ms.pedf", "ms"},
    {"sched.ns_per_inst.uni", "ns/inst"},
    {"sched.ns_per_inst.gedf", "ns/inst"},
    {"sched.ns_per_inst.pedf", "ns/inst"},
    {"sched.dispatches_per_job", "count/job"},
    {"sched.preemptions_per_job", "count/job"},
    {"sched.context_switches_per_job", "count/job"},
    {"chip.bus.requests_per_job", "count/job"},
    {"chip.bus.bank_conflict_ratio", "ratio"},
    {"chip.bus.bank_wait_ns_per_req", "ns/req"},
    {"chip.bus.l2_hit_ratio", "ratio"},
    {"chip.bus.mshr_wait_ns_per_req", "ns/req"},
    {"pool.parallelism", "cpu_s/s"},
    {"pool.efficiency", "ratio"},
    {"sched.core_inst_imbalance", "ratio"},
    {"verify.generate_ms", "ms"},
    {"verify.lockstep_ms", "ms"},
    {"verify.lockstep.ns_per_inst", "ns/inst"},
    {"verify.oracle_ms", "ms"},
    {"verify.inject_ms", "ms"},
    {"verify.inject_paired_ms", "ms"},
    {"verify.inject.fired_ratio", "ratio"},
    {"verify.inject.detected_ratio", "ratio"},
    {"verify.inject.sdc_ratio", "ratio"},
    {"verify.inject.paired_detected_ratio", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

/** Set-up span names and the per-layer metric of their time per set-up. */
const std::pair<const char *, const char *> setupLayers[] = {
    {"workloads.make", "workloads.make_s"},
    {"wcet.analyze", "wcet.analyze_s"},
    {"cpu.calibrate", "cpu.calibrate_s"},
    {"core.deadline_solve", "core.deadline_solve_s"},
    {"core.pet_profile", "core.pet_profile_s"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir;
    std::string sourceId = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "visa-perfbench: %s\nusage: visa-perfbench --workload "
                 "visa-fig2|chip-sched|fuzz-verify --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--source-id ID]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end || v.empty())
                usage("--seed must be a non-negative integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a.seconds > 0) || a.seconds > 600)
                usage("--seconds must be in (0, 600]");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (k == "--out") {
            a.outDir = v;
        } else if (k == "--source-id") {
            a.sourceId = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            if (c != std::string::npos)
                return line.substr(line.find_first_not_of(' ', c + 1));
        }
    return "unknown";
}

/** JSON string escaping for the few free-text fields. */
std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            o += ' ';
        else
            o += c;
    }
    return o + "\"";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    return strf("%.10g", v);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolation percentile of sorted @p v (numpy's default). */
double
percentile(const std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // The host is shared. A faulty guest can make the simulator size a
    // host buffer from a corrupted value (NOTES.md, findings), so cap
    // the address space: such a unit then fails instead of taking GBs.
    // (AddressSanitizer reserves terabytes of shadow address space, so
    // a sanitizer build runs without the cap.)
#ifndef __SANITIZE_ADDRESS__
    const rlimit cap{addressSpaceCap, addressSpaceCap};
    setrlimit(RLIMIT_AS, &cap);
#endif
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

    std::unique_ptr<Campaign> camp;
    unsigned threads = 1;
    if (args.workload == "visa-fig2") {
        camp = makeFig2Campaign(args.seed);
    } else if (args.workload == "chip-sched") {
        threads = std::min(4u, nproc);
        camp = makeChipSchedCampaign(args.seed, threads);
    } else if (args.workload == "fuzz-verify") {
        camp = makeFuzzVerifyCampaign(args.seed);
    } else {
        usage(("unknown workload " + args.workload).c_str());
    }
    // Single-threaded except chip-sched's pedf engine, which is the
    // only parallel code path the benchmark measures.
    ::setenv("VISA_THREADS", std::to_string(threads).c_str(), 1);

    const std::string host = strf(
        "{\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, \"build_type\": "
        "%s, \"source_id\": %s}",
        jsonStr(cpuModel()).c_str(), nproc, jsonStr(__VERSION__).c_str(),
        jsonStr(PERFBENCH_BUILD_TYPE).c_str(),
        jsonStr(args.sourceId).c_str());
    Digest hid;
    hid.add(cpuModel());
    hid.add(static_cast<std::uint64_t>(nproc));
    hid.add(std::string(__VERSION__));
    hid.add(std::string(PERFBENCH_BUILD_TYPE));
    const std::string host_id = strf("%016llx", (unsigned long long)hid.value());
    std::printf("# host_id %s %s\n", host_id.c_str(), host.c_str());

    SpanLog &spans = camp->spans;
    bool correct = true;
    std::string error;
    std::vector<double> setup_s;
    std::vector<double> wall_ms, cpu_ms;
    std::vector<std::uint64_t> insts;
    std::vector<char> traced;
    std::size_t failed = 0;
    double roi_wall_s = 0.0, roi_cpu_s = 0.0;
    try {
        for (int r = 0; r < setupReps; ++r) {
            spans.enabled = args.trace;
            spans.unit = -1;
            const std::int64_t t0 = wallNs();
            camp->setup();
            setup_s.push_back((wallNs() - t0) / 1e9);
        }

        const std::size_t cycle = camp->cycleUnits();
        const std::size_t prefix = camp->prefixUnits();
        const std::int64_t w0 = wallNs();
        const std::int64_t c0 = cpuNs();
        for (std::size_t i = 0;; ++i) {
            if (i % cycle == 0) {
                const double el = (wallNs() - w0) / 1e9;
                if (i >= prefix && i >= 100 && el >= args.seconds)
                    break;
                if (el >= maxRoiSeconds) {
                    correct = false;
                    error = strf("only %zu units in %.0f s", i, el);
                    break;
                }
                spans.enabled = args.trace && (i / cycle) % 2 == 1;
            }
            spans.unit = static_cast<std::int64_t>(i);
            const int root = spans.open("bench.unit");
            const std::int64_t uw = wallNs();
            const std::int64_t uc = cpuNs();
            UnitResult res;
            try {
                res = camp->runUnit(i);
            } catch (const std::exception &e) {
                res.ok = false;
                res.error = e.what();
            }
            wall_ms.push_back((wallNs() - uw) / 1e6);
            cpu_ms.push_back((cpuNs() - uc) / 1e6);
            spans.close(root, 0);
            traced.push_back(spans.enabled);
            insts.push_back(res.simInsts);
            if (!res.ok) {
                ++failed;
                if (failed <= 5)
                    std::fprintf(stderr, "unit %zu failed: %s\n", i,
                                 res.error.c_str());
            }
        }
        roi_wall_s = (wallNs() - w0) / 1e9;
        roi_cpu_s = (cpuNs() - c0) / 1e9;
        spans.enabled = false;
        if (correct) {
            error = camp->verify();
            correct = error.empty();
        }
    } catch (const std::exception &e) {
        correct = false;
        error = e.what();
    }
    if (failed)
        correct = false;
    if (!error.empty())
        std::fprintf(stderr, "visa-perfbench: %s\n", error.c_str());

    const std::size_t units = wall_ms.size();
    const std::uint64_t digest = camp->digest();
    std::printf("# workload %s seed %llu units %zu failed %zu digest "
                "%016llx\n",
                args.workload.c_str(), (unsigned long long)args.seed, units,
                failed, (unsigned long long)digest);
    if (correct)
        for (const std::string &line : camp->report())
            std::printf("# %s\n", line.c_str());

    Metrics m;
    if (!args.trace) {
        std::vector<double> sorted = wall_ms;
        std::sort(sorted.begin(), sorted.end());
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        double sim_insts = 0;
        for (std::uint64_t n : insts)
            sim_insts += static_cast<double>(n);
        m["sim_mips"] = {sim_insts / roi_wall_s / 1e6, "Minst/s"};
        m["units_per_s"] = {units / roi_wall_s, "1/s"};
        m["unit_ms_p50"] = {percentile(sorted, 50), "ms"};
        m["unit_ms_p90"] = {percentile(sorted, 90), "ms"};
        m["roi_cpu_s"] = {roi_cpu_s, "s"};
        m["setup_s"] = {median(setup_s), "s"};
        m["peak_rss_mb"] = {ru.ru_maxrss / 1024.0, "MB"};
    } else {
        if (correct) {
            const auto setup = layerTotals(spans, true);
            for (const auto &[span, metric] : setupLayers) {
                auto it = setup.find(span);
                m[metric] = {it == setup.end()
                                 ? 0.0
                                 : it->second.selfNs / 1e9 / setupReps,
                             "s"};
            }
            // Every SimBuilder call the benchmark itself makes is in
            // set-up; the schedulers and checkers build theirs inside.
            auto it = setup.find("sim.builder");
            m["sim.builder.rig_ms"] = {
                it == setup.end() ? 0.0 : it->second.meanMs(), "ms"};
            camp->perLayer(m);
        }
        // Traced and untraced cycles alternate and hold the same unit
        // mix, so their mean unit times compare directly.
        double ms[2] = {0, 0}, n[2] = {0, 0};
        for (std::size_t i = 0; i < units; ++i) {
            ms[traced[i] ? 1 : 0] += wall_ms[i];
            n[traced[i] ? 1 : 0] += 1;
        }
        m["bench.trace_overhead_pct"] = {
            n[0] && n[1] ? 100.0 * ((ms[1] / n[1]) / (ms[0] / n[0]) - 1.0)
                         : 0.0,
            "%"};
    }

    if (!args.outDir.empty()) {
        const std::string stem = strf("%s/%s-seed%llu-trace%d",
                                      args.outDir.c_str(),
                                      args.workload.c_str(),
                                      (unsigned long long)args.seed,
                                      args.trace);
        std::FILE *f = std::fopen((stem + ".json").c_str(), "w");
        if (f) {
            std::fprintf(f, "{\"host_id\": \"%s\", \"host\": %s,\n",
                         host_id.c_str(), host.c_str());
            std::fprintf(f, "\"digest\": \"%016llx\", \"setup_s\": [",
                         (unsigned long long)digest);
            for (std::size_t i = 0; i < setup_s.size(); ++i)
                std::fprintf(f, "%s%s", i ? ", " : "",
                             jsonNum(setup_s[i]).c_str());
            std::fprintf(f, "],\n\"unit_wall_ms\": [");
            for (std::size_t i = 0; i < units; ++i)
                std::fprintf(f, "%s%s", i ? "," : "",
                             jsonNum(wall_ms[i]).c_str());
            std::fprintf(f, "],\n\"unit_cpu_ms\": [");
            for (std::size_t i = 0; i < units; ++i)
                std::fprintf(f, "%s%s", i ? "," : "",
                             jsonNum(cpu_ms[i]).c_str());
            std::fprintf(f, "]}\n");
            std::fclose(f);
        }
        if (args.trace)
            spans.writeJsonl(stem + ".spans.jsonl");
    }

    if (args.trace)
        for (const auto &[name, unit] : perLayerCatalog)
            if (!m.count(name))
                m[name] = {0.0, unit};

    std::string json = strf("{\"correct\": %s, \"attempted\": %zu, "
                            "\"failed\": %zu, \"metrics\": {",
                            correct ? "true" : "false",
                            std::max<std::size_t>(units, 1), failed);
    bool first = true;
    for (const auto &[name, metric] : m) {
        json += strf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     first ? "" : ", ", name.c_str(),
                     jsonNum(metric.value).c_str(), metric.unit.c_str());
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
