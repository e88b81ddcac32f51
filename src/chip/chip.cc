#include "chip/chip.hh"

#include <algorithm>
#include <numeric>

#include "chip/quantum.hh"
#include "sim/logging.hh"

namespace visa
{
namespace chip
{

ChipCore::ChipCore(Chip &chip, int id)
    : chip_(chip), id_(id), memctrl_(chip.cfg_.memctrl)
{
    if (chip.cfg_.cores > 1) {
        // A single core is the classic rig, off the bus (the bus only
        // ever sees contention with >= 2 requestors).
        memctrl_.attachBus(&chip.bus_, id);
        // SPMD replica (see the file comment): every core of a
        // multi-core chip free-runs its own image of the program, so
        // concurrent core threads never touch shared functional state.
        privMem_ = std::make_unique<MainMemory>();
        privMem_->loadProgram(chip.prog_);
    }
}

MainMemory &
ChipCore::mem()
{
    return privMem_ ? *privMem_ : chip_.mem_;
}

OooCpu &
ChipCore::makeOoo()
{
    if (ooo_)
        fatal("ChipCore %d: complex pipeline already built", id_);
    ooo_ = std::make_unique<OooCpu>(chip_.prog_, mem(), platform_,
                                    memctrl_);
    return *ooo_;
}

SimpleCpu &
ChipCore::makeSimple()
{
    if (simple_)
        fatal("ChipCore %d: simple pipeline already built", id_);
    simple_ = std::make_unique<SimpleCpu>(chip_.prog_, mem(), platform_,
                                          memctrl_);
    return *simple_;
}

OooCpu &
ChipCore::ooo()
{
    if (!ooo_)
        makeOoo().resetForTask();
    return *ooo_;
}

SimpleCpu &
ChipCore::simple()
{
    if (!simple_)
        makeSimple().resetForTask();
    return *simple_;
}

Chip::Chip(const Program &prog, const ChipConfig &cfg)
    : prog_(prog), cfg_(cfg), bus_(cfg.cores < 1 ? 1 : cfg.cores, cfg.bus)
{
    if (cfg.cores < 1)
        fatal("Chip: need at least one core (got %d)", cfg.cores);
    mem_.loadProgram(prog);
    cores_.reserve(static_cast<std::size_t>(cfg.cores));
    for (int i = 0; i < cfg.cores; ++i)
        cores_.emplace_back(new ChipCore(*this, i));
}

Chip::~Chip() = default;

Chip::RunAllResult
Chip::runAll(Cycles maxCycles, Cycles window)
{
    if (window < 1)
        window = 1;
    // Build every core up front (construction is not thread-safe),
    // then free-run them in window-cycle quanta (chip/quantum.hh).
    for (int c = 0; c < numCores(); ++c)
        core(c).ooo();

    QuantumDriver driver(&bus_, numCores());
    std::vector<int> live(cores_.size());
    std::iota(live.begin(), live.end(), 0);
    std::vector<Cycles> used(cores_.size(), 0);
    std::vector<char> halted(cores_.size(), 0);
    Cycles spent = 0;
    while (!live.empty() && spent < maxCycles) {
        const Cycles budget = std::min<Cycles>(window, maxCycles - spent);
        driver.run(live, [&](int c) {
            OooCpu &cpu = core(c).ooo();
            const Cycles before = cpu.cycles();
            halted[static_cast<std::size_t>(c)] =
                cpu.run(budget).reason == StopReason::Halted;
            used[static_cast<std::size_t>(c)] = cpu.cycles() - before;
        });
        // Charge the longest actual run: when every live core halts
        // mid-window this is less than the budget; when any core ran
        // out of budget it equals the budget.
        Cycles maxUsed = 0;
        for (const int c : live)
            maxUsed = std::max(maxUsed, used[static_cast<std::size_t>(c)]);
        spent += std::min<Cycles>(budget, std::max<Cycles>(maxUsed, 1));
        // Halted cores leave the schedule.
        std::erase_if(live, [&](int c) {
            return halted[static_cast<std::size_t>(c)] != 0;
        });
    }
    RunAllResult res;
    res.allHalted = live.empty();
    for (const auto &c : cores_)
        res.retired += c->ooo_->retired();
    return res;
}

void
Chip::buildStats(StatSet &set) const
{
    bus_.buildStats(set.group("chip.bus"));
}

} // namespace chip
} // namespace visa
