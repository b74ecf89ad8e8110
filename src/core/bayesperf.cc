#include "core/bayesperf.h"

#include <algorithm>

#include "common/logging.h"

namespace bperf {
namespace core {

BayesPerfSession::BayesPerfSession(const sim::MicroarchDescriptor &uarch,
                                   BayesPerfConfig config)
    : uarch_(uarch), config_(config)
{
}

std::vector<sim::EventId>
resolveMonitoredSet(const sim::MicroarchDescriptor &uarch,
                    const std::vector<sim::EventId> &events)
{
    std::vector<sim::EventId> monitored;
    // Fixed counters are always on and anchor the factor graph.
    for (sim::EventId e : uarch.fixedEvents())
        monitored.push_back(e);
    sim::Pmu pmu(uarch);
    for (sim::EventId e : events) {
        if (std::find(monitored.begin(), monitored.end(), e) !=
            monitored.end())
            continue;
        if (!uarch.event(e).fixed && !pmu.validate({e}))
            bp_fatal("event not schedulable on any counter: "
                     << uarch.event(e).name);
        monitored.push_back(e);
    }
    return monitored;
}

void
BayesPerfSession::open(const std::vector<sim::EventId> &events)
{
    monitored_ = resolveMonitoredSet(uarch_, events);
}

BayesPerfRun
BayesPerfSession::measure(const sim::TruthTrace &truth)
{
    bp_assert(isOpen(), "open() must be called before measure()");

    BayesPerfRun run;

    SchedulerConfig sched_cfg = config_.scheduler;
    sched_cfg.reserveOverlapSlot = config_.useOverlapSchedule;
    OverlapScheduler scheduler(uarch_, sched_cfg);
    run.schedule = scheduler.build(monitored_);

    sim::PerfSession session(uarch_, config_.perf);
    run.raw = session.run(truth, monitored_, run.schedule.configs);

    run.posterior = replayRun(uarch_, run.raw, config_.inference);
    return run;
}

} // namespace core
} // namespace bperf
