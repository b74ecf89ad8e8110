#include "baselines/bayesperf_estimator.h"

namespace bperf {
namespace baselines {

void
BayesPerfEstimator::ensureRun(const sim::PerfResult &run) const
{
    if (cachedKey_ == &run)
        return;
    cached_ = core::replayRun(uarch_, run, config_);
    cachedKey_ = &run;
}

std::vector<double>
BayesPerfEstimator::series(const sim::PerfResult &run,
                           sim::EventId event) const
{
    ensureRun(run);
    return cached_.meanSeries(event);
}

std::vector<double>
BayesPerfEstimator::uncertainty(const sim::PerfResult &run,
                                sim::EventId event) const
{
    ensureRun(run);
    return cached_.stddevSeries(event);
}

} // namespace baselines
} // namespace bperf
