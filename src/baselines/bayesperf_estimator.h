/**
 * @file
 * Adapter exposing BayesPerf inference through the Estimator
 * interface so benches score all estimators uniformly.
 */

#ifndef BPERF_BASELINES_BAYESPERF_ESTIMATOR_H
#define BPERF_BASELINES_BAYESPERF_ESTIMATOR_H

#include <memory>

#include "baselines/estimator.h"
#include "core/inference.h"

namespace bperf {
namespace baselines {

/**
 * Runs (and caches) BayesPerf inference over the measurement run it
 * is queried with, serving posterior-mean series.
 */
class BayesPerfEstimator : public Estimator
{
  public:
    BayesPerfEstimator(const sim::MicroarchDescriptor &uarch,
                       core::InferenceConfig config = {})
        : uarch_(uarch), config_(config)
    {
    }

    std::string name() const override { return "BayesPerf"; }

    std::vector<double> series(const sim::PerfResult &run,
                               sim::EventId event) const override;

    /** Posterior standard deviations for the cached run. */
    std::vector<double> uncertainty(const sim::PerfResult &run,
                                    sim::EventId event) const;

  private:
    void ensureRun(const sim::PerfResult &run) const;

    const sim::MicroarchDescriptor &uarch_;
    core::InferenceConfig config_;
    mutable const sim::PerfResult *cachedKey_ = nullptr;
    mutable core::InferenceResult cached_;
};

} // namespace baselines
} // namespace bperf

#endif // BPERF_BASELINES_BAYESPERF_ESTIMATOR_H
