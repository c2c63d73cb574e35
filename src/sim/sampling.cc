#include "src/sim/sampling.hh"

#include <cmath>
#include <sstream>

#include "src/util/logging.hh"
#include "src/util/stats.hh"

namespace sac {
namespace sim {

double
confidenceZ(double confidence)
{
    SAC_ASSERT(confidence > 0.0 && confidence < 1.0,
               "confidence level must be in (0, 1)");
    // Two-sided: z = Phi^-1((1 + confidence) / 2), via the
    // Beasley-Springer-Moro rational approximation of the normal
    // quantile (|error| < 3e-9 over the range sampling uses).
    const double p = (1.0 + confidence) / 2.0;

    static const double a[] = {-3.969683028665376e+01,
                               2.209460984245205e+02,
                               -2.759285104469687e+02,
                               1.383577518672690e+02,
                               -3.066479806614716e+01,
                               2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
                               1.615858368580409e+02,
                               -1.556989798598866e+02,
                               6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
                               -3.223964580411365e-01,
                               -2.400758277161838e+00,
                               -2.549732539343734e+00,
                               4.374664141464968e+00,
                               2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
                               3.224671290700398e-01,
                               2.445134137142996e+00,
                               3.754408661907416e+00};

    const double p_low = 0.02425;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                 c[4]) * q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p <= 1.0 - p_low) {
        const double q = p - 0.5;
        const double r = q * q;
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r +
                 a[4]) * r + a[5]) * q /
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r +
                 b[4]) * r + 1.0);
    }
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
              c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

std::string
formatWithCi(double mean, double half_width, int decimals)
{
    std::ostringstream os;
    os << util::formatFixed(mean, decimals) << " ±";
    if (std::isinf(half_width))
        os << "inf";
    else
        os << util::formatFixed(half_width, decimals);
    return os.str();
}

void
SampleStats::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
SampleStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
SampleStats::stddev() const
{
    return std::sqrt(variance());
}

double
SampleStats::halfWidth(double confidence) const
{
    if (n_ < 2)
        return std::numeric_limits<double>::infinity();
    return confidenceZ(confidence) *
           std::sqrt(variance() / static_cast<double>(n_));
}

double
SampleStats::relativeError(double confidence) const
{
    const double half = halfWidth(confidence);
    if (half == 0.0)
        return 0.0;
    if (std::isinf(half) || mean() == 0.0)
        return std::numeric_limits<double>::infinity();
    return half / std::abs(mean());
}

std::optional<std::string>
SamplingOptions::validationError() const
{
    if (window == 0)
        return "sample window must be at least 1 record";
    if (stride < window)
        return "sample stride must be at least the window (stride " +
               std::to_string(stride) + " < window " +
               std::to_string(window) + ")";
    if (!(confidence > 0.0 && confidence < 1.0))
        return "sample confidence must be strictly between 0 and 1";
    if (targetRelativeError < 0.0)
        return "target relative error must be non-negative";
    if (targetRelativeError > 0.0 && minWindows < 2)
        return "adaptive sampling needs at least 2 windows to "
               "estimate its error";
    if (maxWindows > 0 && targetRelativeError > 0.0 &&
        maxWindows < minWindows)
        return "max windows must be at least min windows";
    return std::nullopt;
}

void
SamplingOptions::validate() const
{
    if (const auto err = validationError())
        util::fatal("invalid sampling options: ", *err);
}

SampledEngine::WindowSample
SampledEngine::sampleOf(const RunStats &prev, const RunStats &cur)
{
    const double acc = static_cast<double>(cur.accesses - prev.accesses);
    const double misses = static_cast<double>(cur.misses - prev.misses);
    const double cycles = cur.totalAccessCycles - prev.totalAccessCycles;
    const double words =
        static_cast<double>(cur.bytesFetched - prev.bytesFetched) /
        wordBytes;
    return {misses / acc, cycles / acc, words / acc};
}

bool
SampledEngine::addSample(SampleReport &rep, const WindowSample &s) const
{
    rep.missRatio.add(s.missRatio);
    rep.amat.add(s.amat);
    rep.wordsPerAccess.add(s.words);
    ++rep.windows;
    const bool capped =
        opt_.maxWindows > 0 && rep.windows >= opt_.maxWindows;
    const bool converged =
        opt_.targetRelativeError > 0.0 && rep.windows >= opt_.minWindows &&
        rep.missRatio.relativeError(opt_.confidence) <=
            opt_.targetRelativeError;
    return capped || converged;
}

std::uint64_t
SampledEngine::drainSkip(trace::TraceSource &src)
{
    std::uint64_t total = 0;
    for (;;) {
        const std::uint64_t n =
            src.skip(std::numeric_limits<std::uint64_t>::max());
        total += n;
        if (n == 0)
            return total;
    }
}

} // namespace sim
} // namespace sac
