/**
 * @file
 * In-memory span recorder of the benchmark's traced run. Spans are
 * recorded from the benchmark's own code around each call into a
 * layer of the simulator (and around each sacd frame), kept in memory,
 * and written as Chrome trace_event JSON when the run ends. A span's
 * layer is its name up to the first '.', which is the repo module it
 * times ("core", "sim", "harness", ...).
 *
 * A disabled recorder (the untraced run) costs one branch per span.
 */

#ifndef SACBENCH_SPANS_HH
#define SACBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sacbench {

class SpanRecorder
{
  public:
    /** RAII span: opened by SpanRecorder::span(), closed on scope exit. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, std::size_t index)
            : rec_(rec), index_(index)
        {
        }
        ~Scope()
        {
            if (rec_)
                rec_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        std::size_t index_;
    };

    SpanRecorder() = default;
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** Turn recording on or off; call before any span is opened. */
    void enable(bool on) { enabled_ = on; }

    /**
     * Open a span named @p name; its parent is the innermost span
     * still open on this thread. @p request groups the spans of one
     * sacd request (0 = none).
     */
    Scope span(const std::string &name, std::uint64_t request = 0);

    /**
     * Self time per layer in seconds: each span's duration minus the
     * part of its interval that its child spans cover.
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as Chrome trace_event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1; //!< -1 while open
        std::int64_t parent = -1;
        std::uint64_t request = 0;
        std::uint32_t thread = 0;
    };

    void close(std::size_t index);
    std::int64_t nowNs() const;

    bool enabled_ = false;
    const std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex_; //!< guards spans_
    std::vector<Span> spans_;
};

} // namespace sacbench

#endif // SACBENCH_SPANS_HH
