/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * each layer's public functions: name ("<layer>.<what>"), start, end,
 * parent span and job id. Nothing is written until the run ends. A
 * layer's self time is its spans' durations minus the parts their
 * child spans cover. A disabled tracer records nothing, so the same
 * code path can be timed with and without recording.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    double start = 0.0; //!< seconds since the tracer was created
    double end = 0.0;
    int parent = -1; //!< index into spans(), -1 for a root
    std::uint64_t job = 0;

    double seconds() const { return end - start; }
    /** @return the layer: the name up to the first '.'. */
    std::string layer() const;
};

/** Count and total duration of the spans sharing one name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double seconds = 0.0;

    double meanMs() const { return count ? seconds * 1e3 / count : 0.0; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Ends its span when destroyed (no-op on a disabled tracer). */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    bool enabled() const { return enabled_; }
    void setJob(std::uint64_t job) { job_ = job; }

    const std::vector<Span> &spans() const { return spans_; }

    /** @return per-name span count and total seconds. */
    std::map<std::string, SpanTotals> totals() const;

    /** @return self seconds (duration minus child coverage) per span
     * name, over the spans under root spans named @p root. */
    std::map<std::string, double> selfSeconds(const std::string &root) const;

    /** Write every span as chrome://tracing JSON. @return success. */
    bool writeChromeJson(const std::string &path) const;

  private:
    double now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_; //!< stack of open span indices
    std::uint64_t job_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
