// In-memory spans for the traced run.
//
// A Tracer belongs to one thread.  Scope opens a span on construction and
// closes it on destruction; the innermost open span of the same tracer is
// its parent.  Spans stay in memory until the run ends and are written out
// once (write_spans), so recording costs two clock reads and a vector
// append.  A disabled tracer records nothing and Scope is a no-op, which
// is how the untraced end-to-end run uses the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gmfbench {

struct Span {
  const char* name = "";      ///< static string: a layer call site
  std::int64_t start_ns = 0;  ///< steady_clock since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the same span vector
  std::uint64_t request = 0;  ///< spans of one request share this id
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int64_t idx_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Moves the spans out (for merging the per-thread tracers at exit).
  [[nodiscard]] std::vector<Span> take() { return std::move(spans_); }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  ///< stack of open span indices
};

/// Appends `more` to `all`, rebasing `more`'s parent indices.
void merge_spans(std::vector<Span>& all, std::vector<Span> more);

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Durations in microseconds of every span named `name`.
[[nodiscard]] std::vector<double> durations_us(const std::vector<Span>& spans,
                                               const std::string& name);

/// Writes one tab-separated line per span (id, name, start_ns, end_ns,
/// parent, request, self_ns).  Returns false on I/O failure.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace gmfbench
