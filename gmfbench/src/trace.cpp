#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace gmfbench {

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t request)
    : t_(&t) {
  if (!t.enabled_) return;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  idx_ = static_cast<std::int64_t>(t.spans_.size());
  t.spans_.push_back(s);
  t.open_.push_back(idx_);
  // Read the clock last so the bookkeeping above is not charged to the span.
  t.spans_[static_cast<std::size_t>(idx_)].start_ns = t.now_ns();
}

Tracer::Scope::~Scope() {
  if (idx_ < 0) return;
  t_->spans_[static_cast<std::size_t>(idx_)].end_ns = t_->now_ns();
  t_->open_.pop_back();
}

void merge_spans(std::vector<Span>& all, std::vector<Span> more) {
  const auto base = static_cast<std::int64_t>(all.size());
  for (Span& s : more) {
    if (s.parent >= 0) s.parent += base;
    all.push_back(s);
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = p.duration_ns() - covered;
  }
  return self;
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.duration_ns()) / 1e3);
  }
  return out;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  out << "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.request << '\t' << self[i] << '\n';
  }
  return static_cast<bool>(out.flush());
}

}  // namespace gmfbench
