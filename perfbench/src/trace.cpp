#include "trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t Tracer::begin(std::string_view name, bool replay) {
  Span s;
  s.name = name_id(name);
  s.query = query_;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.replay = replay;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  open_.pop_back();
  spans_[id].end_ns = now_ns();
}

void Tracer::write_tsv(std::ostream& out) const {
  out << "query\tname\tparent\treplay\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << s.query << '\t' << names_[s.name] << '\t' << s.parent << '\t'
        << (s.replay ? 1 : 0) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything before `reach` is already counted
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, reach);
    const std::int64_t to = std::min(b, hi);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].duration_ns() -
             covered_ns(std::move(children[i]), spans[i].start_ns,
                        spans[i].end_ns);
  }
  return out;
}

}  // namespace perfbench
