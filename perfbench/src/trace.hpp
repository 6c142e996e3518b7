// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark around its own calls into
// the library's public functions; nothing inside libsysmap is instrumented.
// Each span carries a name, a start and end time, the span that was open
// when it began (its parent), the query it belongs to, and a replay flag.
// Replay spans re-run parts of a query after the query has returned (to
// split enumeration from screening) and are left out of trace coverage.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;   ///< index into Tracer::names()
  std::uint32_t query = 0;  ///< query id shared by every span of one query
  std::int64_t parent = -1; ///< index of the enclosing span, -1 for a root
  bool replay = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open span; returns its index.
  std::size_t begin(std::string_view name, bool replay = false);
  /// Closes the innermost open span, which must be `id`.
  void end(std::size_t id);

  void set_query(std::uint32_t query) { query_ = query; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  std::uint32_t name_id(std::string_view name);

  /// One line per span: query, name, parent, replay, start and end in ns.
  void write_tsv(std::ostream& out) const;

  /// Closes its span at scope exit, on exception paths too.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, bool replay = false)
        : tracer_(tracer), id_(tracer.begin(name, replay)) {}
    ~Scope() { tracer_.end(id_); }
    std::size_t id() const { return id_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::uint32_t query_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<std::string> names_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may nest,
/// overlap each other or stick out of the parent; only the covered part
/// inside the parent counts).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Covered time of a union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi);

}  // namespace perfbench
