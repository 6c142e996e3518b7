// Self-tests for the benchmark's own logic: percentile selection, quartiles,
// span self time, the metric-name grammar and seeded draws.  Plain checks
// that stay on in every build type; exits 1 on the first failed group.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "draws.hpp"
#include "schedule/linear_schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // deliberately unsorted
  return v;
}

void percentiles() {
  check(pb::percentile(one_to(100), 50) == 50, "p50 of 1..100 is 50");
  check(pb::percentile(one_to(100), 90) == 90, "p90 of 1..100 is 90");
  check(pb::samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  check(pb::samples_beyond(99, 90) == 9, "99 samples leave 9 beyond p90");
  check(throws([] { pb::percentile(one_to(99), 90); }),
        "p90 of 99 samples is refused");
  check(pb::percentile(one_to(20), 50) == 10, "p50 of 20 samples is allowed");
  check(throws([] { pb::percentile(one_to(19), 50); }),
        "p50 of 19 samples is refused");
  check(throws([] { pb::percentile({}, 50, 0); }), "no samples is refused");
  check(pb::percentile({7}, 100, 0) == 7, "p100 of one sample with no tail");
}

void quartile_method() {
  // Reference values from Python's statistics.quantiles(values, n=4).
  const pb::Quartiles a = pb::quartiles(one_to(10));
  check(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25),
        "quartiles of 1..10");
  const pb::Quartiles b = pb::quartiles({1, 2});
  check(near(b.q1, 0.75) && near(b.q2, 1.5) && near(b.q3, 2.25),
        "quartiles of two samples extrapolate like Python");
  const pb::Quartiles c = pb::quartiles({5, 1, 4, 2, 3});
  check(near(c.q1, 1.5) && near(c.q2, 3.0) && near(c.q3, 4.5),
        "quartiles of five samples");
  check(throws([] { pb::quartiles({1}); }), "one sample has no quartiles");
}

pb::Span span(std::int64_t parent, std::int64_t start, std::int64_t end) {
  pb::Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void self_time() {
  // root [0,100) has children A [10,40) and B [30,60), which overlap;
  // A has a nested child [20,30).  C [90,120) sticks out of the root.
  const std::vector<pb::Span> spans = {span(-1, 0, 100), span(0, 10, 40),
                                       span(1, 20, 30), span(0, 30, 60),
                                       span(0, 90, 120)};
  const std::vector<std::int64_t> self = pb::self_times(spans);
  check(self[0] == 100 - 50 - 10, "root self time excludes the union of "
                                  "overlapping children and clips the "
                                  "protruding one");
  check(self[1] == 20, "A's self time excludes its nested child");
  check(self[2] == 10, "a leaf's self time is its duration");
  check(self[3] == 30, "B's self time is its duration");
  check(pb::covered_ns({{5, 10}, {0, 3}, {2, 4}, {8, 20}}, 0, 15) == 4 + 10,
        "covered time of an unsorted overlapping union, clipped");

  pb::Tracer tracer;
  tracer.set_query(7);
  const std::size_t root = tracer.begin("query");
  {
    pb::Tracer::Scope child(tracer, "search.procedure51");
  }
  tracer.end(root);
  {
    pb::Tracer::Scope replay(tracer, "search.enumerate", true);
  }
  const auto& s = tracer.spans();
  check(s.size() == 3 && s[1].parent == 0 && s[2].parent == -1 &&
            s[2].replay && s[1].query == 7,
        "tracer records parents, query ids and replay marks");
  const std::size_t outer = tracer.begin("a");
  tracer.begin("b");
  bool refused = false;
  try {
    tracer.end(outer);
  } catch (const std::logic_error&) {
    refused = true;
  }
  check(refused, "tracer refuses to close spans out of order");
}

void metric_names() {
  for (const char* ok : {"search.procedure51.ms", "a", "9x", "latency_ms_p90",
                         "trace.overhead_share", "x-y"}) {
    check(pb::valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", "_a", ".a", "-a", "a b", "a/b", "a\"b", "é"}) {
    check(!pb::valid_metric_name(bad), std::string("invalid name ") + bad);
  }
  check(pb::valid_metric_name(std::string(64, 'a')), "64 letters are valid");
  check(!pb::valid_metric_name(std::string(65, 'a')), "65 letters are not");
}

void draws() {
  pb::Rng rng(0);
  check(rng.next() == 0xE220A8397B1DCDAFULL,
        "SplitMix64 reference output for seed 0");
  for (pb::Workload w :
       {pb::Workload::kSolve, pb::Workload::kJoint, pb::Workload::kVerify}) {
    const std::string name = pb::workload_name(w);
    const std::string a = pb::serialize(pb::draw_workload(w, 11));
    const std::string b = pb::serialize(pb::draw_workload(w, 11));
    check(a == b, name + ": one seed gives byte-identical draws");
    const bool catalog = w == pb::Workload::kJoint;
    check((a == pb::serialize(pb::draw_workload(w, 12))) == catalog,
          name + (catalog ? ": the catalog does not depend on the seed"
                          : ": another seed gives other draws"));
  }
  check(pb::query_order(50, 3) == pb::query_order(50, 3),
        "one seed gives one walk order");
  check(pb::query_order(50, 3) != pb::query_order(50, 4),
        "another seed gives another walk order");

  const std::vector<pb::Draw> joint = pb::draw_workload(pb::Workload::kJoint, 1);
  for (const char* e2e : {"matmul_mu12_k3", "unit_cube4_mu3_k2",
                          "transitive_closure_mu12_k3", "matmul_mu8_k3_e2",
                          "matmul_mu16_k2"}) {
    bool present = false;
    for (const pb::Draw& d : joint) present = present || d.name == e2e;
    check(present, std::string("joint draws include ") + e2e);
  }
  std::size_t valid = 0;
  const std::vector<pb::Draw> verify =
      pb::draw_workload(pb::Workload::kVerify, 1);
  for (const pb::Draw& d : verify) {
    valid += sysmap::schedule::respects_dependences(
                 d.pi, pb::build_algorithm(d.algo).dependence_matrix())
                 ? 1
                 : 0;
  }
  check(valid == verify.size(), "every verify schedule satisfies Pi D > 0");
}

}  // namespace

int main() {
  percentiles();
  quartile_method();
  self_time();
  metric_names();
  draws();
  if (failures != 0) {
    std::printf("%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
