#include "systolic/array.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "exact/checked.hpp"
#include "schedule/linear_schedule.hpp"
#include "support/packed_coord.hpp"

namespace sysmap::systolic {

namespace {

// The processor set {S j : j in J}: listed from the Minkowski-sum image
// bitset in its image box, so the cost follows the array, not |J|; past the
// bitset's bound, one std::set insert per index point.
std::set<VecI> collect_processors(const model::UniformDependenceAlgorithm& algo,
                                  const mapping::MappingMatrix& t) {
  std::set<VecI> processors;
  if (const std::optional<support::ImageBitset> image =
          support::ImageBitset::build(t.space(), algo.index_set().bounds())) {
    image->for_each([&](const VecI& y) { processors.insert(y); });
    return processors;
  }
  algo.index_set().for_each(
      [&](const VecI& j) { processors.insert(t.processor(j)); });
  return processors;
}

}  // namespace

Int ArrayDesign::total_buffers() const {
  Int total = 0;
  for (Int b : buffers) total = exact::add_checked(total, b);
  return total;
}

ArrayDesign design_dedicated_array(
    const model::UniformDependenceAlgorithm& algo,
    const mapping::MappingMatrix& t) {
  const MatI& d = algo.dependence_matrix();
  schedule::LinearSchedule sched(t.schedule());
  if (!sched.respects_dependences(d)) {
    throw std::invalid_argument(
        "design_dedicated_array: schedule violates Pi D > 0");
  }
  const std::size_t m = d.cols();
  ArrayDesign out{t,
                  t.space() * d,          // P = S D
                  MatI::identity(m),      // K = I
                  VecI(m, 0),
                  VecI(m, 1),
                  VecI(m, 0),
                  collect_processors(algo, t)};
  for (std::size_t i = 0; i < m; ++i) {
    out.delays[i] = sched.dependence_delay(d, i);
    // A dedicated link moves the datum in one hop; if the dependence maps
    // to the same processor (S d_i = 0), the value stays local (0 hops)
    // and waits in the PE's own register file.
    bool local = true;
    for (std::size_t r = 0; r < out.p.rows(); ++r) {
      if (out.p(r, i) != 0) {
        local = false;
        break;
      }
    }
    if (local) {
      out.hops[i] = 0;
      out.k(i, i) = 0;
    }
    out.buffers[i] = exact::sub_checked(out.delays[i], out.hops[i]);
  }
  return out;
}

std::optional<ArrayDesign> design_on_interconnect(
    const model::UniformDependenceAlgorithm& algo,
    const mapping::MappingMatrix& t, const schedule::Interconnect& net) {
  const MatI& d = algo.dependence_matrix();
  schedule::LinearSchedule sched(t.schedule());
  if (!sched.respects_dependences(d)) return std::nullopt;
  std::optional<schedule::Routing> routing =
      schedule::route(t.space(), d, net, sched);
  if (!routing) return std::nullopt;
  return ArrayDesign{t,
                     net.p(),
                     std::move(routing->k),
                     std::move(routing->delays),
                     std::move(routing->hops),
                     std::move(routing->buffers),
                     collect_processors(algo, t)};
}

}  // namespace sysmap::systolic
