// Thread-count independence of the percolation layer (DESIGN.md §7):
// its chunk-merged Monte-Carlo stats are bit-identical for any OpenMP
// thread count.  The scheduler-level contract — campaign payloads are
// byte-identical for any executor thread count — lives in
// tests/test_campaign.cpp.
#include <gtest/gtest.h>

#include "percolation/percolation.hpp"
#include "topology/mesh.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne {
namespace {

TEST(ParallelRunner, PercolationStatsAreThreadCountIndependent) {
  const Mesh m = Mesh::cube(12, 2);
  const PercolationResult reference = percolate(m.graph(), PercolationKind::Site, 0.7, 37, 5);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    const PercolationResult again = percolate(m.graph(), PercolationKind::Site, 0.7, 37, 5);
    SCOPED_TRACE(threads);
    EXPECT_EQ(reference.gamma.count(), again.gamma.count());
    EXPECT_EQ(reference.gamma.mean(), again.gamma.mean());
    EXPECT_EQ(reference.gamma.variance(), again.gamma.variance());
    EXPECT_EQ(reference.gamma.min(), again.gamma.min());
    EXPECT_EQ(reference.gamma.max(), again.gamma.max());
  }
  omp_set_num_threads(saved);
#else
  const PercolationResult again = percolate(m.graph(), PercolationKind::Site, 0.7, 37, 5);
  EXPECT_EQ(reference.gamma.mean(), again.gamma.mean());
#endif
  EXPECT_EQ(reference.gamma.count(), 37u);
}

}  // namespace
}  // namespace fne
