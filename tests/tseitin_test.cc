// Tests for Theorem 2 Step 2: the Tseitin construction C(H*) on Cn and Hn
// is pairwise consistent but not globally consistent; Lemma 4 lifting
// preserves k-wise consistency; MakeCounterexample works on arbitrary
// cyclic hypergraphs.
#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/global.h"
#include "core/lifting.h"
#include "core/local_global.h"
#include "core/pairwise.h"
#include "core/tseitin.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/families.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"
#include "util/random.h"

namespace bagc {
namespace {

TEST(TseitinTest, RequiresUniformRegular) {
  EXPECT_FALSE(MakeTseitinCollection(*MakePath(4)).ok());  // not regular
  Hypergraph single = *Hypergraph::FromEdges({Schema{{0, 1}}});
  EXPECT_FALSE(MakeTseitinCollection(single).ok());  // single edge (d = 1)
}

TEST(TseitinTest, SupportsAreCongruenceClasses) {
  Hypergraph c4 = *MakeCycle(4);
  std::vector<Bag> bags = *MakeTseitinCollection(c4);
  ASSERT_EQ(bags.size(), 4u);
  // d = 2, k = 2: each bag's support = pairs with even (resp. odd) sum.
  for (size_t i = 0; i < 4; ++i) {
    size_t target = (i + 1 == 4) ? 1 : 0;
    EXPECT_EQ(bags[i].SupportSize(), 2u);
    for (size_t e = 0; e < bags[i].SupportSize(); ++e) {
      Tuple t = bags[i].RowAt(e);
      EXPECT_EQ(bags[i].MultiplicityAt(e), 1u);
      uint64_t sum = 0;
      for (size_t s = 0; s < t.arity(); ++s) sum += static_cast<uint64_t>(t.at(s));
      EXPECT_EQ(sum % 2, target);
    }
  }
}

class TseitinCycleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TseitinCycleTest, PairwiseConsistentButNotGlobal) {
  size_t n = GetParam();
  Hypergraph cn = *MakeCycle(n);
  BagCollection c = *BagCollection::Make(*MakeTseitinCollection(cn));
  EXPECT_TRUE(*ArePairwiseConsistent(c));
  auto witness = *SolveGlobalConsistencyExact(c);
  EXPECT_FALSE(witness.has_value()) << "C" << n;
}

INSTANTIATE_TEST_SUITE_P(CycleSweep, TseitinCycleTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

class TseitinHnTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TseitinHnTest, PairwiseConsistentButNotGlobal) {
  size_t n = GetParam();
  Hypergraph hn = *MakeHn(n);
  BagCollection c = *BagCollection::Make(*MakeTseitinCollection(hn));
  EXPECT_TRUE(*ArePairwiseConsistent(c));
  auto witness = *SolveGlobalConsistencyExact(c);
  EXPECT_FALSE(witness.has_value()) << "H" << n;
}

INSTANTIATE_TEST_SUITE_P(HnSweep, TseitinHnTest, ::testing::Values(3, 4, 5));

TEST(TseitinTest, ExactSearchStatsArePinned) {
  // P(R1..Rm) of every C(Cn) and C(Hn) above has an empty join: the
  // parity classes never agree on all shared attributes, so the search
  // refuses at the root without a node.
  std::vector<Hypergraph> schemas;
  for (size_t n : {3, 4, 5, 6, 7, 8}) schemas.push_back(*MakeCycle(n));
  for (size_t n : {3, 4, 5}) schemas.push_back(*MakeHn(n));
  for (const Hypergraph& h : schemas) {
    ConsistencyLp lp = *BuildConsistencyLp(*MakeTseitinCollection(h));
    SolveStats stats;
    EXPECT_FALSE(SolveIntegerFeasibility(lp, {}, &stats)->has_value());
    EXPECT_TRUE(lp.variables.empty());
    EXPECT_EQ(stats.nodes, 0u);
    EXPECT_EQ(stats.backtracks, 0u);
  }
}

class TseitinHierarchyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TseitinHierarchyTest, CycleTseitinIsExactlyNMinusOneWiseConsistent) {
  // Sharpening of Theorem 2 Step 2 on Cn: every proper subcollection of
  // the cycle's Tseitin bags lives on a sub-path (acyclic!), is pairwise
  // consistent, and hence globally consistent — so C(Cn) is (n-1)-wise
  // consistent; yet the full collection is not. The k-wise consistency
  // hierarchy is therefore strict at every level.
  size_t n = GetParam();
  Hypergraph cn = *MakeCycle(n);
  BagCollection c = *BagCollection::Make(*MakeTseitinCollection(cn));
  EXPECT_TRUE(*AreKWiseConsistent(c, n - 1)) << "C" << n;
  std::optional<std::vector<size_t>> failing;
  EXPECT_FALSE(*AreKWiseConsistent(c, n, &failing)) << "C" << n;
  ASSERT_TRUE(failing.has_value());
  EXPECT_EQ(failing->size(), n);  // only the full cycle fails
}

INSTANTIATE_TEST_SUITE_P(HierarchySweep, TseitinHierarchyTest,
                         ::testing::Values(3, 4, 5, 6));

TEST(TseitinTest, SharedMarginalsAreUniform) {
  // The pairwise-consistency proof: Ri[Z] is the constant bag with value
  // d^(k-|Z|-1) on {0..d-1}^Z.
  Hypergraph h5 = *MakeHn(5);  // k = d = 4
  std::vector<Bag> bags = *MakeTseitinCollection(h5);
  Schema z = Schema::Intersect(bags[0].schema(), bags[1].schema());
  Bag m0 = *bags[0].Marginal(z);
  Bag m1 = *bags[1].Marginal(z);
  EXPECT_EQ(m0, m1);
  uint64_t expected = TseitinMarginalMultiplicity(4, 4, z.arity());
  for (size_t e = 0; e < m0.SupportSize(); ++e) {
    EXPECT_EQ(m0.MultiplicityAt(e), expected);
  }
}

TEST(TseitinMarginalTest, FormulaMatches) {
  EXPECT_EQ(TseitinMarginalMultiplicity(2, 2, 1), 1u);
  EXPECT_EQ(TseitinMarginalMultiplicity(3, 4, 1), 9u);   // 3^(4-1-1)
  EXPECT_EQ(TseitinMarginalMultiplicity(4, 4, 3), 1u);   // 4^0
  EXPECT_EQ(TseitinMarginalMultiplicity(5, 6, 0), 3125u);  // 5^5
}

// ---- Lemma 4 lifting ----

TEST(LiftingTest, PlanOnIdentityIsEmpty) {
  Hypergraph c4 = *MakeCycle(4);
  LiftPlan plan = *PlanLiftToInduced(c4.edges(), c4.vertices());
  EXPECT_TRUE(plan.ops.empty());
  EXPECT_EQ(plan.final_edges, c4.edges());
}

TEST(LiftingTest, VertexDeletionRoundTrip) {
  // H1 = triangle plus pendant vertex 3 on edge {2,3}; delete 3.
  std::vector<Schema> edges = {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{0, 2}},
                               Schema{{2, 3}}};
  LiftPlan plan = *PlanLiftToInduced(edges, Schema{{0, 1, 2}});
  // After deleting vertex 3, edge {2,3} becomes {2} ⊆ {1,2}: covered.
  ASSERT_EQ(plan.final_edges.size(), 3u);
  // Lift the C3 Tseitin counterexample.
  Hypergraph c3 = *MakeCycle(3);
  std::vector<Bag> tseitin = *MakeTseitinCollection(c3);
  // Align bags with plan.final_edges.
  std::vector<Bag> d0;
  for (const Schema& e : plan.final_edges) {
    for (const Bag& b : tseitin) {
      if (b.schema() == e) d0.push_back(b);
    }
  }
  ASSERT_EQ(d0.size(), 3u);
  std::vector<Bag> lifted = *LiftCollection(plan, d0);
  ASSERT_EQ(lifted.size(), 4u);
  EXPECT_EQ(lifted[3].schema(), Schema({2, 3}));
  // Lemma 4: pairwise consistency preserved, global inconsistency preserved.
  BagCollection c = *BagCollection::Make(lifted);
  EXPECT_TRUE(*ArePairwiseConsistent(c));
  EXPECT_FALSE(SolveGlobalConsistencyExact(c)->has_value());
}

TEST(LiftingTest, LiftedBagsConcentrateOnDefaultValue) {
  std::vector<Schema> edges = {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{0, 2}},
                               Schema{{2, 3}}};
  LiftPlan plan = *PlanLiftToInduced(edges, Schema{{0, 1, 2}});
  Hypergraph c3 = *MakeCycle(3);
  std::vector<Bag> tseitin = *MakeTseitinCollection(c3);
  std::vector<Bag> d0;
  for (const Schema& e : plan.final_edges) {
    for (const Bag& b : tseitin) {
      if (b.schema() == e) d0.push_back(b);
    }
  }
  std::vector<Bag> lifted = *LiftCollection(plan, d0);
  // The bag over {2,3} must put the deleted attribute 3 at u0 = 0.
  const Bag& pendant = lifted[3];
  Schema s23{{2, 3}};
  for (size_t e = 0; e < pendant.SupportSize(); ++e) {
    EXPECT_EQ(*pendant.RowAt(e).ValueOf(s23, 3), 0);
  }
}

TEST(LiftingTest, ValidatesAlignment) {
  std::vector<Schema> edges = {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{0, 2}}};
  LiftPlan plan = *PlanLiftToInduced(edges, Schema{{0, 1, 2}});
  // Wrong number of bags.
  EXPECT_FALSE(LiftCollection(plan, {}).ok());
  // Wrong schema order.
  Bag wrong(Schema{{5, 6}});
  EXPECT_FALSE(LiftCollection(plan, {wrong, wrong, wrong}).ok());
}

TEST(LiftingTest, KWiseEquivalenceOnLiftedCollections) {
  // Lemma 4 full statement: D0 k-wise consistent iff D1 k-wise consistent.
  // Use a C4 inside a larger hypergraph; check k = 2 and k = 3 both ways.
  std::vector<Schema> edges = {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{2, 3}},
                               Schema{{3, 0}}, Schema{{1, 4}}};
  LiftPlan plan = *PlanLiftToInduced(edges, Schema{{0, 1, 2, 3}});
  Hypergraph c4 = *MakeCycle(4);
  std::vector<Bag> tseitin = *MakeTseitinCollection(c4);
  std::vector<Bag> d0;
  for (const Schema& e : plan.final_edges) {
    for (const Bag& b : tseitin) {
      if (b.schema() == e) d0.push_back(b);
    }
  }
  ASSERT_EQ(d0.size(), 4u);
  std::vector<Bag> lifted = *LiftCollection(plan, d0);
  BagCollection dc0 = *BagCollection::Make(d0);
  BagCollection dc1 = *BagCollection::Make(lifted);
  EXPECT_EQ(*AreKWiseConsistent(dc0, 2), *AreKWiseConsistent(dc1, 2));
  EXPECT_EQ(*AreKWiseConsistent(dc0, 3), *AreKWiseConsistent(dc1, 3));
  EXPECT_EQ(*IsGloballyConsistent(dc0), *IsGloballyConsistent(dc1));
}

// ---- MakeCounterexample: the Theorem 2 Step 2 showpiece ----

TEST(CounterexampleTest, FailsOnAcyclic) {
  auto result = MakeCounterexample(*MakePath(4));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CounterexampleTest, WorksOnNamedFamilies) {
  for (size_t n = 3; n <= 6; ++n) {
    BagCollection c = *MakeCounterexample(*MakeCycle(n));
    EXPECT_TRUE(*ArePairwiseConsistent(c)) << "C" << n;
    EXPECT_FALSE(SolveGlobalConsistencyExact(c)->has_value()) << "C" << n;
  }
  for (size_t n = 3; n <= 5; ++n) {
    BagCollection c = *MakeCounterexample(*MakeHn(n));
    EXPECT_TRUE(*ArePairwiseConsistent(c)) << "H" << n;
    EXPECT_FALSE(SolveGlobalConsistencyExact(c)->has_value()) << "H" << n;
  }
}

TEST(CounterexampleTest, WorksOnRandomCyclicHypergraphs) {
  Rng rng(77);
  int found = 0;
  for (int trial = 0; trial < 60 && found < 12; ++trial) {
    size_t n = 4 + rng.Below(3);
    size_t k = 2 + rng.Below(2);
    size_t m = 3 + rng.Below(4);
    auto h = MakeRandomUniform(n, k, m, &rng);
    if (!h.ok() || IsAcyclic(*h)) continue;
    ++found;
    BagCollection c = *MakeCounterexample(*h);
    // The collection lives over (a sub-multiset matching) H's edges.
    EXPECT_EQ(c.size(), h->num_edges());
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c.bag(i).schema(), h->edges()[i]);
    }
    EXPECT_TRUE(*ArePairwiseConsistent(c)) << h->ToString();
    EXPECT_FALSE(SolveGlobalConsistencyExact(c)->has_value()) << h->ToString();
  }
  EXPECT_GE(found, 6);
}

}  // namespace
}  // namespace bagc
