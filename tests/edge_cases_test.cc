// Edge cases and failure injection across modules: overflow paths,
// resource budgets, degenerate schemas (empty shared attributes, single
// attributes, duplicate schemas), and Lemma 2 route agreement swept over
// schema-overlap shapes (parameterized).
#include <gtest/gtest.h>

#include <limits>

#include "core/global.h"
#include "core/lifting.h"
#include "core/pairwise.h"
#include "core/two_bag.h"
#include "engine/consistency_engine.h"
#include "flow/consistency_network.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "solver/integer_feasibility.h"
#include "solver/simplex.h"
#include "util/random.h"

namespace bagc {
namespace {

// ---- overflow injection ----

TEST(OverflowTest, MarginalOverflowSurfaces) {
  // Two tuples projecting to the same Z-tuple with multiplicities whose
  // sum overflows uint64.
  uint64_t half = std::numeric_limits<uint64_t>::max() / 2 + 1;
  Bag bag(Schema{{0, 1}});
  ASSERT_TRUE(bag.Set(Tuple{{0, 0}}, half).ok());
  ASSERT_TRUE(bag.Set(Tuple{{1, 0}}, half).ok());
  auto marginal = bag.Marginal(Schema{{1}});
  EXPECT_FALSE(marginal.ok());
  EXPECT_EQ(marginal.status().code(), StatusCode::kArithmeticOverflow);
}

TEST(OverflowTest, ConsistencyNetworkRejectsHugeCardinalities) {
  uint64_t huge = FlowNetwork::kUnbounded;
  Bag r(Schema{{0, 1}});
  ASSERT_TRUE(r.Set(Tuple{{0, 0}}, huge).ok());
  ASSERT_TRUE(r.Set(Tuple{{1, 0}}, huge).ok());
  Bag s(Schema{{1, 2}});
  ASSERT_TRUE(s.Set(Tuple{{0, 0}}, huge).ok());
  ASSERT_TRUE(s.Set(Tuple{{0, 1}}, huge).ok());
  auto net = ConsistencyNetwork::Make(r, s);
  EXPECT_FALSE(net.ok());
}

TEST(OverflowTest, UnarySizeOverflowSurfaces) {
  uint64_t half = std::numeric_limits<uint64_t>::max() / 2 + 1;
  Bag bag(Schema{{0}});
  ASSERT_TRUE(bag.Set(Tuple{{0}}, half).ok());
  ASSERT_TRUE(bag.Set(Tuple{{1}}, half).ok());
  EXPECT_FALSE(bag.UnarySize().ok());
  // Binary size never overflows (sums of bit-lengths).
  EXPECT_GT(bag.BinarySize(), 0u);
}

// ---- resource budgets ----

TEST(BudgetTest, GlobalSolveJoinCapPropagates) {
  // Disjoint singleton schemas make the join support multiplicative.
  std::vector<Bag> bags;
  for (AttrId a = 0; a < 4; ++a) {
    Bag b(Schema{{a}});
    for (Value v = 0; v < 8; ++v) {
      ASSERT_TRUE(b.Set(Tuple{{v}}, 1).ok());
    }
    bags.push_back(std::move(b));
  }
  BagCollection c = *BagCollection::Make(bags);
  GlobalSolveOptions options;
  options.max_join_support = 100;  // < 8^4
  auto result = SolveGlobalConsistencyExact(c, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, WitnessJoinCapRefusesBeforeBuildingTheNetwork) {
  // Disjoint schemas: |R' ⋈ S'| = 8 × 8 = 64 middle edges.
  std::vector<Bag> bags;
  for (AttrId a = 0; a < 2; ++a) {
    Bag b(Schema{{a}});
    for (Value v = 0; v < 8; ++v) ASSERT_TRUE(b.Set(Tuple{{v}}, 1).ok());
    bags.push_back(std::move(b));
  }
  for (size_t cap : {size_t{63}, size_t{64}}) {
    EngineOptions options;
    options.global.max_join_support = cap;
    ConsistencyEngine engine = *ConsistencyEngine::Make(*BagCollection::Make(bags), options);
    for (bool minimal : {false, true}) {
      Result<std::optional<Bag>> sealed = engine.WitnessSealed(0, 1, minimal);
      Result<std::optional<Bag>> shared = engine.Witness(0, 1, minimal);
      if (cap < 64) {
        ASSERT_FALSE(sealed.ok());
        EXPECT_EQ(sealed.status().code(), StatusCode::kResourceExhausted);
        EXPECT_EQ(sealed.status().message(), "join support exceeds cap (63)");
        ASSERT_FALSE(shared.ok());
        EXPECT_EQ(shared.status().code(), StatusCode::kResourceExhausted);
      } else {
        ASSERT_TRUE(sealed.ok() && shared.ok());
        EXPECT_EQ(**sealed, **shared);
      }
    }
    // The Theorem 6 fold is not capped.
    auto fold = engine.SolveGlobalAcyclic();
    ASSERT_TRUE(fold.ok()) << fold.status().ToString();
    EXPECT_TRUE(fold->has_value());
  }
}

TEST(BudgetTest, SimplexTableauGuard) {
  // A program whose tableau would exceed the memory budget is rejected
  // rather than allocated.
  Rng rng(601);
  BagGenOptions options;
  options.support_size = 1200;
  options.domain_size = 128;
  auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  if (lp.rows.size() * (lp.variables.size() + lp.rows.size() + 1) >
      (size_t{1} << 24)) {
    auto res = SolveRationalFeasibility(lp);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  } else {
    GTEST_SKIP() << "instance unexpectedly small for the guard";
  }
}

// ---- degenerate schemas ----

TEST(DegenerateTest, SingleAttributeBags) {
  Bag r = *MakeBag(Schema{{0}}, {{{1}, 2}, {{2}, 3}});
  Bag s = *MakeBag(Schema{{0}}, {{{1}, 2}, {{2}, 3}});
  EXPECT_TRUE(*AreConsistent(r, s));
  auto witness = *FindWitness(r, s);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, r);  // X = Y: the witness is the bag itself
}

TEST(DegenerateTest, SingletonCollection) {
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 3}});
  BagCollection c = *BagCollection::Make({r});
  auto witness = *SolveGlobalConsistencyAcyclic(c);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, r);
  EXPECT_TRUE(*ArePairwiseConsistent(c));
}

TEST(DegenerateTest, AllBagsEmpty) {
  BagCollection c = *BagCollection::Make(
      {Bag(Schema{{0, 1}}), Bag(Schema{{1, 2}}), Bag(Schema{{2, 3}})});
  auto witness = *SolveGlobalConsistencyAcyclic(c);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->IsEmpty());
}

TEST(DegenerateTest, OneEmptyOneNot) {
  Bag r(Schema{{0, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 1}});
  EXPECT_FALSE(*AreConsistent(r, s));
}

TEST(DegenerateTest, LiftPlanToFullVertexSetIsIdentity) {
  std::vector<Schema> edges = {Schema{{0, 1}}, Schema{{1, 2}}};
  LiftPlan plan = *PlanLiftToInduced(edges, Schema{{0, 1, 2}});
  EXPECT_TRUE(plan.ops.empty());
  Bag r = *MakeBag(Schema{{0, 1}}, {{{5, 6}, 2}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{6, 7}, 2}});
  auto lifted = *LiftCollection(plan, {r, s});
  EXPECT_EQ(lifted[0], r);
  EXPECT_EQ(lifted[1], s);
}

TEST(DegenerateTest, LiftThroughWholeEdgeDeletion) {
  // Edge {2} consists solely of a deleted vertex: along the plan it
  // becomes the empty schema and is removed as covered; the lift must
  // re-materialize a bag over {2} concentrated on u0 with the right
  // cardinality.
  std::vector<Schema> edges = {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{2}}};
  LiftPlan plan = *PlanLiftToInduced(edges, Schema{{0, 1}});
  // Final edges: just {0,1} (and {1} from {1,2}? {1} ⊆ {0,1} is covered).
  ASSERT_EQ(plan.final_edges.size(), 1u);
  EXPECT_EQ(plan.final_edges[0], Schema({0, 1}));
  Bag d0 = *MakeBag(Schema{{0, 1}}, {{{4, 5}, 3}});
  auto lifted = *LiftCollection(plan, {d0});
  ASSERT_EQ(lifted.size(), 3u);
  EXPECT_EQ(lifted[0], d0);
  // Bag over {1,2}: marginal of d0 onto {1}, injected with u0 at attr 2.
  EXPECT_EQ(lifted[1].Multiplicity(Tuple{{5, 0}}), 3u);
  // Bag over {2}: the scalar cardinality at u0.
  EXPECT_EQ(lifted[2].Multiplicity(Tuple{{0}}), 3u);
  // And the lifted collection is globally consistent iff d0 is (trivially
  // consistent here).
  BagCollection c = *BagCollection::Make(lifted);
  EXPECT_TRUE(*ArePairwiseConsistent(c));
}

// ---- Lemma 2 route agreement across schema-overlap shapes ----

struct OverlapShape {
  Schema x;
  Schema y;
  const char* name;
};

class RouteAgreementTest : public ::testing::TestWithParam<OverlapShape> {};

TEST_P(RouteAgreementTest, AllRoutesAgree) {
  const OverlapShape& shape = GetParam();
  Rng rng(700);
  BagGenOptions options;
  options.support_size = 8;
  options.domain_size = 3;
  options.max_multiplicity = 5;
  for (int trial = 0; trial < 12; ++trial) {
    bool want = trial % 2 == 0;
    auto [r, s] = want ? *MakeConsistentPair(shape.x, shape.y, options, &rng)
                       : *MakeInconsistentPair(shape.x, shape.y, options, &rng);
    bool by_marginals = *AreConsistent(r, s);
    bool by_flow = FindWitness(r, s)->has_value();
    ConsistencyLp lp = *BuildConsistencyLp({r, s});
    bool by_integer = SolveIntegerFeasibility(lp)->has_value();
    bool by_simplex = SolveRationalFeasibility(lp)->feasible;
    EXPECT_EQ(by_marginals, by_flow) << shape.name;
    EXPECT_EQ(by_marginals, by_integer) << shape.name;
    EXPECT_EQ(by_marginals, by_simplex) << shape.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OverlapShapes, RouteAgreementTest,
    ::testing::Values(
        OverlapShape{Schema{{0, 1}}, Schema{{1, 2}}, "one_shared"},
        OverlapShape{Schema{{0, 1, 2}}, Schema{{1, 2, 3}}, "two_shared"},
        OverlapShape{Schema{{0}}, Schema{{1}}, "disjoint"},
        OverlapShape{Schema{{0, 1}}, Schema{{0, 1}}, "identical"},
        OverlapShape{Schema{{0, 1, 2, 3}}, Schema{{3}}, "contained"},
        OverlapShape{Schema{{0, 1, 2}}, Schema{{2, 3, 4, 5}}, "wide"}),
    [](const ::testing::TestParamInfo<OverlapShape>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bagc
