// Unit tests for the LP builder, the exact integer-feasibility solver, and
// the rational closed-form solution of Lemma 2.
#include <gtest/gtest.h>
#include <pthread.h>

#include "bag/bag.h"
#include "core/collection.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"
#include "solver/rational_witness.h"
#include "util/random.h"

namespace bagc {
namespace {

std::vector<Bag> TwoBagExample() {
  // The §3 example: R1(AB) = {(1,2):1, (2,2):1}, S1(BC) = {(2,1):1, (2,2):1}.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 1}, {{2, 2}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{2, 1}, 1}, {{2, 2}, 1}});
  return {r, s};
}

TEST(LpTest, BuildTwoBagProgram) {
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  EXPECT_EQ(lp.joined_schema, Schema({0, 1, 2}));
  EXPECT_EQ(lp.variables.size(), 4u);  // 2x2 join
  // 2 + 2 support rows; no zero rows (all projections hit supports).
  EXPECT_EQ(lp.rows.size(), 4u);
  // Every variable appears in exactly one row per bag.
  std::vector<size_t> count(lp.variables.size(), 0);
  for (const LpRow& row : lp.rows) {
    for (uint32_t v : row.vars) ++count[v];
  }
  for (size_t c : count) EXPECT_EQ(c, 2u);
}

TEST(LpTest, JoinCapIsEnforced) {
  std::vector<Bag> bags;
  // Three bags over disjoint schemas with 8 tuples each: join support 512.
  for (AttrId a = 0; a < 3; ++a) {
    Bag b(Schema{{a}});
    for (Value v = 0; v < 8; ++v) {
      ASSERT_TRUE(b.Set(Tuple{{v}}, 1).ok());
    }
    bags.push_back(std::move(b));
  }
  EXPECT_FALSE(BuildConsistencyLp(bags, 100).ok());
  EXPECT_TRUE(BuildConsistencyLp(bags, 512).ok());
}

TEST(LpTest, BuildWithRestrictedVariables) {
  auto bags = TwoBagExample();
  // Restrict to the two tuples of the witness T1 from the paper.
  std::vector<Tuple> vars = {Tuple{{1, 2, 2}}, Tuple{{2, 2, 1}}};
  ConsistencyLp lp = *BuildLpWithVariables(bags, vars);
  EXPECT_EQ(lp.variables.size(), 2u);
  auto solution = *SolveIntegerFeasibility(lp);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 1u);
  EXPECT_EQ((*solution)[1], 1u);
}

TEST(LpTest, RestrictedVariablesRejectBadArity) {
  auto bags = TwoBagExample();
  EXPECT_FALSE(BuildLpWithVariables(bags, {Tuple{{1, 2}}}).ok());
}

TEST(IntegerFeasibilityTest, PaperExampleHasExactlyTwoWitnesses) {
  // §3: the consistency of R1 and S1 is witnessed by exactly the bags T1
  // and T2 — and no other.
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  auto solutions = *EnumerateIntegerSolutions(lp);
  EXPECT_EQ(solutions.size(), 2u);
  EXPECT_EQ(*CountIntegerSolutions(lp), 2u);
}

TEST(IntegerFeasibilityTest, InfeasibleDetected) {
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 2}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 1}});
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  auto solution = *SolveIntegerFeasibility(lp);
  EXPECT_FALSE(solution.has_value());
  EXPECT_EQ(*CountIntegerSolutions(lp), 0u);
}

TEST(IntegerFeasibilityTest, EmptyJoinWithNonzeroRhsInfeasible) {
  // Supports do not join at all: rows have no variables.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 5}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{6, 0}, 1}});
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  EXPECT_TRUE(lp.variables.empty());
  auto solution = *SolveIntegerFeasibility(lp);
  EXPECT_FALSE(solution.has_value());
}

TEST(IntegerFeasibilityTest, NodeLimitReported) {
  // A moderately large feasible instance with a tiny node budget.
  Rng rng(3);
  BagGenOptions options;
  options.support_size = 64;
  options.domain_size = 8;
  auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  SolveOptions limited;
  limited.node_limit = 3;
  auto result = SolveIntegerFeasibility(lp, limited);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(IntegerFeasibilityTest, SolutionSatisfiesAllRows) {
  Rng rng(11);
  BagGenOptions options;
  options.support_size = 10;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    ConsistencyLp lp = *BuildConsistencyLp({r, s});
    SolveStats stats;
    auto solution = *SolveIntegerFeasibility(lp, {}, &stats);
    ASSERT_TRUE(solution.has_value());
    EXPECT_GT(stats.nodes, 0u);
    for (const LpRow& row : lp.rows) {
      uint64_t sum = 0;
      for (uint32_t v : row.vars) sum += (*solution)[v];
      EXPECT_EQ(sum, row.rhs);
    }
  }
}

TEST(IntegerFeasibilityTest, AscendingValueOrderAlsoWorks) {
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  SolveOptions opts;
  opts.descend_values = false;
  auto solution = *SolveIntegerFeasibility(lp, opts);
  EXPECT_TRUE(solution.has_value());
  EXPECT_EQ(*CountIntegerSolutions(lp, 1u << 20, opts), 2u);
}

TEST(IntegerFeasibilityTest, CountLimitReported) {
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  auto result = CountIntegerSolutions(lp, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// SolveStats are part of the search's contract: the node count and the
// value order decide which witness is found first. These figures pin the
// search on the instances above and on 4-cycles (with and without a
// perturbed multiplicity) that hit the node limit deep in the tree.
TEST(IntegerFeasibilityTest, SearchStatsArePinned) {
  auto stats_of = [](const SolveStats& s) {
    return std::make_pair(s.nodes, s.backtracks);
  };
  using Pair = std::pair<uint64_t, uint64_t>;
  ConsistencyLp example = *BuildConsistencyLp(TwoBagExample());
  SolveOptions ascending;
  ascending.descend_values = false;
  SolveStats solve, count, enumerate, solve_asc, count_asc, count_limit;
  EXPECT_EQ(**SolveIntegerFeasibility(example, {}, &solve),
            (std::vector<uint64_t>{1, 0, 0, 1}));
  EXPECT_EQ(**SolveIntegerFeasibility(example, ascending, &solve_asc),
            (std::vector<uint64_t>{0, 1, 1, 0}));
  EXPECT_EQ(*CountIntegerSolutions(example, 1u << 24, {}, &count), 2u);
  EXPECT_EQ(*CountIntegerSolutions(example, 1u << 20, ascending, &count_asc), 2u);
  EXPECT_EQ(EnumerateIntegerSolutions(example, 1u << 20, {}, &enumerate)->size(), 2u);
  EXPECT_FALSE(CountIntegerSolutions(example, 1, {}, &count_limit).ok());
  EXPECT_EQ(stats_of(solve), Pair(4, 0));
  EXPECT_EQ(stats_of(solve_asc), Pair(4, 0));
  EXPECT_EQ(stats_of(count), Pair(8, 0));
  EXPECT_EQ(stats_of(count_asc), Pair(8, 0));
  EXPECT_EQ(stats_of(enumerate), Pair(8, 0));
  EXPECT_EQ(stats_of(count_limit), Pair(4, 0));

  // NodeLimitReported's instance: a limit counts one node past itself and
  // one backtrack per open ancestor of the refused node.
  Rng rng(3);
  BagGenOptions options;
  options.support_size = 64;
  options.domain_size = 8;
  auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
  ConsistencyLp pair = *BuildConsistencyLp({r, s});
  for (auto [limit, expected] : {std::make_pair(uint64_t{3}, Pair(4, 3)),
                                 std::make_pair(uint64_t{100}, Pair(101, 100)),
                                 std::make_pair(uint64_t{1000}, Pair(236, 0))}) {
    SolveOptions limited;
    limited.node_limit = limit;
    SolveStats stats;
    Result<std::optional<std::vector<uint64_t>>> result =
        SolveIntegerFeasibility(pair, limited, &stats);
    EXPECT_EQ(result.ok(), limit == 1000) << limit;
    EXPECT_EQ(stats_of(stats), expected) << limit;
  }

  // SolutionSatisfiesAllRows' 20 trials, summed.
  Rng trials(11);
  options.support_size = 10;
  options.domain_size = 3;
  SolveStats total;
  for (int trial = 0; trial < 20; ++trial) {
    auto [tr, ts] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &trials);
    ASSERT_TRUE(SolveIntegerFeasibility(*BuildConsistencyLp({tr, ts}), {}, &total)->has_value());
  }
  EXPECT_EQ(stats_of(total), Pair(286, 0));

  // Consistent 4-cycles, and the same with two multiplicities bumped.
  struct Square {
    uint64_t seed;
    bool perturbed;
    Pair stats;
    bool found;
  };
  const Square squares[] = {{7, false, {20001, 130}, false},
                            {7, true, {20001, 42}, false},
                            {8, false, {213, 0}, true},
                            {8, true, {20001, 53}, false}};
  for (const Square& sq : squares) {
    Rng square_rng(sq.seed);
    BagGenOptions gen;
    gen.support_size = 40;
    gen.domain_size = 4;
    gen.max_multiplicity = 4;
    BagCollection c =
        *MakeGloballyConsistentCollection(*MakeCycle(4), gen, &square_rng);
    std::vector<Bag> bags = c.bags();
    if (sq.perturbed) {
      for (size_t b : {0u, 2u}) {
        ASSERT_TRUE(bags[b].Set(bags[b].RowAt(1), bags[b].MultiplicityAt(1) + 1).ok());
      }
    }
    SolveOptions limited;
    limited.node_limit = 20000;
    SolveStats stats;
    Result<std::optional<std::vector<uint64_t>>> result =
        SolveIntegerFeasibility(*BuildConsistencyLp(bags), limited, &stats);
    EXPECT_EQ(result.ok() && result->has_value(), sq.found) << sq.seed;
    EXPECT_EQ(stats_of(stats), sq.stats) << sq.seed << " " << sq.perturbed;
  }
}

// x_0 = 1 and x_{i-1} + x_i = 1 for i >= 1: every variable is forced by
// the row it closes, so the search descends once through all of them.
ConsistencyLp ForcedChain(size_t n) {
  ConsistencyLp lp;
  lp.variables.resize(n);
  lp.rows.resize(n);
  lp.rows[0].rhs = 1;
  lp.rows[0].vars = {0};
  for (size_t i = 1; i < n; ++i) {
    lp.rows[i].rhs = 1;
    lp.rows[i].vars = {static_cast<uint32_t>(i - 1), static_cast<uint32_t>(i)};
  }
  return lp;
}

TEST(IntegerFeasibilityTest, DeepSearchRunsOnASmallStack) {
  // 10^5 search levels on a 1 MB thread stack: a recursive DFS needs a
  // frame per level and overflows long before the bottom.
  constexpr size_t kVars = 100000;
  struct Job {
    ConsistencyLp lp = ForcedChain(kVars);
    SolveStats stats;
    Result<std::optional<std::vector<uint64_t>>> result =
        Status::Internal("not run");
  } job;
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{1} << 20), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* arg) -> void* {
                  Job* j = static_cast<Job*>(arg);
                  j->result = SolveIntegerFeasibility(j->lp, {}, &j->stats);
                  return nullptr;
                },
                &job),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
  ASSERT_TRUE(job.result.ok()) << job.result.status().ToString();
  ASSERT_TRUE(job.result->has_value());
  const std::vector<uint64_t>& x = **job.result;
  ASSERT_EQ(x.size(), kVars);
  for (size_t i = 0; i < kVars; ++i) ASSERT_EQ(x[i], i % 2 == 0 ? 1u : 0u) << i;
  EXPECT_EQ(job.stats.nodes, kVars);
  EXPECT_EQ(job.stats.backtracks, 0u);
}

TEST(RationalWitnessTest, ClosedFormSolvesConsistentPairs) {
  Rng rng(29);
  BagGenOptions options;
  options.support_size = 14;
  options.domain_size = 3;
  for (int trial = 0; trial < 25; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    ConsistencyLp lp = *BuildConsistencyLp({r, s});
    RationalSolution sol = *BuildRationalSolution(r, s, lp);
    EXPECT_TRUE(*VerifyRationalSolution(lp, sol));
  }
}

TEST(RationalWitnessTest, InconsistentPairRejected) {
  Rng rng(31);
  BagGenOptions options;
  options.support_size = 10;
  options.domain_size = 3;
  auto [r, s] = *MakeInconsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  auto result = BuildRationalSolution(r, s, lp);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RationalWitnessTest, VerifierRejectsWrongSolutions) {
  auto bags = TwoBagExample();
  ConsistencyLp lp = *BuildConsistencyLp(bags);
  RationalSolution sol = *BuildRationalSolution(bags[0], bags[1], lp);
  EXPECT_TRUE(*VerifyRationalSolution(lp, sol));
  // Corrupt one entry.
  sol.values[0] = *Rational::Add(sol.values[0], Rational(1));
  EXPECT_FALSE(*VerifyRationalSolution(lp, sol));
  // Wrong size.
  sol.values.pop_back();
  EXPECT_FALSE(VerifyRationalSolution(lp, sol).ok());
}

TEST(RationalWitnessTest, FractionalVerticesArePossible) {
  // The closed-form solution is generally fractional: R(AB)={(0,0):1,(1,0):1},
  // S(BC)={(0,0):1,(0,1):1} gives x_t = 1*1/2 for all four join tuples.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 1}, {{1, 0}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 1}, {{0, 1}, 1}});
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  RationalSolution sol = *BuildRationalSolution(r, s, lp);
  ASSERT_EQ(sol.values.size(), 4u);
  for (const Rational& v : sol.values) {
    EXPECT_EQ(v, *Rational::Make(1, 2));
  }
  // Hoffman–Kruskal: the polytope nonetheless has integral points (the
  // integer solver finds one).
  auto integral = *SolveIntegerFeasibility(lp);
  EXPECT_TRUE(integral.has_value());
}

}  // namespace
}  // namespace bagc
