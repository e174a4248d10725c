// Differential test of the two-bag witness construction. N(R, S) keeps its
// middle edges as index pairs in a CSR flow arena; the reference below
// builds N(R, S) with one explicit join tuple per middle edge, in the same
// edge order, and solves it with a per-vertex adjacency-list Dinic. The
// two must agree byte for byte on every witness (plain and §5.3 minimal),
// on every middle tuple, and on every per-edge flow — including after the
// arena is grown, reset or re-capacitated between solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "bag/bag.h"
#include "core/two_bag.h"
#include "flow/consistency_network.h"
#include "flow/network.h"
#include "generators/workloads.h"
#include "util/random.h"

namespace bagc {
namespace {

// Dinic over per-vertex adjacency lists of half-edge ids (edge k is the
// forward arc 2k and the back arc 2k+1).
class ReferenceFlow {
 public:
  explicit ReferenceFlow(size_t n) : graph_(n) {}

  size_t AddEdge(size_t u, size_t v, uint64_t cap) {
    graph_[u].push_back(arcs_.size());
    arcs_.push_back({v, cap, cap});
    graph_[v].push_back(arcs_.size());
    arcs_.push_back({u, 0, 0});
    return arcs_.size() / 2 - 1;
  }
  void SetCapacity(size_t id, uint64_t cap) { arcs_[2 * id].orig = cap; }
  uint64_t FlowOn(size_t id) const { return arcs_[2 * id].orig - arcs_[2 * id].cap; }

  uint64_t Solve(size_t s, size_t t) {
    for (Arc& a : arcs_) a.cap = a.orig;
    uint64_t total = 0;
    while (Bfs(s, t)) {
      iter_.assign(graph_.size(), 0);
      while (uint64_t pushed = Dfs(s, t, FlowNetwork::kUnbounded)) total += pushed;
    }
    return total;
  }

 private:
  struct Arc {
    size_t to;
    uint64_t cap;
    uint64_t orig;
  };

  bool Bfs(size_t s, size_t t) {
    level_.assign(graph_.size(), -1);
    std::vector<size_t> queue{s};
    level_[s] = 0;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      size_t v = queue[qi];
      for (size_t a : graph_[v]) {
        if (arcs_[a].cap > 0 && level_[arcs_[a].to] < 0) {
          level_[arcs_[a].to] = level_[v] + 1;
          queue.push_back(arcs_[a].to);
        }
      }
    }
    return level_[t] >= 0;
  }

  uint64_t Dfs(size_t v, size_t t, uint64_t limit) {
    if (v == t) return limit;
    for (size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
      size_t a = graph_[v][i];
      if (arcs_[a].cap == 0 || level_[arcs_[a].to] != level_[v] + 1) continue;
      uint64_t pushed = Dfs(arcs_[a].to, t, std::min(limit, arcs_[a].cap));
      if (pushed > 0) {
        arcs_[a].cap -= pushed;
        arcs_[a ^ 1].cap += pushed;
        return pushed;
      }
    }
    return 0;
  }

  std::vector<Arc> arcs_;
  std::vector<std::vector<size_t>> graph_;
  std::vector<int> level_;
  std::vector<size_t> iter_;
};

// N(R, S) with materialized join tuples: middle edges in (R row, S row)
// order, the order the hash join emits them.
struct ReferenceNetwork {
  ReferenceNetwork(const Bag& r, const Bag& s)
      : joiner(TupleJoiner::Make(r.schema(), s.schema()).value()),
        nr(r.SupportSize()),
        ns(s.SupportSize()),
        flow(2 + nr + ns) {
    for (size_t i = 0; i < nr; ++i) {
      flow.AddEdge(0, 1 + i, r.MultiplicityAt(i));
      total += r.MultiplicityAt(i);
    }
    for (size_t j = 0; j < ns; ++j) {
      flow.AddEdge(1 + nr + j, 1 + nr + ns, s.MultiplicityAt(j));
      sink_total += s.MultiplicityAt(j);
    }
    first_middle = nr + ns;
    for (size_t i = 0; i < nr; ++i) {
      Tuple x = r.RowAt(i);
      for (size_t j = 0; j < ns; ++j) {
        Tuple y = s.RowAt(j);
        if (!joiner.Joinable(x, y)) continue;
        flow.AddEdge(1 + i, 1 + nr + j, FlowNetwork::kUnbounded);
        middle.push_back(joiner.Join(x, y));
      }
    }
  }

  bool Saturated() {
    return total == sink_total && flow.Solve(0, 1 + nr + ns) == total;
  }

  Bag Extract() const {
    BagBuilder builder(joiner.joined_schema());
    for (size_t k = 0; k < middle.size(); ++k) {
      uint64_t f = flow.FlowOn(first_middle + k);
      if (f > 0) {
        EXPECT_TRUE(builder.Add(middle[k], f).ok());
      }
    }
    return builder.Build().value();
  }

  // §5.3: drop every middle edge some saturated flow can avoid.
  Bag Minimal() {
    for (size_t k = 0; k < middle.size(); ++k) {
      flow.SetCapacity(first_middle + k, 0);
      if (!Saturated()) flow.SetCapacity(first_middle + k, FlowNetwork::kUnbounded);
    }
    EXPECT_TRUE(Saturated());
    return Extract();
  }

  TupleJoiner joiner;
  size_t nr, ns;
  ReferenceFlow flow;
  uint64_t total = 0;
  uint64_t sink_total = 0;
  size_t first_middle = 0;
  std::vector<Tuple> middle;
};

// Same witness (as a function and in its rendering) from the arena and
// from the reference, for the bags as given.
void ExpectSameWitnesses(const Bag& r, const Bag& s, bool minimal) {
  ReferenceNetwork ref(r, s);
  Result<std::optional<Bag>> got = FindWitness(r, s);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  if (!ref.Saturated()) {
    EXPECT_FALSE(got->has_value());
    return;
  }
  ASSERT_TRUE(got->has_value());
  Bag want = ref.Extract();
  EXPECT_EQ(**got, want);
  EXPECT_EQ((*got)->ToString(), want.ToString());
  if (!minimal) return;
  Result<std::optional<Bag>> got_min = FindMinimalWitness(r, s);
  ASSERT_TRUE(got_min.ok() && got_min->has_value());
  Bag want_min = ref.Minimal();
  EXPECT_EQ(**got_min, want_min);
  EXPECT_EQ((*got_min)->ToString(), want_min.ToString());
}

void ExpectSameMiddleTuples(const Bag& r, const Bag& s) {
  ReferenceNetwork ref(r, s);
  Result<ConsistencyNetwork> net = ConsistencyNetwork::Make(r, s);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  ASSERT_EQ(net->NumMiddleEdges(), ref.middle.size());
  for (size_t i = 0; i < ref.middle.size(); ++i) {
    ASSERT_EQ(net->MiddleTuple(i), ref.middle[i]) << "middle edge " << i;
  }
}

Bag Columnar(Bag b) {
  b.SealColumnar();
  return b;
}

struct SchemaPair {
  Schema x, y;
};

const std::vector<SchemaPair>& Shapes() {
  static const std::vector<SchemaPair> shapes = {
      {Schema{{0, 1}}, Schema{{1, 2}}},        // one shared attribute
      {Schema{{0, 1, 2}}, Schema{{1, 2, 3}}},  // two shared attributes
      {Schema{{1, 3}}, Schema{{0, 2}}},        // disjoint: the cross product
      {Schema{{0, 1}}, Schema{{0, 1}}},        // X = Y
      {Schema{{2}}, Schema{{0, 1, 2}}},        // X ⊂ Y
  };
  return shapes;
}

TEST(WitnessDifferentialTest, RandomPairsMatchTheMaterializedJoin) {
  Rng rng(1501);
  for (const SchemaPair& shape : Shapes()) {
    for (int trial = 0; trial < 12; ++trial) {
      BagGenOptions options;
      // Small domains make the shared groups many-to-many.
      options.support_size = 4 + rng.Below(40);
      options.domain_size = 2 + rng.Below(4);
      options.max_multiplicity = 1 + rng.Below(9);
      auto pair = MakeConsistentPair(shape.x, shape.y, options, &rng);
      ASSERT_TRUE(pair.ok()) << pair.status().ToString();
      const auto& [r, s] = *pair;
      bool minimal = r.SupportSize() * s.SupportSize() <= 400;
      ExpectSameWitnesses(r, s, minimal);
      ExpectSameWitnesses(Columnar(r), Columnar(s), minimal);
      ExpectSameWitnesses(Columnar(r), s, /*minimal=*/false);
      ExpectSameMiddleTuples(r, s);
      ExpectSameMiddleTuples(Columnar(r), Columnar(s));
    }
  }
}

TEST(WitnessDifferentialTest, InconsistentPairsHaveNoWitness) {
  Rng rng(1502);
  for (const SchemaPair& shape : Shapes()) {
    BagGenOptions options;
    options.support_size = 20;
    options.domain_size = 3;
    auto pair = MakeInconsistentPair(shape.x, shape.y, options, &rng);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    ExpectSameWitnesses(pair->first, pair->second, /*minimal=*/false);
    ExpectSameMiddleTuples(pair->first, pair->second);
  }
}

TEST(WitnessDifferentialTest, EmptyJoinHasNoMiddleEdges) {
  // Shared attribute 1 takes disjoint values on the two sides.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 1}, {{1, 1}, 2}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{2, 0}, 1}, {{3, 1}, 2}});
  for (bool columnar : {false, true}) {
    Bag rr = columnar ? Columnar(r) : r;
    Bag ss = columnar ? Columnar(s) : s;
    ConsistencyNetwork net = *ConsistencyNetwork::Make(rr, ss);
    EXPECT_EQ(net.NumMiddleEdges(), 0u);
    EXPECT_FALSE(*net.HasSaturatedFlow());
    ExpectSameWitnesses(rr, ss, /*minimal=*/true);
  }
  // Both bags empty: the empty witness.
  Bag empty_r(Schema{{0, 1}});
  Bag empty_s(Schema{{1, 2}});
  ExpectSameWitnesses(empty_r, empty_s, /*minimal=*/true);
}

// Per-edge flows of FlowNetwork vs the reference on one random graph.
void ExpectSameFlows(FlowNetwork* net, ReferenceFlow* ref,
                     const std::vector<size_t>& ids, size_t s, size_t t) {
  Result<uint64_t> value = net->Solve(s, t);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, ref->Solve(s, t));
  for (size_t k = 0; k < ids.size(); ++k) {
    ASSERT_EQ(net->FlowOn(ids[k]), ref->FlowOn(k)) << "edge " << k;
  }
}

void AddRandomEdges(size_t n, size_t count, Rng* rng, FlowNetwork* net,
                    ReferenceFlow* ref, std::vector<size_t>* ids) {
  for (size_t k = 0; k < count; ++k) {
    size_t u = rng->Below(n);
    size_t v = rng->Below(n);
    uint64_t cap = rng->Below(5) == 0 ? FlowNetwork::kUnbounded : rng->Below(20);
    Result<FlowNetwork::EdgeId> id = net->AddEdge(u, v, cap);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, ref->AddEdge(u, v, cap));
    ids->push_back(*id);
  }
}

TEST(WitnessDifferentialTest, CsrIndexFollowsTopologyChanges) {
  Rng rng(1503);
  FlowNetwork net(0);  // one arena across every round
  for (int round = 0; round < 20; ++round) {
    size_t n = 4 + rng.Below(20);
    net.Reset(n);  // reuse after Reset
    ReferenceFlow ref(n);
    std::vector<size_t> ids;
    AddRandomEdges(n, 3 * n, &rng, &net, &ref, &ids);
    ExpectSameFlows(&net, &ref, ids, 0, n - 1);
    // AddEdge after a Solve must rebuild the index.
    AddRandomEdges(n, n, &rng, &net, &ref, &ids);
    ExpectSameFlows(&net, &ref, ids, 0, n - 1);
    // SetCapacity keeps the index; the re-solve sees the new capacities.
    for (size_t k = 0; k < ids.size(); k += 3) {
      uint64_t cap = rng.Below(4);
      ASSERT_TRUE(net.SetCapacity(ids[k], cap).ok());
      ref.SetCapacity(k, cap);
    }
    ExpectSameFlows(&net, &ref, ids, 0, n - 1);
    ExpectSameFlows(&net, &ref, ids, 1, n - 2);  // another source/sink
  }
}

TEST(WitnessDifferentialTest, ArenaReuseAcrossPairsMatches) {
  // One ConsistencyNetwork rebuilt for pairs of growing and shrinking
  // size: stale edges of a larger build must never leak into a smaller.
  Rng rng(1504);
  ConsistencyNetwork net;
  for (int trial = 0; trial < 16; ++trial) {
    BagGenOptions options;
    options.support_size = (trial % 2 == 0) ? 40 : 6;
    options.domain_size = 3;
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    ASSERT_TRUE(net.Assign(r, s).ok());
    ReferenceNetwork ref(r, s);
    ASSERT_EQ(net.NumMiddleEdges(), ref.middle.size());
    ASSERT_TRUE(*net.HasSaturatedFlow());
    ASSERT_TRUE(ref.Saturated());
    EXPECT_EQ(*net.ExtractWitness(), ref.Extract());
  }
}

}  // namespace
}  // namespace bagc
