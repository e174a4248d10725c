// The network N(R, S) of §3: source -> support tuples of R (capacity R(r))
// -> middle edges for each join tuple t in R' ⋈ S' (unbounded capacity) ->
// support tuples of S (capacity S(s)) -> sink. R and S are consistent iff
// N(R, S) admits a saturated flow (Lemma 2, (1) <=> (5)); an integral
// saturated flow *is* a witness bag.
//
// R' ⋈ S' is never materialized: a middle edge is just the flow edge
// between the vertices of the R and S support rows it joins (an index
// pair, 24 bytes with its capacity and flow), and its XY join tuple is
// assembled from the bags' ids only when asked for — MiddleTuple, and
// ExtractWitness for the edges that carry flow.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "bag/bag.h"
#include "flow/network.h"
#include "tuple/tuple.h"
#include "util/result.h"

namespace bagc {

/// \brief N(R, S) plus the bookkeeping to map flows back to witness bags.
class ConsistencyNetwork {
 public:
  /// No cap on |R' ⋈ S'| beyond the flow arena's own index range.
  static constexpr size_t kNoJoinCap = std::numeric_limits<size_t>::max();

  /// An empty network; populate with Assign.
  ConsistencyNetwork() : net_(0) {}

  /// Builds N(R, S). Fails on schema errors or overflowing capacities.
  static Result<ConsistencyNetwork> Make(const Bag& r, const Bag& s);

  /// Rebuilds this object as N(R, S) in place, reusing the flow arena of
  /// any previous build (see FlowNetwork::Reset).
  /// Refuses with ResourceExhausted "join support exceeds cap (N)" before
  /// adding any edge when |R' ⋈ S'| > max_join_support. Keeps a copy of
  /// both bags (a refcount bump) to assemble join tuples from later.
  /// On error the contents are unspecified; Assign again before use.
  Status Assign(const Bag& r, const Bag& s, size_t max_join_support = kNoJoinCap);

  /// Sum of source-side capacities (= ||R||_u); a flow saturates iff its
  /// value equals this and also equals ||S||_u.
  uint64_t SourceCapacity() const { return source_capacity_; }
  uint64_t SinkCapacity() const { return sink_capacity_; }

  size_t NumMiddleEdges() const { return num_middle_; }

  /// The join tuple (over schema XY) of middle edge i, assembled on call.
  Tuple MiddleTuple(size_t i) const;

  /// Runs max-flow; returns true iff a saturated flow exists.
  Result<bool> HasSaturatedFlow();

  /// After a successful HasSaturatedFlow() == true, extracts the witness
  /// bag T(XY) with T(t) = flow on t's middle edge.
  Result<Bag> ExtractWitness() const;

  /// Suppresses middle edge i (capacity 0) / restores it. Used by the
  /// §5.3 minimal-witness loop.
  Status SuppressMiddleEdge(size_t i);
  Status RestoreMiddleEdge(size_t i);

  /// Flow currently on middle edge i.
  uint64_t MiddleFlow(size_t i) const { return net_.FlowOn(first_middle_ + i); }

  const Schema& joined_schema() const { return joined_schema_; }

 private:
  FlowNetwork net_;
  Bag r_;
  Bag s_;
  Schema joined_schema_;
  // For each XY slot: (from R, slot in that bag's schema).
  std::vector<std::pair<bool, size_t>> xy_sources_;
  // Middle edge i is flow edge first_middle_ + i, from vertex 1 + r_row
  // to vertex s_base_ + s_row.
  FlowNetwork::EdgeId first_middle_ = 0;
  size_t num_middle_ = 0;
  size_t s_base_ = 0;
  uint64_t source_capacity_ = 0;
  uint64_t sink_capacity_ = 0;
  size_t source_ = 0;
  size_t sink_ = 0;
};

}  // namespace bagc
