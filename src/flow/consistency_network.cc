#include "flow/consistency_network.h"

#include <string>

#include "tuple/tuple_index.h"
#include "util/checked_math.h"

namespace bagc {

Result<ConsistencyNetwork> ConsistencyNetwork::Make(const Bag& r, const Bag& s) {
  ConsistencyNetwork cn;
  BAGC_RETURN_NOT_OK(cn.Assign(r, s));
  return cn;
}

Status ConsistencyNetwork::Assign(const Bag& r, const Bag& s,
                                  size_t max_join_support) {
  BAGC_ASSIGN_OR_RETURN(TupleJoiner joiner, TupleJoiner::Make(r.schema(), s.schema()));
  r_ = r;
  s_ = s;
  joined_schema_ = joiner.joined_schema();
  xy_sources_ = joiner.sources();
  source_capacity_ = 0;
  sink_capacity_ = 0;

  // Vertex numbering: 0 = source, 1..|R'| = R tuples, then S tuples, then
  // sink last. The i-th support row of R is vertex 1 + i, the j-th of S
  // is vertex 1 + |R'| + j.
  size_t nr = r.SupportSize();
  size_t ns = s.SupportSize();
  if (nr + ns > FlowNetwork::kMaxIndex / 2 - 1) {
    return Status::ResourceExhausted("bag supports exceed the flow arena range");
  }
  net_.Reset(2 + nr + ns);
  num_middle_ = 0;
  first_middle_ = nr + ns;  // after the source and sink edges
  source_ = 0;
  s_base_ = 1 + nr;
  sink_ = 1 + nr + ns;

  for (size_t i = 0; i < nr; ++i) {
    uint64_t mult = r.MultiplicityAt(i);
    BAGC_RETURN_NOT_OK(net_.AddEdge(source_, 1 + i, mult).status());
    BAGC_ASSIGN_OR_RETURN(source_capacity_, CheckedAdd(source_capacity_, mult));
  }
  for (size_t j = 0; j < ns; ++j) {
    uint64_t mult = s.MultiplicityAt(j);
    BAGC_RETURN_NOT_OK(net_.AddEdge(1 + nr + j, sink_, mult).status());
    BAGC_ASSIGN_OR_RETURN(sink_capacity_, CheckedAdd(sink_capacity_, mult));
  }
  if (source_capacity_ > FlowNetwork::kUnbounded ||
      sink_capacity_ > FlowNetwork::kUnbounded) {
    return Status::ResourceExhausted("bag cardinalities exceed flow capacity range");
  }

  // Middle edges: one per join tuple of the supports, grouped via a
  // columnar hash join on the shared attributes — gather just the shared
  // columns of both sides, index S's, and resolve every R row in one
  // ProbeAll batch. |R' ⋈ S'| = Σ_g |R_g|·|S_g| is known from the match
  // alone, so the cap is checked before any edge exists.
  BAGC_ASSIGN_OR_RETURN(Projector r_shared,
                        Projector::Make(r.schema(), joiner.shared_schema()));
  BAGC_ASSIGN_OR_RETURN(Projector s_shared,
                        Projector::Make(s.schema(), joiner.shared_schema()));
  ColumnStore r_backing;
  ColumnStore s_backing;
  ColumnView r_view = r.ProjectedView(r_shared, &r_backing);
  ColumnView s_view = s.ProjectedView(s_shared, &s_backing);
  ColumnJoinMatch match(r_view, s_view);
  size_t join_support = 0;
  for (size_t i = 0; i < nr; ++i) {
    uint32_t g = match.MatchOf(i);
    if (g != ColumnJoinMatch::kNoMatch) join_support += match.RightRows(g).size();
  }
  if (join_support > max_join_support) {
    return Status::ResourceExhausted("join support exceeds cap (" +
                                     std::to_string(max_join_support) + ")");
  }
  if (join_support > FlowNetwork::kMaxIndex / 2 - first_middle_) {
    return Status::ResourceExhausted("join support exceeds the flow arena range");
  }
  net_.ReserveEdges(join_support);
  for (size_t i = 0; i < nr; ++i) {
    uint32_t g = match.MatchOf(i);
    if (g == ColumnJoinMatch::kNoMatch) continue;
    for (uint32_t j : match.RightRows(g)) {
      net_.AddEdgeUnchecked(1 + i, s_base_ + j, FlowNetwork::kUnbounded);
    }
  }
  num_middle_ = join_support;
  return Status::OK();
}

Tuple ConsistencyNetwork::MiddleTuple(size_t i) const {
  size_t r_row = net_.TailOf(first_middle_ + i) - 1;
  size_t s_row = net_.HeadOf(first_middle_ + i) - s_base_;
  std::vector<ValueId> ids(xy_sources_.size());
  for (size_t c = 0; c < ids.size(); ++c) {
    auto [from_r, slot] = xy_sources_[c];
    ids[c] = from_r ? r_.IdAt(r_row, slot) : s_.IdAt(s_row, slot);
  }
  return Tuple::OfIds(std::move(ids));
}

Result<bool> ConsistencyNetwork::HasSaturatedFlow() {
  if (source_capacity_ != sink_capacity_) {
    // A saturated flow must move exactly both totals; different totals make
    // saturation impossible (and indeed R[Z] != S[Z] then).
    return false;
  }
  BAGC_ASSIGN_OR_RETURN(uint64_t value, net_.Solve(source_, sink_));
  return value == source_capacity_;
}

Result<Bag> ConsistencyNetwork::ExtractWitness() const {
  BagBuilder builder(joined_schema_);
  for (size_t i = 0; i < NumMiddleEdges(); ++i) {
    uint64_t f = MiddleFlow(i);
    if (f > 0) {
      BAGC_RETURN_NOT_OK(builder.Add(MiddleTuple(i), f));
    }
  }
  return builder.Build();
}

Status ConsistencyNetwork::SuppressMiddleEdge(size_t i) {
  if (i >= NumMiddleEdges()) return Status::InvalidArgument("middle edge out of range");
  return net_.SetCapacity(first_middle_ + i, 0);
}

Status ConsistencyNetwork::RestoreMiddleEdge(size_t i) {
  if (i >= NumMiddleEdges()) return Status::InvalidArgument("middle edge out of range");
  return net_.SetCapacity(first_middle_ + i, FlowNetwork::kUnbounded);
}

}  // namespace bagc
