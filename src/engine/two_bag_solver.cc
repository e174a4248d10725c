#include "engine/two_bag_solver.h"

namespace bagc {

Result<bool> TwoBagSolver::AreConsistent(const Bag& r, const Bag& s) {
  Schema z = Schema::Intersect(r.schema(), s.schema());
  BAGC_ASSIGN_OR_RETURN(Bag rz, r.Marginal(z));
  BAGC_ASSIGN_OR_RETURN(Bag sz, s.Marginal(z));
  return rz == sz;
}

Result<std::optional<Bag>> TwoBagSolver::FindWitness(const Bag& r, const Bag& s) {
  // Cheap pre-check (Lemma 2(2)) before building the network.
  BAGC_ASSIGN_OR_RETURN(bool consistent, AreConsistent(r, s));
  if (!consistent) return std::optional<Bag>();
  BAGC_ASSIGN_OR_RETURN(Bag witness,
                        FindWitnessKnownConsistent(r, s, /*minimal=*/false));
  return std::optional<Bag>(std::move(witness));
}

Result<std::optional<Bag>> TwoBagSolver::FindMinimalWitness(const Bag& r,
                                                            const Bag& s) {
  BAGC_ASSIGN_OR_RETURN(bool consistent, AreConsistent(r, s));
  if (!consistent) return std::optional<Bag>();
  BAGC_ASSIGN_OR_RETURN(Bag witness,
                        FindWitnessKnownConsistent(r, s, /*minimal=*/true));
  return std::optional<Bag>(std::move(witness));
}

Result<Bag> TwoBagSolver::FindWitnessKnownConsistent(const Bag& r, const Bag& s,
                                                     bool minimal,
                                                     size_t max_join_support) {
  BAGC_RETURN_NOT_OK(arena_.Assign(r, s, max_join_support));
  BAGC_ASSIGN_OR_RETURN(bool saturated, arena_.HasSaturatedFlow());
  if (!saturated) {
    // Lemma 2 (2) => (5): cannot happen when the marginals agree.
    return Status::Internal("marginals agree but N(R,S) has no saturated flow");
  }
  if (minimal) {
    // §5.3 self-reducibility: for each middle edge, ask whether some
    // saturated flow avoids it; if so, delete it permanently. Every
    // re-solve runs inside the same arena.
    for (size_t i = 0; i < arena_.NumMiddleEdges(); ++i) {
      BAGC_RETURN_NOT_OK(arena_.SuppressMiddleEdge(i));
      BAGC_ASSIGN_OR_RETURN(bool still, arena_.HasSaturatedFlow());
      if (!still) {
        BAGC_RETURN_NOT_OK(arena_.RestoreMiddleEdge(i));
      }
    }
    // Re-solve on the surviving edges and extract.
    BAGC_ASSIGN_OR_RETURN(bool final_ok, arena_.HasSaturatedFlow());
    if (!final_ok) {
      return Status::Internal("minimal-witness pruning lost saturation");
    }
  }
  return arena_.ExtractWitness();
}

}  // namespace bagc
