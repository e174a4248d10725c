#include "server/engine_snapshot.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <utility>

#include "bag/bag_io.h"
#include "core/collection.h"

namespace bagc {

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::Build(
    BuildInputs inputs, uint64_t seq) {
  auto snapshot = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snapshot->seq_ = seq;
  snapshot->names_ = std::move(inputs.names);
  for (size_t i = 0; i < snapshot->names_.size(); ++i) {
    snapshot->name_index_.emplace(snapshot->names_[i], i);
  }
  snapshot->catalog_ = std::move(inputs.catalog);
  for (const Bag& b : inputs.bags) snapshot->support_rows_ += b.SupportSize();

  BAGC_ASSIGN_OR_RETURN(BagCollection collection,
                        BagCollection::Make(std::move(inputs.bags)));
  EngineOptions options;
  options.num_threads = inputs.num_threads;
  options.columnar_min_rows = inputs.columnar_min_rows;
  options.dictionaries = inputs.dicts;
  options.canonicalize_dictionaries = inputs.canonicalize;
  SealReuse reuse;
  const SealReuse* reuse_ptr = nullptr;
  if (inputs.previous != nullptr && !inputs.prev_bag.empty()) {
    reuse.previous = inputs.previous->engine();
    reuse.prev_index = std::move(inputs.prev_bag);
    reuse_ptr = &reuse;  // Make() drops it again if canonicalizing
  }
  BAGC_ASSIGN_OR_RETURN(
      ConsistencyEngine engine,
      ConsistencyEngine::Make(std::move(collection), options, reuse_ptr));
  snapshot->engine_.emplace(std::move(engine));
  // The engine seals eagerly (no lazy_seal), so the cache is complete and
  // the const query surface is live; run the sweep once so every session
  // answers PAIRWISE from this verdict.
  BAGC_ASSIGN_OR_RETURN(snapshot->pairwise_, snapshot->engine_->PairwiseAll());
  // The pool has done all it ever will for this generation (eager seal +
  // the sweep above); the snapshot serves the rest of its life through
  // the const surface, so don't park idle worker threads per generation.
  snapshot->engine_->ReleaseWorkers();
  snapshot->dicts_ = snapshot->engine_->shared_dictionaries();
  // Dictionary entries are approximated at a flat per-value cost; the
  // engine's sealed state dominates for any collection worth evicting.
  snapshot->approx_bytes_ = snapshot->engine_->ApproxSealedBytes() +
                            48 * snapshot->dict_values();
  return std::shared_ptr<const EngineSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::BuildDelta(
    const std::shared_ptr<const EngineSnapshot>& previous, size_t bag_index,
    const std::vector<BagDelta>& deltas, uint64_t seq, DeltaOutcome* outcome) {
  DeltaBatch batch(1);
  batch[0].bag_index = bag_index;
  batch[0].deltas = deltas;
  return BuildDeltaBatch(previous, batch, seq, outcome);
}

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::BuildDeltaBatch(
    const std::shared_ptr<const EngineSnapshot>& previous,
    const DeltaBatch& batch, uint64_t seq, DeltaOutcome* outcome) {
  auto snapshot = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snapshot->seq_ = seq;
  snapshot->names_ = previous->names_;
  snapshot->name_index_ = previous->name_index_;
  snapshot->catalog_ = previous->catalog_;
  {
    // MakeDeltaBatch carries the previous engine's memoized global
    // verdict into the new generation; concurrent Global() calls on
    // `previous` write that memo. Same mutex, no torn reads.
    std::lock_guard<std::mutex> lock(previous->global_mu_);
    BAGC_ASSIGN_OR_RETURN(
        ConsistencyEngine engine,
        ConsistencyEngine::MakeDeltaBatch(*previous->engine_, batch, outcome));
    snapshot->engine_.emplace(std::move(engine));
  }
  // Only the delta's dirty pairs actually re-compare here; clean pairs
  // answer from the carried per-pair verdicts.
  BAGC_ASSIGN_OR_RETURN(snapshot->pairwise_, snapshot->engine_->PairwiseAll());
  snapshot->dicts_ = snapshot->engine_->shared_dictionaries();
  for (const Bag& b : snapshot->engine_->collection().bags()) {
    snapshot->support_rows_ += b.SupportSize();
  }
  snapshot->approx_bytes_ = snapshot->engine_->ApproxSealedBytes() +
                            48 * snapshot->dict_values();
  return std::shared_ptr<const EngineSnapshot>(std::move(snapshot));
}

Result<size_t> EngineSnapshot::ResolveBag(const std::string& token) const {
  bool digits = !token.empty();
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) digits = false;
  }
  if (digits) {
    uint64_t index = 0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), index);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      index = std::numeric_limits<uint64_t>::max();  // out of range
    }
    return ResolveIndex(index);
  }
  auto it = name_index_.find(token);
  if (it == name_index_.end()) {
    return Status::NotFound("no sealed bag named '" + token + "'");
  }
  return it->second;
}

Result<size_t> EngineSnapshot::ResolveIndex(uint64_t index) const {
  if (index >= names_.size()) {
    return Status::OutOfRange("bag index " + std::to_string(index) +
                              " out of range (" + std::to_string(names_.size()) +
                              " bags sealed)");
  }
  return static_cast<size_t>(index);
}

Result<bool> EngineSnapshot::TwoBag(size_t i, size_t j) const {
  return engine_->TwoBagSealed(i, j);
}

Result<bool> EngineSnapshot::Global() const {
  std::lock_guard<std::mutex> lock(global_mu_);
  // Global() memoizes on the engine; mutation happens only here, under
  // the mutex, and never touches the sealed marginal cache the lock-free
  // queries read.
  return engine_->Global();
}

Result<bool> EngineSnapshot::KWise(
    size_t k, std::optional<std::vector<size_t>>* failing_subset) const {
  return engine_->KWiseConsistentSealed(k, failing_subset);
}

Result<std::optional<Bag>> EngineSnapshot::Witness(size_t i, size_t j,
                                                   bool minimal) const {
  return engine_->WitnessSealed(i, j, minimal);
}

std::string EngineSnapshot::WriteBagText(const Bag& bag) const {
  return WriteBag(bag, catalog_, dicts_.get());
}

}  // namespace bagc
