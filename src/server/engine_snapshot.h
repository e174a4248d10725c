// Shared immutable engine snapshots for the bagcd server. A SEAL builds
// one EngineSnapshot — an eagerly sealed ConsistencyEngine plus the
// catalog/dictionary state needed to decode results back to external
// values — and publishes it in the server's CollectionRegistry (see
// collection_registry.h). Sessions answering queries take shared
// ownership of the current snapshot for the duration of one query, so a
// concurrent RESET or re-SEAL swaps the registry pointer atomically
// while every in-flight query finishes on the snapshot it started with;
// the old engine is destroyed when the last such query releases it.
//
// Thread-safety: every query method on EngineSnapshot is const and safe
// for any number of concurrent callers. TwoBag/Pairwise/KWise/Witness
// ride the engine's const sealed surface (see consistency_engine.h);
// Global() memoizes the possibly-exponential cyclic decision under a
// private mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/consistency_engine.h"
#include "tuple/attribute.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"

namespace bagc {

/// \brief One sealed, immutable serving generation of the bagcd server.
class EngineSnapshot {
 public:
  /// Everything a SEAL carries out of a session. Bags/names are aligned
  /// (names[i] names bags[i]); `dicts` must be a clone private to this
  /// snapshot (the session keeps interning into its own live set).
  struct BuildInputs {
    std::vector<std::string> names;
    std::vector<Bag> bags;
    AttributeCatalog catalog;
    std::shared_ptr<DictionarySet> dicts;
    /// Seal-time worker threads (marginal fills + pairwise sweep).
    size_t num_threads = 1;
    /// Minimum support rows before a sealed bag drops its row vector for
    /// the columnar-only serving form; 0 = engine default
    /// (EngineOptions::columnar_min_rows).
    size_t columnar_min_rows = 0;
    /// Canonicalize the snapshot's dictionary clone at seal
    /// (EngineOptions::canonicalize_dictionaries). The session's live
    /// dictionaries — and hence the ids a client streams — are untouched.
    bool canonicalize = false;
    /// Incremental re-seal: the previous generation whose sealed state
    /// this build may reuse, with prev_bag[i] the previous engine's index
    /// of this build's bag i (SealReuse::kNoPrev = changed/new bag).
    /// Reuse silently degrades to a full seal when canonicalizing (id
    /// remaps invalidate prior rows). The previous generation only needs
    /// to live through Build: reused marginals and column stores are
    /// shared_ptr slots the new engine then co-owns.
    std::shared_ptr<const EngineSnapshot> previous;
    std::vector<size_t> prev_bag;
  };

  /// Seals the engine eagerly, runs the pairwise sweep once, and returns
  /// the snapshot ready for lock-free concurrent queries. `seq` is the
  /// registry-assigned generation number surfaced in STATS.
  static Result<std::shared_ptr<const EngineSnapshot>> Build(BuildInputs inputs,
                                                             uint64_t seq);

  /// Derives the next generation from `previous` by one bag's delta
  /// stream (ConsistencyEngine::MakeDelta): every untouched bag's sealed
  /// state — column stores, marginal slots, cached pair verdicts — is
  /// adopted by refcount bump, the mutated bag's dirty marginal slots are
  /// adjusted in place, and the fresh pairwise sweep re-compares only the
  /// dirty pairs. Catalog, names, and the dictionary clone are shared
  /// with `previous` (the caller must guarantee no value was interned in
  /// between). `outcome`, when non-null, receives the dirty pair set and
  /// changed-slot count. `previous` is untouched: readers mid-query on it
  /// finish bit-identically. Fails without side effects when the delta is
  /// invalid (a DELETE below zero multiplicity is OutOfRange).
  static Result<std::shared_ptr<const EngineSnapshot>> BuildDelta(
      const std::shared_ptr<const EngineSnapshot>& previous, size_t bag_index,
      const std::vector<BagDelta>& deltas, uint64_t seq,
      DeltaOutcome* outcome = nullptr);

  /// BuildDelta generalized to an atomic multi-bag batch
  /// (ConsistencyEngine::MakeDeltaBatch): one published generation
  /// carries every listed bag's deltas, with the same adoption/
  /// invalidation contract per bag, and a failure in any bag builds
  /// nothing. This is the COMMIT verb's builder and the WAL replay
  /// unit — one WAL record becomes one BuildDeltaBatch call.
  static Result<std::shared_ptr<const EngineSnapshot>> BuildDeltaBatch(
      const std::shared_ptr<const EngineSnapshot>& previous,
      const DeltaBatch& batch, uint64_t seq, DeltaOutcome* outcome = nullptr);

  /// Resolves a wire bag reference: a digits-only token is an index,
  /// anything else a LOAD-time bag name.
  Result<size_t> ResolveBag(const std::string& token) const;

  /// Range-checks a bag index (OutOfRange past the sealed bags).
  Result<size_t> ResolveIndex(uint64_t index) const;

  /// Lemma 2(2) for bags i and j, from the sealed marginal cache.
  Result<bool> TwoBag(size_t i, size_t j) const;

  /// The pairwise sweep verdict (computed once at Build).
  const PairwiseVerdict& Pairwise() const { return pairwise_; }

  /// Global consistency; the cyclic-schema decision runs at most once
  /// (memoized under a mutex — concurrent callers block, later ones read).
  Result<bool> Global() const;

  /// K-wise consistency with the first failing subset, from the sealed
  /// cache (paper §4).
  Result<bool> KWise(size_t k,
                     std::optional<std::vector<size_t>>* failing_subset) const;

  /// Two-bag witness (minimal per §5.3 when `minimal`); nullopt when
  /// inconsistent. Each call uses a private flow arena, so concurrent
  /// witness queries never contend.
  Result<std::optional<Bag>> Witness(size_t i, size_t j, bool minimal) const;

  /// Serializes a result bag in the bag IO format, decoding ids through
  /// the snapshot's dictionaries.
  std::string WriteBagText(const Bag& bag) const;

  uint64_t seq() const { return seq_; }
  /// The catalog/dictionaries the snapshot decodes results through —
  /// for encoders (binary witness frames) that mirror WriteBagText.
  const AttributeCatalog& catalog() const { return catalog_; }
  const DictionarySet* dictionaries() const { return dicts_.get(); }
  size_t num_bags() const { return names_.size(); }
  const std::string& bag_name(size_t i) const { return names_[i]; }
  /// Total support rows across the sealed collection.
  size_t support_rows() const { return support_rows_; }
  /// Distinct dictionary values the snapshot can decode.
  size_t dict_values() const { return dicts_ == nullptr ? 0 : dicts_->total_size(); }
  uint64_t marginal_fills() const { return engine_->marginal_fills(); }
  /// Approximate resident bytes of the sealed engine (registry budget /
  /// eviction accounting; stable across identical rebuilds).
  size_t approx_bytes() const { return approx_bytes_; }
  /// The engine's own sealed-state bytes (bags, marginal caches, column
  /// stores) without the dictionary estimate — the STATS `sealed_bytes`
  /// key, the number the columnar-only seal is meant to shrink.
  size_t sealed_bytes() const { return engine_->ApproxSealedBytes(); }
  /// The sealed engine — the reuse source for an incremental re-seal.
  const ConsistencyEngine* engine() const { return &*engine_; }

 private:
  EngineSnapshot() = default;

  uint64_t seq_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, size_t> name_index_;
  AttributeCatalog catalog_;
  std::shared_ptr<const DictionarySet> dicts_;
  size_t support_rows_ = 0;
  size_t approx_bytes_ = 0;
  PairwiseVerdict pairwise_;
  // Mutated only by Global() under global_mu_ (memoization); everything
  // else uses the engine's const sealed surface.
  mutable std::optional<ConsistencyEngine> engine_;
  mutable std::mutex global_mu_;
};

}  // namespace bagc
