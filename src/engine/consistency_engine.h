// ConsistencyEngine: the batch consistency API. Pairwise and global bag
// consistency (Atserias–Kolaitis, PODS 2021) are pure functions of a fixed
// bag collection, so a server-style workload — one collection, many
// queries — can seal the collection once and amortize all per-query
// index construction:
//
//   - at seal time the engine computes, for every pair of bags, the
//     marginals on their shared attributes (deduplicated per bag and
//     keyed by attribute set) together with a TupleIndex probe per cached
//     marginal, optionally sharded across a work-stealing thread pool;
//   - TwoBag(i, j) then answers from the cached marginals (Lemma 2(2))
//     without recomputing anything;
//   - PairwiseAll() shards the O(m²) independent pair comparisons across
//     the pool with an atomic early-exit, and deterministically reports
//     the lexicographically first inconsistent pair;
//   - Global() dispatches on schema acyclicity (Theorem 2) and memoizes;
//   - witness queries reuse one TwoBagSolver flow arena across solves.
//
// The single-shot entry points in core/{pairwise,global}.cc are thin
// wrappers that build a throwaway engine per call.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/global.h"
#include "engine/two_bag_solver.h"
#include "tuple/column_store.h"
#include "tuple/tuple_index.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace bagc {

/// Tuning for a ConsistencyEngine.
struct EngineOptions {
  /// Worker threads for sealing and the pairwise sweep; 1 runs inline
  /// (no pool is created).
  size_t num_threads = 1;
  /// Defer marginal computation from seal time to first use. This is the
  /// single-shot wrappers' mode: the sequential sweep then recovers the
  /// historical early exit (an inconsistency at the first pair costs two
  /// marginals, not a full seal). Only honored when num_threads == 1 —
  /// parallel engines always seal eagerly so queries stay race-free.
  bool lazy_seal = false;
  /// Tuning for the exact (cyclic-schema) global path.
  GlobalSolveOptions global;
  /// The dictionary set the collection's rows were interned through, when
  /// it was sealed from external (string) values. One set is shared by
  /// the whole collection, so shared-attribute ids are comparable across
  /// bags and no query ever re-interns or touches an external value. The
  /// engine only holds it (for decoding results and for callers sharing
  /// it onward); row algebra is dictionary-oblivious — except under
  /// canonicalize_dictionaries, which rewrites the set at seal time.
  std::shared_ptr<DictionarySet> dictionaries;
  /// Canonicalize `dictionaries` at seal time (ValueDictionary::
  /// Canonicalize per attribute) and rewrite the engine's owned copy of
  /// the collection through the remaps, so id order == external sorted
  /// order: ordered entry scans then decode to lexicographically sorted
  /// external rows, enabling range queries over external values. Requires
  /// Make (an owned collection), a non-null dictionary set, and a fully
  /// dictionary-sealed collection (numeric-codec rows have no external
  /// order to canonicalize to and are rejected); the set is mutated, so
  /// it must not encode rows for bags outside this collection.
  bool canonicalize_dictionaries = false;
  /// Row-count crossover for sealed marginal builds (cache fills) — bags
  /// at or above it fill columnar, below it per-row; verdicts are
  /// identical on every setting (pinned by the columnar differential
  /// leg). Also gates the owned-seal conversion to columnar-only storage
  /// (the flat row vector is dropped; RowAt reconstructs rows on cold
  /// paths). 0 means the library default, kColumnarMinRows; 1 sends every
  /// non-empty bag columnar and SIZE_MAX keeps every row-form bag on the
  /// row path. bagcd exposes it as --columnar-min-rows.
  size_t columnar_min_rows = 0;
};

/// Outcome of a pairwise sweep.
struct PairwiseVerdict {
  bool consistent = true;
  /// Valid iff !consistent: the lexicographically first pair (i, j), i < j,
  /// whose shared marginals disagree. Deterministic for every thread count.
  std::pair<size_t, size_t> witness_pair{0, 0};
};

class ConsistencyEngine;

/// Incremental-seal input: reuse the sealed state of a previous engine
/// generation for the bags that did not change. The cached marginals and
/// per-bag column stores are immutable and shared by pointer, so a re-seal
/// that touched k of m bags fills only the O(k·m) slots involving a
/// changed bag instead of all O(m²).
///
/// Correctness preconditions (the caller's responsibility — the engine
/// can only check the structural ones):
///   - `previous` is fully sealed and outlives the Make call (the shared
///     state itself survives it via shared_ptr);
///   - neither generation canonicalized its dictionaries, and both were
///     sealed through the same dictionary lineage (append-only growth is
///     fine; any id remap invalidates every cached row). Make ignores the
///     reuse hint when the new seal canonicalizes.
struct SealReuse {
  /// Sentinel for "this bag is new or changed; fill it from scratch".
  static constexpr size_t kNoPrev = static_cast<size_t>(-1);
  const ConsistencyEngine* previous = nullptr;
  /// prev_index[i] = this bag's index in `previous`'s collection when its
  /// rows are bit-identical there, else kNoPrev. Shorter-than-m vectors
  /// treat missing entries as kNoPrev.
  std::vector<size_t> prev_index;
};

/// One row-level mutation of one bag: `delta` > 0 inserts copies of the
/// row, `delta` < 0 deletes them. A stream of these is a *delta*: the
/// incremental-maintenance unit of ConsistencyEngine::ApplyDelta and the
/// server's INSERT/DELETE verbs. Rows carry the same interned ids as the
/// bag they mutate (dictionary or codec ids).
struct BagDelta {
  Tuple row;
  int64_t delta = 0;
};

/// One bag's share of an atomic multi-bag commit.
struct BagDeltas {
  size_t bag_index = 0;
  std::vector<BagDelta> deltas;
};

/// An atomic delta generation: every listed bag's deltas publish
/// together or not at all (ApplyDeltaBatch / MakeDeltaBatch). Listing
/// the same bag twice is allowed — its deltas net as one stream.
using DeltaBatch = std::vector<BagDeltas>;

/// What a delta actually touched: the pairs whose shared-attribute
/// marginals changed (their cached verdicts were invalidated; everything
/// else kept its verdict) and the number of cached marginal slots that
/// were adjusted. A delta whose row changes cancel out under a projection
/// leaves that projection's slot — and its pairs — clean.
struct DeltaOutcome {
  /// Dirty pairs (i, j), i < j, in lexicographic order. Every pair
  /// involves a mutated bag (dirty-pair minimality).
  std::vector<std::pair<size_t, size_t>> dirty_pairs;
  /// Cached marginal slots of the mutated bags that were adjusted in
  /// place. Each adjustment counts as one marginal fill.
  size_t changed_slots = 0;
};

/// \brief Sealed bag collection plus cached per-query state.
///
/// Pool tasks only ever write disjoint cache slots, and PairwiseAll/Global
/// memoize their verdicts. Queries are not thread-safe against each other
/// (they fill caches on demand); the parallelism lives inside the engine's
/// own pool. Movable, not copyable (owns the pool).
class ConsistencyEngine {
 public:
  /// Seals an owned copy of `collection`: allocates the cache of pairwise
  /// shared-attribute marginals and (unless lazy_seal) computes them, in
  /// parallel when options.num_threads > 1. A non-null `reuse` seeds
  /// unchanged bags' slots from a previous generation (see SealReuse).
  static Result<ConsistencyEngine> Make(BagCollection collection,
                                        EngineOptions options = {},
                                        const SealReuse* reuse = nullptr);

  /// As Make, but borrows `collection` instead of copying it; the caller
  /// must keep it alive for the engine's lifetime. This is the zero-copy
  /// path for the single-shot wrappers in core/.
  static Result<ConsistencyEngine> MakeView(const BagCollection& collection,
                                            EngineOptions options = {});

  /// Builds the next generation of `previous` with `deltas` applied to
  /// bag `bag_index`: every untouched bag adopts the previous
  /// generation's column store and cached marginals (shared pointers, no
  /// fills), the mutated bag's slots are adjusted in place from the
  /// projected deltas (each adjusted slot counts as one marginal fill on
  /// the NEW engine — marginal_fills() starts at zero and lands on
  /// exactly the dirty slot count), and clean pairs carry their cached
  /// verdicts forward. `previous` must be fully sealed, must not have
  /// canonicalized its dictionaries (the delta's ids would not be
  /// comparable), and must outlive this call; the shared sealed state
  /// survives it. DELETE below zero multiplicity fails with OutOfRange
  /// and builds nothing. The new engine runs inline (no worker pool):
  /// a delta generation's residual work is O(dirty pairs), not O(m²).
  static Result<ConsistencyEngine> MakeDelta(const ConsistencyEngine& previous,
                                             size_t bag_index,
                                             const std::vector<BagDelta>& deltas,
                                             DeltaOutcome* outcome = nullptr);

  /// MakeDelta generalized to an atomic multi-bag batch: one published
  /// generation carries every listed bag's deltas, with the same
  /// contract per bag (in-place slot adjustment, minimal dirty-pair
  /// invalidation — a pair is dirty when EITHER side's shared marginal
  /// changed — marginal_fills() landing on exactly the batch's dirty
  /// slot count). All-or-nothing across bags: validation of every bag's
  /// deltas happens before any mutation, so a failed batch (for example
  /// a DELETE below zero in the last bag) builds nothing. MakeDelta is
  /// the single-entry special case.
  static Result<ConsistencyEngine> MakeDeltaBatch(
      const ConsistencyEngine& previous, const DeltaBatch& batch,
      DeltaOutcome* outcome = nullptr);

  ConsistencyEngine(ConsistencyEngine&&) = default;
  ConsistencyEngine& operator=(ConsistencyEngine&&) = default;
  ConsistencyEngine(const ConsistencyEngine&) = delete;
  ConsistencyEngine& operator=(const ConsistencyEngine&) = delete;

  const BagCollection& collection() const { return *collection_; }
  /// Number of sweep workers (1 when running inline).
  size_t num_threads() const { return pool_ ? pool_->num_threads() : 1; }

  /// Joins and destroys the worker pool. For owners that used threads
  /// only for the eager seal + first sweep and will serve the rest of
  /// the engine's life through the const sealed surface (the server's
  /// snapshots): a long-lived generation should not park N idle worker
  /// threads. Subsequent parallel-capable calls (a first PairwiseAll,
  /// SolveGlobalAcyclic) simply run sequentially. No-op without a pool.
  void ReleaseWorkers() { pool_.reset(); }

  /// The shared dictionary set the collection was interned through, or
  /// nullptr for numerically built collections.
  const DictionarySet* dictionaries() const { return options_.dictionaries.get(); }
  /// The same, shareable (e.g. to hand to a sub-engine or writer).
  std::shared_ptr<const DictionarySet> shared_dictionaries() const {
    return options_.dictionaries;
  }

  /// Number of marginal computations performed so far (cache fills; a
  /// slot is only ever filled once). Lets callers and regression tests
  /// assert that repeated queries — including the k-wise sweep — do no
  /// re-computation.
  uint64_t marginal_fills() const {
    return marginal_fills_->load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes of the sealed state: collection rows,
  /// cached marginals, and columnar transposes (dictionaries excluded —
  /// the owner accounts those). An upper bound under incremental reuse:
  /// shared slots are counted in every generation holding them, which is
  /// the conservative direction for an eviction budget.
  size_t ApproxSealedBytes() const;

  /// True iff this engine was sealed eagerly (every marginal slot
  /// computed at Make) — the precondition of the *Sealed const query
  /// surface below. Deliberately NOT updated by lazy on-demand fills: a
  /// lazily sealed engine reports false even once all slots happen to be
  /// filled, because its fills mutate and were never meant to be shared.
  bool fully_sealed() const { return fully_sealed_; }

  /// Applies a delta stream to bag `bag_index` in place: per-row net
  /// changes mutate the owned bag (copy-on-write), and each cached
  /// marginal R[Z] of the bag is *adjusted* — the projected net of the
  /// delta rows is added onto a copy of the cached marginal (a known
  /// row's insert is a multiplicity bump, a new row appends, a delete to
  /// zero removes the row) — instead of being recomputed from all rows.
  /// Each adjusted slot counts as one marginal fill. Verdict invalidation
  /// is minimal: only pairs whose shared-attribute marginal actually
  /// changed are returned dirty and lose their cached verdicts; clean
  /// pairs (including every pair not involving the bag) keep theirs. The
  /// memoized global verdict is dropped on any effective change (the
  /// cyclic-schema solver reads full bags, not just shared marginals).
  ///
  /// All-or-nothing: validation (arity, DELETE below zero multiplicity →
  /// OutOfRange, multiplicity overflow) happens before any mutation, so a
  /// failed delta leaves the engine bit-identical. Requires an owned
  /// collection (Make, not MakeView). Deltas whose nets cancel to zero
  /// are a no-op returning an empty outcome. Not thread-safe against
  /// concurrent queries (same contract as the other non-const entry
  /// points).
  Result<DeltaOutcome> ApplyDelta(size_t bag_index,
                                  const std::vector<BagDelta>& deltas);

  /// ApplyDelta generalized to an atomic multi-bag batch (the in-place
  /// twin of MakeDeltaBatch): per-bag nets are staged — COW bag
  /// mutation, projected slot adjustments — for EVERY bag before any
  /// engine state changes, then committed in one step. A validation
  /// failure in any bag (arity, DELETE below zero, overflow) leaves the
  /// engine bit-identical with no bag touched. ApplyDelta forwards here
  /// with a single-entry batch.
  Result<DeltaOutcome> ApplyDeltaBatch(const DeltaBatch& batch);

  /// Lemma 2(2) on bags i and j, answered from the cached marginals
  /// (filling them on first use under lazy_seal).
  Result<bool> TwoBag(size_t i, size_t j);

  // ---- Const (shared-snapshot) query surface -------------------------------
  //
  // After an eager seal the cache is immutable, so these answer without
  // touching any engine state and are safe for any number of concurrent
  // callers on one engine — the substrate of the bagcd server's shared
  // engine snapshots (src/server/engine_snapshot.h). They fail with
  // FailedPrecondition on a lazily sealed engine whose slots are not all
  // filled yet; use the non-const entry points there instead.

  /// TwoBag without cache fills: compares the two already-filled cached
  /// marginals. Thread-safe on a fully sealed engine.
  Result<bool> TwoBagSealed(size_t i, size_t j) const;

  /// KWiseConsistent without cache fills: the same lexicographic subset
  /// sweep, with every pairwise precheck answered by TwoBagSealed and
  /// cyclic subsets paying a local LP (no shared state is written).
  /// Thread-safe on a fully sealed engine.
  Result<bool> KWiseConsistentSealed(
      size_t k,
      std::optional<std::vector<size_t>>* failing_subset = nullptr) const;

  /// Witness without the engine's shared flow arena: the Lemma 2(2)
  /// pre-check reads the sealed cache and the construction runs in a
  /// local TwoBagSolver, so concurrent witness queries never contend.
  /// Same deterministic witness as Witness(), and the same join cap.
  /// Thread-safe on a fully sealed engine.
  Result<std::optional<Bag>> WitnessSealed(size_t i, size_t j,
                                           bool minimal = false) const;

  /// The memoized pairwise verdict, if PairwiseAll() has run. Reading it
  /// is safe concurrently with the const surface above (snapshot builders
  /// call PairwiseAll() once before publishing the engine).
  const std::optional<PairwiseVerdict>& cached_pairwise_verdict() const {
    return pairwise_verdict_;
  }

  /// The memoized global verdict, if Global() has run.
  const std::optional<bool>& cached_global_verdict() const {
    return global_verdict_;
  }

  /// Sweeps all pairs (sharded across the pool when one exists) with
  /// early exit on the first inconsistent pair; memoized. All in-flight
  /// pool tasks are drained before this returns.
  Result<PairwiseVerdict> PairwiseAll();

  /// Global consistency: acyclic schemas reduce to PairwiseAll()
  /// (Theorem 2); cyclic schemas run the exact solver. Memoized.
  Result<bool> Global();

  /// K-wise consistency (paper §4): every size-min(k, m) subcollection is
  /// globally consistent. Subsets are enumerated lexicographically and the
  /// first failing one is reported. Unlike the historical implementation —
  /// which sealed a throwaway engine per subset, re-deriving every shared
  /// marginal from scratch — this reuses the parent engine's sealed state:
  /// the per-pair cached marginals answer each subset's pairwise precheck
  /// (filling each pair at most once across ALL subsets), acyclic subsets
  /// are then decided outright by Theorem 2, and only cyclic subsets pay
  /// an exact feasibility search (with no second pairwise pass). No bag is
  /// copied for acyclic subsets and nothing is ever re-interned.
  Result<bool> KWiseConsistent(size_t k,
                               std::optional<std::vector<size_t>>* failing_subset =
                                   nullptr);

  /// Witness of consistency for bags i and j (minimal per §5.3 when
  /// `minimal`); nullopt when inconsistent. Reuses the engine's flow arena.
  /// Refuses with ResourceExhausted "join support exceeds cap (N)" when
  /// |R'i ⋈ R'j| > options.global.max_join_support, before building N(R, S).
  Result<std::optional<Bag>> Witness(size_t i, size_t j, bool minimal = false);

  /// Theorem 6 witness construction for acyclic schemas, folding minimal
  /// two-bag witnesses through the engine's reusable flow arena.
  Result<std::optional<Bag>> SolveGlobalAcyclic(
      const AcyclicSolveOptions& options = {});

  /// Exact decision for arbitrary schemas via integer feasibility of
  /// P(R1..Rm), with the pairwise sweep as a prefilter.
  Result<std::optional<Bag>> SolveGlobalExact();

  /// Cached marginal of bag i onto z, or nullptr when (i, z) is not a
  /// sealed projection or (under lazy_seal) has not been computed yet.
  const Bag* CachedMarginal(size_t i, const Schema& z) const;

  /// Ri[z](t) via a TupleIndex probe over the cached marginal (built on
  /// first probe of that projection); errors when (i, z) is not a sealed
  /// projection. 0 when t is not in the marginal's support.
  Result<uint64_t> ProbeMarginal(size_t i, const Schema& z, const Tuple& t);

 private:
  // One sealed projection of one bag: Z, Ri[Z] (filled eagerly or on first
  // use), and a hash probe from marginal tuple to its entry index (built
  // on first ProbeMarginal). The marginal is held by shared_ptr so an
  // incremental re-seal shares unchanged bags' slots with the previous
  // generation — whichever engine dies first, the bag survives.
  struct CachedProjection {
    Schema schema;
    std::shared_ptr<const Bag> marginal;
    bool filled = false;
    TupleIndex probe;
    bool probe_built = false;
  };
  // One pairwise comparison, with the two cache slots pre-resolved. The
  // pointers target heap storage owned by cache_, which is stable after
  // Seal() (and across moves of the engine).
  struct PairTask {
    size_t i, j;
    CachedProjection* left;
    CachedProjection* right;
  };

  ConsistencyEngine() = default;

  static Result<ConsistencyEngine> MakeImpl(const BagCollection* view,
                                            std::shared_ptr<const BagCollection> owned,
                                            EngineOptions options,
                                            const SealReuse* reuse);
  // Builds cache_ and pairs_; computes the marginals (sharded over the
  // pool) unless sealing lazily. A non-null `reuse` pre-fills unchanged
  // bags' slots and column stores from the previous generation.
  Status Seal(const SealReuse* reuse);
  Status EnsureFilled(CachedProjection* slot, size_t bag_index);
  // True when bag i's cache fills should group columnar: the bag is
  // columnar-sealed or at least ColumnarMinRows() rows.
  bool UseColumnar(size_t bag_index) const;
  // The effective crossover (options_.columnar_min_rows, or the library
  // default when unset).
  size_t ColumnarMinRows() const;
  // Bag i's ColumnStore, built on first use. NOT thread-safe: parallel
  // seals pre-build every store (one pool task per bag) before the slot
  // fills fan out, so fills only ever read it.
  const ColumnStore& EnsureColumns(size_t bag_index);
  CachedProjection* FindProjection(size_t i, const Schema& z);
  const CachedProjection* FindProjection(size_t i, const Schema& z) const;
  Result<PairwiseVerdict> SweepSequential();
  PairwiseVerdict SweepParallel();
  // The cache slots of pair (i, j); normalizes i > j. Errors on an
  // out-of-range index; returns nullptr (OK case) for i == j.
  Result<const PairTask*> PairAt(size_t i, size_t j) const;
  // The k-wise subset sweep shared by KWiseConsistent and
  // KWiseConsistentSealed; `pair_query(a, b)` answers one Lemma 2(2)
  // precheck. Defined in the .cc (both instantiations live there).
  template <typename PairFn>
  Result<bool> KWiseSweep(size_t k,
                          std::optional<std::vector<size_t>>* failing_subset,
                          PairFn&& pair_query) const;

  const BagCollection* collection_ = nullptr;  // owned_ or a borrowed view
  std::shared_ptr<const BagCollection> owned_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  std::vector<std::vector<CachedProjection>> cache_;  // per bag, schema-sorted
  // Per-bag SoA transpose shared by all of that bag's sealed projections
  // (zero-copy column Select per schema); null until first columnar fill.
  // shared_ptr for the same reason as CachedProjection::marginal.
  std::vector<std::shared_ptr<const ColumnStore>> bag_columns_;
  std::vector<PairTask> pairs_;  // all (i, j), i < j, lexicographic
  // Per-pair verdict cache aligned with pairs_: 0 unknown, 1 consistent,
  // 2 inconsistent. Written by the sweeps (parallel chunks write disjoint
  // indices) and by TwoBag; ApplyDelta resets exactly the dirty entries,
  // so a post-delta sweep re-compares only pairs whose shared marginals
  // changed. TwoBagSealed reads it but never writes (const surface).
  std::vector<int8_t> pair_state_;
  bool fully_sealed_ = false;    // every cache slot filled (see fully_sealed())
  std::optional<PairwiseVerdict> pairwise_verdict_;
  std::optional<bool> global_verdict_;
  TwoBagSolver witness_solver_;
  // Counts actual cache fills (see marginal_fills()). Heap storage keeps
  // the engine movable while pool tasks increment it concurrently during
  // eager sealing.
  std::unique_ptr<std::atomic<uint64_t>> marginal_fills_ =
      std::make_unique<std::atomic<uint64_t>>(0);
};

}  // namespace bagc
