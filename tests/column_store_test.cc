// Regression suite for the SoA refactor: ColumnStore/ColumnView round
// trips, the batch row hash against Tuple::Hash, ColumnIndex grouping +
// batch probes against the TupleIndex reference, and row-path vs
// columnar-path marginal equivalence on both sides of the dense/hashed
// group-by gate (including Tup(∅), empty projections, side-table ids, and
// multiplicity-overflow rejection).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "bag/bag.h"
#include "bag/krelation.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "tuple/column_store.h"
#include "tuple/tuple_index.h"
#include "util/hash.h"
#include "util/random.h"

namespace bagc {
namespace {

Bag RandomBag(const Schema& schema, size_t support, uint64_t domain,
              uint64_t seed) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = support;
  options.domain_size = domain;
  options.max_multiplicity = 1u << 10;
  return *MakeRandomBag(schema, options, &rng);
}

TEST(ColumnStoreTest, RowColumnRoundTrip) {
  Schema x{{0, 1, 2}};
  Bag bag = RandomBag(x, 100, 7, 42);
  ColumnStore cols = bag.ToColumns();
  ASSERT_EQ(cols.num_rows(), bag.SupportSize());
  ASSERT_EQ(cols.arity(), x.arity());
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    const Tuple& t = bag.entries()[r].first;
    EXPECT_EQ(cols.RowAt(r), t);
    for (size_t c = 0; c < x.arity(); ++c) {
      EXPECT_EQ(cols.column(c)[r], t.id(c));
    }
  }
  // Views see the same cells, and batch hashes equal per-row Tuple hashes.
  ColumnView view = cols.View();
  std::vector<uint64_t> hashes;
  view.HashRows(&hashes);
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    EXPECT_EQ(view.RowAt(r), bag.entries()[r].first);
    EXPECT_EQ(hashes[r], bag.entries()[r].first.Hash());
  }
}

TEST(ColumnStoreTest, SelectIsTheProjection) {
  Schema x{{0, 1, 2, 3}};
  Schema z{{1, 3}};
  Bag bag = RandomBag(x, 80, 5, 7);
  ColumnStore cols = bag.ToColumns();
  Projector proj = *Projector::Make(x, z);
  ColumnView selected = cols.View().Select(proj);
  ASSERT_EQ(selected.arity(), z.arity());
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    EXPECT_EQ(selected.RowAt(r), bag.entries()[r].first.Project(proj));
  }
}

// ColumnIndex over `keys` groups and answers `probes` exactly like a
// TupleIndex over the same rows: same group order, keys and posting
// lists, same hit or miss per probe row. Returns the number of hits.
size_t ExpectColumnIndexMatchesTupleIndex(const ColumnStore& keys,
                                          const ColumnStore& probes) {
  TupleIndex reference(keys.num_rows());
  for (size_t r = 0; r < keys.num_rows(); ++r) {
    reference.Insert(keys.RowAt(r), static_cast<uint32_t>(r));
  }
  ColumnIndex index(keys.View());
  EXPECT_EQ(index.NumGroups(), reference.NumGroups());
  for (size_t g = 0; g < std::min(index.NumGroups(), reference.NumGroups()); ++g) {
    EXPECT_EQ(index.keys().RowAt(index.LeadRow(g)), reference.GroupKey(g));
    EXPECT_EQ(index.GroupRows(g), reference.GroupIds(g));
  }
  std::vector<uint32_t> match;
  index.ProbeAll(probes.View(), &match);
  EXPECT_EQ(match.size(), probes.num_rows());
  size_t hits = 0;
  for (size_t r = 0; r < std::min(match.size(), probes.num_rows()); ++r) {
    const std::vector<uint32_t>* expected = reference.Find(probes.RowAt(r));
    if (expected == nullptr) {
      EXPECT_EQ(match[r], ColumnIndex::kNoGroup);
    } else if (match[r] == ColumnIndex::kNoGroup) {
      ADD_FAILURE() << "probe row " << r << " missed a present key";
    } else {
      EXPECT_EQ(index.GroupRows(match[r]), *expected);
      ++hits;
    }
  }
  return hits;
}

TEST(ColumnStoreTest, ColumnIndexMatchesTupleIndex) {
  Schema x{{0, 1, 2}};
  Schema z{{0, 2}};
  Bag keys = RandomBag(x, 200, 4, 11);
  Bag probes = RandomBag(x, 150, 5, 13);
  Projector proj = *Projector::Make(x, z);
  ExpectColumnIndexMatchesTupleIndex(
      ColumnStore::FromEntries(keys.entries(), proj),
      ColumnStore::FromEntries(probes.entries(), proj));
}

ColumnStore RandomStore(Rng* rng, size_t rows, size_t arity, uint32_t limit) {
  std::vector<ValueId> data(rows * arity);
  for (ValueId& v : data) v = static_cast<ValueId>(rng->Next() % (limit + 1ull));
  return ColumnStore::FromColumnMajor(std::move(data), rows, arity);
}

TEST(ColumnStoreTest, HashRowsIsTupleHash) {
  // Empty, every size up to one past a block of 8, and a bulk run; random
  // ids plus all-equal columns of 0, 1 and UINT32_MAX (where a 32/64-bit
  // truncation would still look plausible).
  Rng rng(0x51D0001);
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
  for (size_t arity : {1u, 2u, 3u, 4u}) {
    for (size_t n : sizes) {
      std::vector<ColumnStore> stores;
      stores.push_back(RandomStore(&rng, n, arity, 1u << 20));
      stores.push_back(RandomStore(&rng, n, arity,
                                   std::numeric_limits<uint32_t>::max()));
      for (uint32_t value : {0u, 1u, std::numeric_limits<uint32_t>::max()}) {
        stores.push_back(ColumnStore::FromColumnMajor(
            std::vector<ValueId>(n * arity, value), n, arity));
      }
      for (const ColumnStore& store : stores) {
        std::vector<uint64_t> hashes(3, 0xDEAD);  // stale contents
        store.View().HashRows(&hashes);
        ASSERT_EQ(hashes.size(), n);
        for (size_t r = 0; r < n; ++r) {
          uint64_t expected = HashSeed(arity);
          for (size_t c = 0; c < arity; ++c) {
            HashCombine(&expected, store.column(c)[r]);
          }
          ASSERT_EQ(hashes[r], expected) << "arity " << arity << " row " << r;
          ASSERT_EQ(hashes[r], store.RowAt(r).Hash());
        }
      }
    }
  }
}

TEST(ColumnStoreTest, ColumnIndexMatchesTupleIndexUnderCollisions) {
  // A small id domain forces dense groups and hash-slot collisions;
  // probes mix present and absent rows, and an empty probe view and a
  // default-constructed index answer nothing.
  Rng rng(0x51D0006);
  ColumnStore keys = RandomStore(&rng, 500, 2, 12);
  ColumnStore probes = RandomStore(&rng, 700, 2, 16);
  size_t hits = ExpectColumnIndexMatchesTupleIndex(keys, probes);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, probes.num_rows());

  std::vector<uint32_t> match;
  ColumnIndex index(keys.View());
  index.ProbeAll(ColumnStore::FromColumnMajor({}, 0, 2).View(), &match);
  EXPECT_TRUE(match.empty());
  ColumnIndex empty;
  empty.ProbeAll(probes.View(), &match);
  EXPECT_EQ(match, std::vector<uint32_t>(probes.num_rows(), ColumnIndex::kNoGroup));
}

// True when GroupColumns takes the dense (radix) path on `view`: arity
// 1 or 2, every id direct-range, and a packed key range of at most
// max(4096, 4n). Mirrors the gate so each case below can assert which
// side it exercises.
bool DenseGroupBy(const ColumnView& view) {
  size_t n = view.num_rows();
  if (n == 0 || view.arity() < 1 || view.arity() > 2) return false;
  uint64_t table = 1;
  for (size_t c = 0; c < view.arity(); ++c) {
    ValueId max = *std::max_element(view.column(c), view.column(c) + n);
    if (max >= kDirectValueLimit) return false;
    table *= static_cast<uint64_t>(max) + 1;
  }
  return table <= std::max<uint64_t>(4096, 4 * static_cast<uint64_t>(n));
}

// A row-form bag over `x` whose rows come from `store` (duplicates merge).
Bag BagFromStore(const Schema& x, const ColumnStore& store, Rng* rng) {
  BagBuilder builder(x);
  for (size_t r = 0; r < store.num_rows(); ++r) {
    EXPECT_TRUE(builder.Add(store.RowAt(r), 1 + rng->Next() % 1000).ok());
  }
  return *builder.Build();
}

TEST(ColumnStoreTest, GroupColumnsMatchesMarginalRowsOnBothSidesOfTheGate) {
  Rng rng(0x51D0007);
  const uint32_t kMax = std::numeric_limits<uint32_t>::max();
  // A bag over X = {0,1,2,3} with n rows; z selects the first `arity`
  // attributes; limit bounds the ids; dense = the expected gate side.
  struct Case {
    const char* name;
    size_t arity;
    size_t rows;
    uint32_t limit;
    bool dense;
  };
  const Case cases[] = {
      {"arity1-dense", 1, 400, 9, true},
      {"arity1-sparse", 1, 400, 1u << 24, false},
      {"arity2-dense", 2, 600, 15, true},
      {"arity2-sparse", 2, 600, 1u << 20, false},
      {"arity2-single-group", 2, 64, 0, true},
      {"arity3", 3, 600, 3, false},
      {"arity1-side-table-ids", 1, 300, kMax, false},
      {"arity2-side-table-ids", 2, 300, kMax, false},
  };
  Schema x{{0, 1, 2, 3}};
  for (const Case& c : cases) {
    ColumnStore store = RandomStore(&rng, c.rows, x.arity(), c.limit);
    Bag bag = BagFromStore(x, store, &rng);
    std::vector<AttrId> attrs;
    for (size_t i = 0; i < c.arity; ++i) attrs.push_back(static_cast<AttrId>(i));
    Schema z{attrs};
    Projector proj = *Projector::Make(x, z);
    ColumnStore cols = bag.ToColumns();
    ColumnView projected = cols.View().Select(proj);
    ASSERT_EQ(DenseGroupBy(projected), c.dense) << c.name;
    Bag grouped = *Bag::GroupColumns(z, projected, bag.entries());
    EXPECT_EQ(grouped, *bag.MarginalRows(z)) << c.name;
    EXPECT_TRUE(grouped.columnar_sealed()) << c.name;
  }
}

TEST(ColumnStoreTest, GroupColumnsDensityCapBoundary) {
  // Arity 1 with n rows: a key range of exactly max(4096, 4n) groups
  // dense, one more id hashes. Both sides equal the row-path marginal.
  Rng rng(0x51D0008);
  for (size_t n : {100u, 2000u}) {
    uint64_t cap = std::max<uint64_t>(4096, 4 * n);
    for (uint64_t top : {cap - 1, cap}) {
      std::vector<ValueId> ids(n);
      for (ValueId& v : ids) v = static_cast<ValueId>(rng.Next() % top);
      ids[n / 2] = static_cast<ValueId>(top);  // pins the column max
      ColumnStore store = ColumnStore::FromColumnMajor(std::move(ids), n, 1);
      Schema z{{0}};
      std::vector<uint64_t> mults(n);
      for (uint64_t& m : mults) m = 1 + rng.Next() % 1000;
      ASSERT_EQ(DenseGroupBy(store.View()), top + 1 <= cap);
      Bag grouped = *Bag::GroupColumns(z, store.View(), mults.data(), n);
      BagBuilder builder(z);
      for (size_t r = 0; r < n; ++r) {
        ASSERT_TRUE(builder.Add(store.RowAt(r), mults[r]).ok());
      }
      EXPECT_EQ(grouped, *builder.Build()) << "n " << n << " top " << top;
    }
  }
}

TEST(ColumnStoreTest, GroupColumnsOverflowBoundaryOnBothPaths) {
  // Two equal rows summing to exactly UINT64_MAX group fine; one more
  // unit overflows. Dense (id 3) and hashed (side-table id) keys must
  // agree on both sides of that boundary.
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  Schema z{{0}};
  for (ValueId id : {ValueId{3}, EncodeValue(-7)}) {
    ColumnStore store = ColumnStore::FromColumnMajor({id, id}, 2, 1);
    ASSERT_EQ(DenseGroupBy(store.View()), id == 3);
    std::vector<uint64_t> fits = {kMax - 2, 2};
    Result<Bag> ok = Bag::GroupColumns(z, store.View(), fits.data(), 2);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->MultiplicityAt(0), kMax);
    std::vector<uint64_t> over = {kMax - 2, 3};
    Result<Bag> bad = Bag::GroupColumns(z, store.View(), over.data(), 2);
    EXPECT_FALSE(bad.ok());
  }
}

TEST(ColumnStoreTest, RowAndColumnarMarginalsAgree) {
  // Sizes straddling kColumnarMinRows so both dispatch arms are hit, and
  // both forced paths are pinned against each other on every size.
  Schema x{{0, 1, 2}};
  for (size_t support : std::vector<size_t>{1, 8, kColumnarMinRows - 1,
                                            kColumnarMinRows, 100, 400}) {
    for (uint64_t domain : {2, 5, 50}) {
      Bag bag = RandomBag(x, support, domain, 1000 + support * 10 + domain);
      for (const Schema& z :
           {Schema{{0}}, Schema{{1}}, Schema{{0, 2}}, Schema{{0, 1, 2}}, Schema{}}) {
        Bag rows = *bag.MarginalRows(z);
        Bag columnar = *bag.MarginalColumnar(z);
        Bag dispatched = *bag.Marginal(z);
        EXPECT_EQ(rows, columnar) << "support=" << support << " z=" << z.ToString();
        EXPECT_EQ(rows, dispatched);
      }
    }
  }
}

TEST(ColumnStoreTest, EmptySchemaBags) {
  // Tup(∅) is non-empty: the empty tuple with some multiplicity.
  Bag empty_schema{Schema{}};
  ASSERT_TRUE(empty_schema.Set(Tuple{std::vector<Value>{}}, 5).ok());
  ColumnStore cols = empty_schema.ToColumns();
  EXPECT_EQ(cols.num_rows(), 1u);
  EXPECT_EQ(cols.arity(), 0u);
  EXPECT_EQ(cols.RowAt(0), (Tuple{std::vector<Value>{}}));
  EXPECT_EQ(*empty_schema.MarginalColumnar(Schema{}),
            *empty_schema.MarginalRows(Schema{}));

  // A projection onto ∅ groups every row into the single empty tuple.
  Bag bag = RandomBag(Schema{{0, 1}}, 64, 4, 99);
  Bag onto_empty = *bag.MarginalColumnar(Schema{});
  ASSERT_EQ(onto_empty.SupportSize(), 1u);
  EXPECT_EQ(onto_empty.MultiplicityAt(0), *bag.UnarySize());
  EXPECT_EQ(onto_empty, *bag.MarginalRows(Schema{}));

  // And an empty bag stays empty on both paths.
  Bag none{Schema{{0, 1}}};
  EXPECT_TRUE(none.MarginalColumnar(Schema{{0}})->IsEmpty());
  EXPECT_TRUE(none.MarginalRows(Schema{{0}})->IsEmpty());
}

TEST(ColumnStoreTest, MultiplicityOverflowRejected) {
  // Two rows collapsing onto one marginal tuple with mults that overflow
  // uint64 must fail on both paths (not wrap).
  Schema x{{0, 1}};
  Bag bag(x);
  uint64_t huge = std::numeric_limits<uint64_t>::max() - 1;
  ASSERT_TRUE(bag.Set(Tuple{{1, 1}}, huge).ok());
  ASSERT_TRUE(bag.Set(Tuple{{1, 2}}, huge).ok());
  Schema z{{0}};
  EXPECT_FALSE(bag.MarginalRows(z).ok());
  EXPECT_FALSE(bag.MarginalColumnar(z).ok());
  EXPECT_FALSE(bag.Marginal(z).ok());
}

TEST(ColumnStoreTest, GroupColumnsRejectsMismatchedInputs) {
  Bag bag = RandomBag(Schema{{0, 1}}, 40, 4, 3);
  ColumnStore cols = bag.ToColumns();
  // Arity mismatch between z and the projected view.
  EXPECT_FALSE(Bag::GroupColumns(Schema{{0}}, cols.View(), bag.entries()).ok());
}

TEST(ColumnStoreTest, KRelationColumnarMarginalMatchesBag) {
  // KRelation over the counting semiring must marginalize exactly like a
  // Bag — including through the columnar arm (>= kColumnarMinRows rows).
  Schema x{{0, 1, 2}};
  Bag bag = RandomBag(x, 128, 4, 21);
  KRelation<CountingSemiring> kr(x);
  for (const auto& [t, mult] : bag.entries()) {
    ASSERT_TRUE(kr.Set(t, mult).ok());
  }
  for (const Schema& z : {Schema{{0}}, Schema{{1, 2}}, Schema{}}) {
    Bag expected = *bag.MarginalRows(z);
    KRelation<CountingSemiring> got = *kr.Marginal(z);
    ASSERT_EQ(got.SupportSize(), expected.SupportSize());
    for (size_t i = 0; i < expected.SupportSize(); ++i) {
      EXPECT_EQ(got.entries()[i].first, expected.RowAt(i));
      EXPECT_EQ(got.entries()[i].second, expected.MultiplicityAt(i));
    }
  }
}

TEST(ColumnStoreTest, EngineRowAndColumnarFillsProduceIdenticalVerdicts) {
  // Row-path and columnar-path engines agree query-for-query. The
  // generator's bags come back columnar-sealed, which always groups
  // columnar, so both engines get row-form copies: columnar_min_rows =
  // SIZE_MAX then keeps every fill on the row path and 1 sends every
  // non-empty bag columnar.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(500 + seed);
    BagGenOptions options;
    options.support_size = 48;  // above kColumnarMinRows
    options.domain_size = 3;
    options.max_multiplicity = 6;
    Hypergraph h = *MakePath(4);
    BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
    if (seed % 2 == 1) {
      // Perturb one multiplicity so inconsistent verdicts are covered too.
      std::vector<Bag> bags = c.bags();
      Bag& victim = bags[seed % bags.size()];
      if (!victim.IsEmpty()) {
        Tuple t = victim.RowAt(0);
        uint64_t mult = victim.MultiplicityAt(0);
        ASSERT_TRUE(victim.Set(t, mult + 1).ok());
      }
      c = *BagCollection::Make(std::move(bags));
    }
    std::vector<Bag> row_form = c.bags();
    for (Bag& b : row_form) {
      if (!b.IsEmpty()) ASSERT_TRUE(b.Set(b.RowAt(0), b.MultiplicityAt(0)).ok());
      ASSERT_FALSE(b.columnar_sealed());
    }
    c = *BagCollection::Make(std::move(row_form));
    size_t compared = 0;
    EngineOptions rows_opt;
    rows_opt.columnar_min_rows = std::numeric_limits<size_t>::max();
    EngineOptions cols_opt;
    cols_opt.columnar_min_rows = 1;
    ConsistencyEngine rows_engine = *ConsistencyEngine::Make(c, rows_opt);
    ConsistencyEngine cols_engine = *ConsistencyEngine::Make(c, cols_opt);
    PairwiseVerdict vr = *rows_engine.PairwiseAll();
    PairwiseVerdict vc = *cols_engine.PairwiseAll();
    EXPECT_EQ(vr.consistent, vc.consistent);
    EXPECT_EQ(vr.witness_pair, vc.witness_pair);
    EXPECT_EQ(*rows_engine.Global(), *cols_engine.Global());
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = i + 1; j < c.size(); ++j) {
        EXPECT_EQ(*rows_engine.TwoBag(i, j), *cols_engine.TwoBag(i, j));
        // The two legs really ran different paths.
        Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
        const Bag* rows_marginal = rows_engine.CachedMarginal(i, z);
        const Bag* cols_marginal = cols_engine.CachedMarginal(i, z);
        if (rows_marginal != nullptr && !rows_marginal->IsEmpty()) {
          EXPECT_FALSE(rows_marginal->columnar_sealed());
          ASSERT_NE(cols_marginal, nullptr);
          EXPECT_TRUE(cols_marginal->columnar_sealed());
          EXPECT_EQ(*rows_marginal, *cols_marginal);
          ++compared;
        }
      }
    }
    EXPECT_GT(compared, 0u);
  }
}

TEST(ColumnStoreTest, ParallelRipFoldMatchesSequential) {
  // The Theorem 6 fold with pool-sharded next-marginal builds must return
  // the exact witness the single-threaded fold does.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(900 + seed);
    BagGenOptions options;
    options.support_size = 40;
    options.domain_size = 4;
    options.max_multiplicity = 8;
    Hypergraph h = seed % 2 == 0 ? *MakePath(5) : *MakeStar(4);
    BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
    EngineOptions seq;
    EngineOptions par;
    par.num_threads = 8;
    ConsistencyEngine e1 = *ConsistencyEngine::Make(c, seq);
    ConsistencyEngine e2 = *ConsistencyEngine::Make(c, par);
    auto w1 = *e1.SolveGlobalAcyclic();
    auto w2 = *e2.SolveGlobalAcyclic();
    ASSERT_TRUE(w1.has_value());
    ASSERT_TRUE(w2.has_value());
    EXPECT_EQ(*w1, *w2);
    // Either way the result is a genuine witness.
    EXPECT_TRUE(*c.IsWitness(*w1));
  }
}

}  // namespace
}  // namespace bagc
