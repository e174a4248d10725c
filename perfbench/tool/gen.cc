// `perfbench_tool gen <workload> <seed> <dir>`: writes the workload's
// inputs for one seed as BAGCSEG segments plus <dir>/inputs.json, which
// holds the op material run.py sends and every expected answer.
// Answers come from the single-shot core/ path (core/two_bag.h,
// core/pairwise.h, core/global.h), never from the engine the daemon
// serves with, so the benchmark checks the daemon against an
// independent oracle.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "core/collection.h"
#include "core/global.h"
#include "core/pairwise.h"
#include "core/tseitin.h"
#include "core/two_bag.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "tuple/segment.h"
#include "util/random.h"

namespace perfbench {
namespace {

using bagc::Bag;
using bagc::BagCollection;
using bagc::Tuple;

// Workload sizes. Each is fixed across seeds, so the seed changes the
// content of an instance but not its shape or cost.
constexpr size_t kServeBags = 16;
constexpr size_t kServeRows = 120000;
constexpr uint64_t kServeDomain = 2048;
constexpr size_t kServePerturbedBag = 12;

constexpr size_t kDurableBags = 32;
constexpr size_t kDurableRows = 1024;
constexpr uint64_t kDurableDomain = 256;
constexpr size_t kDurableWindows = 4;       // distinct 4-bag write sets
constexpr size_t kDurableWindowBags = 4;
constexpr size_t kDurableRowsPerBag = 16;

constexpr uint64_t kMaxMultiplicity = 8;

std::string VerdictLine(bool consistent, const std::vector<size_t>& indices) {
  if (consistent) return "OK CONSISTENT";
  std::string line = "OK INCONSISTENT";
  for (size_t i : indices) line += " " + std::to_string(i);
  return line;
}

std::string TwoBagLine(const Bag& r, const Bag& s) {
  return VerdictLine(Must(bagc::AreConsistent(r, s), "two-bag oracle"), {});
}

std::string PairwiseLine(const BagCollection& c) {
  std::pair<size_t, size_t> pair{0, 0};
  bool ok = Must(bagc::ArePairwiseConsistent(c, &pair), "pairwise oracle");
  return VerdictLine(ok, {pair.first, pair.second});
}

std::string KWiseLine(const BagCollection& c, size_t k) {
  std::optional<std::vector<size_t>> failing;
  bool ok = Must(bagc::AreKWiseConsistent(c, k, &failing), "k-wise oracle");
  return VerdictLine(ok, failing.value_or(std::vector<size_t>{}));
}

std::string GlobalLine(const BagCollection& c) {
  return VerdictLine(Must(bagc::IsGloballyConsistent(c), "global oracle"), {});
}

// Attributes print as a<id>; attribute a's dictionary maps id v to the
// external value "v" for v < domain, so segment ids equal generator values.
void WriteCollection(const std::string& path, const std::vector<Bag>& bags,
                     uint64_t domain) {
  bagc::AttributeCatalog catalog;
  bagc::DictionarySet dicts;
  bagc::AttrId max_attr = 0;
  for (const Bag& b : bags) {
    for (bagc::AttrId a : b.schema().attrs()) max_attr = std::max(max_attr, a);
  }
  std::vector<std::string> values;
  for (uint64_t v = 0; v < domain; ++v) values.push_back(std::to_string(v));
  for (bagc::AttrId a = 0; a <= max_attr; ++a) {
    if (catalog.Intern("a" + std::to_string(a)) != a) Die("catalog id order");
    MustOk(dicts.dict(a).BulkLoad(values), "dictionary");
  }
  std::vector<std::string> names;
  for (size_t i = 0; i < bags.size(); ++i) names.push_back("b" + std::to_string(i));
  MustOk(bagc::WriteSegmentFile(path, names, bags, catalog, dicts), "write segment");
}

std::vector<Bag> HiddenWitness(const bagc::Hypergraph& h, size_t rows,
                               uint64_t domain, bagc::Rng* rng) {
  bagc::BagGenOptions options;
  options.support_size = rows;
  options.domain_size = domain;
  options.max_multiplicity = kMaxMultiplicity;
  return Must(bagc::MakeGloballyConsistentCollection(h, options, rng),
              "hidden-witness collection")
      .bags();
}

// Moves one unit of multiplicity between two rows of `bag`. The total is
// unchanged, so pairs without shared attributes stay consistent, while
// the shared marginals against both path neighbours break.
Bag Perturb(const Bag& bag, bagc::Rng* rng) {
  size_t from = 0;
  do {
    from = static_cast<size_t>(rng->Below(bag.SupportSize()));
  } while (bag.MultiplicityAt(from) < 2);
  size_t to = from;
  while (to == from) to = static_cast<size_t>(rng->Below(bag.SupportSize()));
  bagc::BagBuilder builder(bag.schema());
  for (size_t e = 0; e < bag.SupportSize(); ++e) {
    uint64_t mult = bag.MultiplicityAt(e) - (e == from ? 1 : 0) + (e == to ? 1 : 0);
    MustOk(builder.Add(bag.RowAt(e), mult), "perturb");
  }
  return Must(builder.Build(), "perturb build");
}

void AppendAttrs(Json* j, const Bag& b) {
  j->Raw("[");
  for (size_t c = 0; c < b.schema().arity(); ++c) {
    if (c) j->Raw(",");
    j->Str("a" + std::to_string(b.schema().at(c)));
  }
  j->Raw("]");
}

void AppendRows(Json* j, const Bag& b) {
  j->Raw("[");
  for (size_t e = 0; e < b.SupportSize(); ++e) {
    if (e) j->Raw(",");
    j->Raw("[");
    for (size_t c = 0; c < b.schema().arity(); ++c) {
      j->Int(b.IdAt(e, c)).Raw(",");
    }
    j->Int(b.MultiplicityAt(e)).Raw("]");
  }
  j->Raw("]");
}

// ---- serve_mixed -----------------------------------------------------------

std::string GenServeMixed(uint64_t seed, const std::string& dir) {
  bagc::Rng rng(seed * 1000003 + 11);
  std::vector<Bag> bags = HiddenWitness(
      Must(bagc::MakePath(kServeBags + 1), "path"), kServeRows, kServeDomain, &rng);
  // A fixed bag, so the KWISE 3 sweep visits the same number of subsets
  // before its first failure on every seed.
  size_t perturbed = kServePerturbedBag;
  bags[perturbed] = Perturb(bags[perturbed], &rng);
  WriteCollection(dir + "/tenant.seg", bags, kServeDomain);
  BagCollection c = Must(BagCollection::Make(bags), "collection");

  Json j;
  j.Raw("{").Key("segment").Str("tenant.seg");
  j.Raw(",").Key("bags").Int(bags.size());
  size_t rows = 0;
  for (const Bag& b : bags) rows += b.SupportSize();
  j.Raw(",").Key("support_rows").Int(rows);
  j.Raw(",").Key("perturbed_bag").Int(perturbed);
  j.Raw(",").Key("twobag").Raw("[");
  bool first = true;
  for (size_t i = 0; i < bags.size(); ++i) {
    for (size_t k = i + 1; k < bags.size(); ++k) {
      if (!first) j.Raw(",");
      first = false;
      j.Raw("[").Int(i).Raw(",").Int(k).Raw(",").Str(TwoBagLine(bags[i], bags[k])).Raw("]");
    }
  }
  j.Raw("]");
  j.Raw(",").Key("pairwise").Str(PairwiseLine(c));
  j.Raw(",").Key("global").Str(GlobalLine(c));
  j.Raw(",").Key("kwise3").Str(KWiseLine(c, 3));
  j.Raw("}");
  return j.text();
}

// ---- durable_commit --------------------------------------------------------

// One write set: kDurableRowsPerBag fresh tuples over the attributes of
// kDurableWindowBags adjacent path bags, projected onto each of them
// (every projection distinct, so each INSERT body lists distinct rows).
struct Window {
  size_t first_bag = 0;
  std::vector<Bag> rows;  // per window bag: the delta rows, multiplicity 1
};

Window MakeWindow(const std::vector<Bag>& bags, size_t first_bag, bagc::Rng* rng) {
  Window w;
  w.first_bag = first_bag;
  while (true) {
    std::vector<std::set<std::pair<uint64_t, uint64_t>>> seen(kDurableWindowBags);
    std::vector<std::vector<uint64_t>> tuples;
    bool distinct = true;
    for (size_t r = 0; r < kDurableRowsPerBag && distinct; ++r) {
      std::vector<uint64_t> t(kDurableWindowBags + 1);
      for (uint64_t& v : t) v = rng->Below(kDurableDomain);
      for (size_t b = 0; b < kDurableWindowBags; ++b) {
        distinct = distinct && seen[b].insert({t[b], t[b + 1]}).second;
      }
      tuples.push_back(t);
    }
    if (!distinct) continue;
    for (size_t b = 0; b < kDurableWindowBags; ++b) {
      bagc::BagBuilder builder(bags[first_bag + b].schema());
      for (const auto& t : tuples) {
        MustOk(builder.Add(Tuple::OfIds({static_cast<bagc::ValueId>(t[b]),
                                         static_cast<bagc::ValueId>(t[b + 1])}),
                           1),
               "window row");
      }
      w.rows.push_back(Must(builder.Build(), "window build"));
    }
    return w;
  }
}

std::vector<Bag> ApplyWindow(std::vector<Bag> bags, const Window& w) {
  for (size_t b = 0; b < w.rows.size(); ++b) {
    Bag& target = bags[w.first_bag + b];
    bagc::BagBuilder builder(target.schema());
    for (size_t e = 0; e < target.SupportSize(); ++e) {
      MustOk(builder.Add(target.RowAt(e), target.MultiplicityAt(e)), "copy row");
    }
    for (size_t e = 0; e < w.rows[b].SupportSize(); ++e) {
      MustOk(builder.Add(w.rows[b].RowAt(e), 1), "insert row");
    }
    target = Must(builder.Build(), "apply window");
  }
  return bags;
}

std::string GenDurableCommit(uint64_t seed, const std::string& dir) {
  bagc::Rng rng(seed * 1000003 + 23);
  std::vector<Bag> bags =
      HiddenWitness(Must(bagc::MakePath(kDurableBags + 1), "path"), kDurableRows,
                    kDurableDomain, &rng);
  WriteCollection(dir + "/tenant.seg", bags, kDurableDomain);

  // Windows start at distinct bags in [1, m - 4], so each has a bag on
  // both sides whose pair verdict the write flips.
  std::vector<size_t> starts;
  for (size_t s = 1; s + kDurableWindowBags < kDurableBags; ++s) starts.push_back(s);
  rng.Shuffle(&starts);
  std::vector<Window> windows;
  for (size_t w = 0; w < kDurableWindows; ++w) {
    windows.push_back(MakeWindow(bags, starts[w], &rng));
  }

  // Reader pairs: every adjacent pair touching a window, plus one
  // non-adjacent partner per window bag.
  std::set<std::pair<size_t, size_t>> pair_set;
  for (const Window& w : windows) {
    for (size_t b = w.first_bag - 1; b < w.first_bag + kDurableWindowBags; ++b) {
      pair_set.insert({b, b + 1});
    }
    for (size_t b = w.first_bag; b < w.first_bag + kDurableWindowBags; ++b) {
      size_t other = b;
      while (other + 1 >= b && other <= b + 1) other = rng.Below(kDurableBags);
      pair_set.insert({std::min(b, other), std::max(b, other)});
    }
  }
  std::vector<std::pair<size_t, size_t>> pairs(pair_set.begin(), pair_set.end());

  Json j;
  j.Raw("{").Key("segment").Str("tenant.seg");
  j.Raw(",").Key("bags").Int(bags.size());
  j.Raw(",").Key("windows").Raw("[");
  for (size_t w = 0; w < windows.size(); ++w) {
    if (w) j.Raw(",");
    j.Raw("[");
    for (size_t b = 0; b < windows[w].rows.size(); ++b) {
      const Bag& rows = windows[w].rows[b];
      size_t index = windows[w].first_bag + b;
      if (b) j.Raw(",");
      j.Raw("{").Key("index").Int(index);
      j.Raw(",").Key("name").Str("b" + std::to_string(index));
      j.Raw(",").Key("attrs");
      AppendAttrs(&j, rows);
      j.Raw(",").Key("rows").Raw("[");
      for (size_t e = 0; e < rows.SupportSize(); ++e) {
        if (e) j.Raw(",");
        j.Raw("[").Int(rows.IdAt(e, 0)).Raw(",").Int(rows.IdAt(e, 1)).Raw("]");
      }
      j.Raw("]}");
    }
    j.Raw("]");
  }
  j.Raw("]");
  j.Raw(",").Key("reader_pairs").Raw("[");
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (p) j.Raw(",");
    j.Raw("[").Int(pairs[p].first).Raw(",").Int(pairs[p].second).Raw("]");
  }
  j.Raw("]");
  // State 0 is the base; state w + 1 is the base with window w inserted.
  j.Raw(",").Key("states").Raw("[");
  for (size_t s = 0; s <= windows.size(); ++s) {
    std::vector<Bag> state = s == 0 ? bags : ApplyWindow(bags, windows[s - 1]);
    BagCollection c = Must(BagCollection::Make(state), "state collection");
    if (s) j.Raw(",");
    j.Raw("{").Key("twobag").Raw("[");
    for (size_t p = 0; p < pairs.size(); ++p) {
      if (p) j.Raw(",");
      j.Str(TwoBagLine(state[pairs[p].first], state[pairs[p].second]));
    }
    j.Raw("]");
    j.Raw(",").Key("pairwise").Str(PairwiseLine(c));
    j.Raw("}");
  }
  j.Raw("]}");
  return j.text();
}

// ---- tenant_analyze --------------------------------------------------------

struct TenantSpec {
  const char* kind;   // "path", "triangle", "tseitin_h4" or "tseitin_c6_3"
  size_t rows;        // hidden-witness rows (paths, triangles)
  uint64_t domain;
  bool minimal;       // WITNESS 0 1 MINIMAL instead of a plain witness
};

// Fixed tenant mix; the seed changes the hidden witnesses and the bag
// order of the Tseitin collections. Triangles are
// sparse (rows well below domain^2), which keeps the exact GLOBAL search
// to a few ms on every seed; dense ones exhaust the search node limit.
// MINIMAL witnesses only on the Tseitin tenants, where they are cheap and
// their cost does not depend on the seed. Sorted by op cost the mix is
// 3 cheap, 2 identical, 3 dear tenants: the median falls between two
// tenants with one cost distribution and the p90 inside the dearest one,
// never on a gap between tenant kinds.
const TenantSpec kTenants[] = {
    {"path", 4096, 1024, false},     {"path", 6144, 1024, false},
    {"triangle", 256, 64, false},    {"tseitin_h4", 0, 3, true},
    {"triangle", 1024, 256, false},  {"triangle", 1024, 256, false},
    {"tseitin_c6_3", 0, 3, true},    {"path", 8192, 1024, false},
};

constexpr size_t kTenantPerturbedBag = 12;

std::vector<Bag> MakeTenantBags(const TenantSpec& spec, bool perturb, bagc::Rng* rng) {
  std::string kind = spec.kind;
  std::vector<Bag> bags;
  if (kind == "path") {
    bags = HiddenWitness(Must(bagc::MakePath(17), "path"), spec.rows, spec.domain, rng);
    if (perturb) bags[kTenantPerturbedBag] = Perturb(bags[kTenantPerturbedBag], rng);
    return bags;
  }
  if (kind == "triangle") {
    return HiddenWitness(Must(bagc::MakeCycle(3), "cycle"), spec.rows, spec.domain, rng);
  }
  bagc::Hypergraph h = kind == "tseitin_h4" ? Must(bagc::MakeHn(4), "H4")
                                            : Must(bagc::MakeCirculant(6, 3), "circulant");
  bags = Must(bagc::MakeTseitinCollection(h), "tseitin");
  rng->Shuffle(&bags);
  return bags;
}

std::string GenTenantAnalyze(uint64_t seed, const std::string& dir) {
  bagc::Rng rng(seed * 1000003 + 37);
  Json j;
  j.Raw("{").Key("tenants").Raw("[");
  size_t n = sizeof(kTenants) / sizeof(kTenants[0]);
  for (size_t t = 0; t < n; ++t) {
    const TenantSpec& spec = kTenants[t];
    // The second path tenant carries one perturbed bag, so PAIRWISE,
    // KWISE and GLOBAL report a failure on it.
    std::vector<Bag> bags = MakeTenantBags(spec, t == 1, &rng);
    std::string name = "t" + std::to_string(t);
    WriteCollection(dir + "/" + name + ".seg", bags, spec.domain);
    BagCollection c = Must(BagCollection::Make(bags), "collection");
    size_t rows = 0;
    for (const Bag& b : bags) rows += b.SupportSize();
    if (t) j.Raw(",");
    j.Raw("{").Key("name").Str(name);
    j.Raw(",").Key("kind").Str(spec.kind);
    j.Raw(",").Key("segment").Str(name + ".seg");
    j.Raw(",").Key("bags").Int(bags.size());
    j.Raw(",").Key("support_rows").Int(rows);
    j.Raw(",").Key("pairwise").Str(PairwiseLine(c));
    j.Raw(",").Key("global").Str(GlobalLine(c));
    j.Raw(",").Key("kwise3").Str(KWiseLine(c, 3));
    j.Raw(",").Key("witness").Raw("{");
    j.Key("minimal").Raw(spec.minimal ? "true" : "false");
    j.Raw(",").Key("exists").Raw(
        Must(bagc::AreConsistent(bags[0], bags[1]), "witness oracle") ? "true"
                                                                      : "false");
    j.Raw(",").Key("attrs0");
    AppendAttrs(&j, bags[0]);
    j.Raw(",").Key("rows0");
    AppendRows(&j, bags[0]);
    j.Raw(",").Key("attrs1");
    AppendAttrs(&j, bags[1]);
    j.Raw(",").Key("rows1");
    AppendRows(&j, bags[1]);
    j.Raw("}}");
  }
  j.Raw("]}");
  return j.text();
}

}  // namespace

int RunGen(const std::string& workload, uint64_t seed, const std::string& dir) {
  std::string json;
  if (workload == "serve_mixed") {
    json = GenServeMixed(seed, dir);
  } else if (workload == "durable_commit") {
    json = GenDurableCommit(seed, dir);
  } else if (workload == "tenant_analyze") {
    json = GenTenantAnalyze(seed, dir);
  } else {
    Die("unknown workload " + workload);
  }
  std::string path = dir + "/inputs.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return 0;
}

}  // namespace perfbench
