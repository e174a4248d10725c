#include "bag/bag_io.h"

#include <charconv>
#include <string_view>
#include <sstream>

#include "tuple/tuple_index.h"
#include "util/simd.h"

namespace bagc {

std::string_view StripCommentView(std::string_view line) {
  size_t hash = line.find('#');
  std::string_view s = hash == std::string_view::npos ? line : line.substr(0, hash);
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

namespace {

std::vector<std::string> SplitWhitespace(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream iss(line);
  std::string token;
  while (iss >> token) out.push_back(token);
  return out;
}

std::vector<std::string> SplitLines(const std::string& input) {
  std::vector<std::string> lines;
  std::istringstream iss(input);
  std::string line;
  while (std::getline(iss, line)) lines.push_back(line);
  return lines;
}

std::string StripComment(const std::string& line) {
  return std::string(StripCommentView(line));
}

Result<int64_t> ParseInt(std::string_view token) {
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not an integer: '" + std::string(token) + "'");
  }
  return value;
}

Result<uint64_t> ParseUint(std::string_view token) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not a non-negative integer: '" +
                                   std::string(token) + "'");
  }
  return value;
}

// Zero-allocation tokenizer for row lines: appends the [begin, end)
// views of each whitespace-separated token of `line` into *spans
// (cleared first), so tokens materialize strings only where the
// interning arm needs map keys.
void SplitSpans(std::string_view line, std::vector<std::string_view>* spans) {
  spans->clear();
  const char* data = line.data();
  size_t n = line.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r')) ++i;
    size_t begin = i;
    while (i < n && data[i] != ' ' && data[i] != '\t' && data[i] != '\r') ++i;
    if (i > begin) spans->emplace_back(data + begin, i - begin);
  }
}

}  // namespace

std::string WriteBag(const Bag& bag, const AttributeCatalog& catalog,
                     const DictionarySet* dicts) {
  std::string out = "bag";
  for (AttrId a : bag.schema().attrs()) {
    out += " " + catalog.Name(a);
  }
  out += "\n";
  // Resolve each slot's dictionary once; slots without one (numerically
  // built bags, or attributes the set never saw) decode via the codec.
  std::vector<const ValueDictionary*> slot_dict(bag.schema().arity(), nullptr);
  if (dicts != nullptr) {
    for (size_t i = 0; i < bag.schema().arity(); ++i) {
      slot_dict[i] = dicts->find_dict(bag.schema().at(i));
    }
  }
  for (size_t e = 0; e < bag.SupportSize(); ++e) {
    Tuple t = bag.RowAt(e);  // text write-out is a designated cold path
    for (size_t i = 0; i < t.arity(); ++i) {
      const ValueDictionary* d = slot_dict[i];
      if (d != nullptr && t.id(i) < d->size()) {
        out += d->ExternalOf(t.id(i)) + " ";
      } else {
        out += std::to_string(t.at(i)) + " ";
      }
    }
    out += ": " + std::to_string(bag.MultiplicityAt(e)) + "\n";
  }
  out += "end\n";
  return out;
}

std::string WriteCollection(const std::vector<Bag>& bags,
                            const AttributeCatalog& catalog,
                            const DictionarySet* dicts) {
  std::string out;
  for (const Bag& bag : bags) out += WriteBag(bag, catalog, dicts);
  return out;
}

Result<Bag> ParseBag(const std::vector<std::string>& lines, size_t* pos,
                     AttributeCatalog* catalog, DictionarySet* dicts) {
  // Skip blank/comment lines.
  while (*pos < lines.size() && StripComment(lines[*pos]).empty()) ++(*pos);
  if (*pos >= lines.size()) {
    return Status::InvalidArgument("expected 'bag' header, found end of input");
  }
  std::vector<std::string> header = SplitWhitespace(StripComment(lines[*pos]));
  if (header.empty() || header[0] != "bag") {
    return Status::InvalidArgument("expected 'bag <attrs...>' at line " +
                                   std::to_string(*pos + 1));
  }
  ++(*pos);
  std::vector<AttrId> attrs;
  for (size_t i = 1; i < header.size(); ++i) {
    attrs.push_back(catalog->Intern(header[i]));
  }
  Schema schema{attrs};
  if (schema.arity() != header.size() - 1) {
    return Status::InvalidArgument("duplicate attribute in bag header");
  }
  // The sorted schema layout may permute the header order: remember where
  // each header column lands.
  std::vector<size_t> slot_of_column(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    BAGC_ASSIGN_OR_RETURN(slot_of_column[i], schema.IndexOf(attrs[i]));
  }
  BagBuilder builder(schema);
  // Tuples already carrying a nonzero multiplicity; a repeat is an error.
  TupleIndex seen;
  // Tokens are scanned as views into the line (SplitSpans), so the
  // numeric arm parses a whole row without one allocation beyond the
  // tuple itself.
  std::vector<std::string_view> tokens;
  while (true) {
    if (*pos >= lines.size()) {
      return Status::InvalidArgument("unterminated bag block (missing 'end')");
    }
    std::string_view line = StripCommentView(lines[*pos]);
    ++(*pos);
    if (line.empty()) continue;
    if (line == "end") break;
    SplitSpans(line, &tokens);
    // Expect: v1 ... vk : mult
    if (tokens.size() != attrs.size() + 2 || tokens[attrs.size()] != ":") {
      return Status::InvalidArgument("bad tuple line: '" + std::string(line) + "'");
    }
    std::vector<ValueId> row(attrs.size());
    if (dicts != nullptr) {
      // Dictionary mode: any word is a value; intern it per attribute.
      for (size_t i = 0; i < attrs.size(); ++i) {
        BAGC_ASSIGN_OR_RETURN(row[slot_of_column[i]],
                              dicts->Intern(attrs[i], std::string(tokens[i])));
      }
    } else {
      // Legacy numeric mode: the historical integer format.
      for (size_t i = 0; i < attrs.size(); ++i) {
        BAGC_ASSIGN_OR_RETURN(int64_t v, ParseInt(tokens[i]));
        row[slot_of_column[i]] = EncodeValue(v);
      }
    }
    BAGC_ASSIGN_OR_RETURN(uint64_t mult, ParseUint(tokens.back()));
    Tuple t = Tuple::OfIds(std::move(row));
    if (seen.Find(t) != nullptr) {
      return Status::InvalidArgument("duplicate tuple: '" + std::string(line) + "'");
    }
    if (mult != 0) {
      seen.Insert(t, 0);
      BAGC_RETURN_NOT_OK(builder.Add(std::move(t), mult));
    }
  }
  return builder.Build();
}

Result<Bag> BagFromU32Columns(const std::vector<std::string>& attr_names,
                              const ColumnView& columns, const uint64_t* mults,
                              AttributeCatalog* catalog,
                              const DictionarySet& dicts) {
  if (attr_names.size() != columns.arity()) {
    return Status::InvalidArgument("attribute names do not match column count");
  }
  if (attr_names.empty()) {
    return Status::InvalidArgument("a bag needs at least one attribute");
  }
  std::vector<AttrId> attrs;
  attrs.reserve(attr_names.size());
  for (const std::string& name : attr_names) {
    attrs.push_back(catalog->Intern(name));
  }
  Schema schema{attrs};
  if (schema.arity() != attrs.size()) {
    return Status::InvalidArgument("duplicate attribute in bag header");
  }
  // Every column's dictionary resolved up front, ids bounds-checked per
  // row.
  std::vector<const ValueDictionary*> column_dict(attrs.size(), nullptr);
  for (size_t c = 0; c < attrs.size(); ++c) {
    column_dict[c] = dicts.find_dict(attrs[c]);
    if (column_dict[c] == nullptr) {
      return Status::FailedPrecondition(
          "u32 rows require a dictionary for attribute '" + attr_names[c] +
          "'; ship its DICT block first");
    }
  }
  std::vector<size_t> slot_of_column(attrs.size());
  for (size_t c = 0; c < attrs.size(); ++c) {
    BAGC_ASSIGN_OR_RETURN(slot_of_column[c], schema.IndexOf(attrs[c]));
  }
  size_t n = columns.num_rows();
  BagBuilder builder(schema);
  TupleIndex seen;
  std::vector<ValueId> row(attrs.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < attrs.size(); ++c) {
      ValueId id = columns.at(r, c);
      if (id >= column_dict[c]->size()) {
        return Status::OutOfRange(
            "row id " + std::to_string(id) + " was never issued for attribute '" +
            attr_names[c] + "' (dictionary has " +
            std::to_string(column_dict[c]->size()) + " values)");
      }
      row[slot_of_column[c]] = id;
    }
    Tuple t = Tuple::OfIds(row);
    if (seen.Find(t) != nullptr) {
      return Status::InvalidArgument("duplicate tuple at row " +
                                     std::to_string(r));
    }
    if (mults[r] != 0) {
      seen.Insert(t, 0);
      BAGC_RETURN_NOT_OK(builder.Add(std::move(t), mults[r]));
    }
  }
  return builder.Build();
}

Result<Bag> BagBorrowU32Columns(const std::vector<std::string>& attr_names,
                                const ColumnView& columns,
                                const uint64_t* mults,
                                AttributeCatalog* catalog,
                                const DictionarySet& dicts,
                                std::shared_ptr<const void> keep_alive) {
  if (attr_names.size() != columns.arity()) {
    return Status::InvalidArgument("attribute names do not match column count");
  }
  if (attr_names.empty()) {
    return Status::InvalidArgument("a bag needs at least one attribute");
  }
  std::vector<AttrId> attrs;
  attrs.reserve(attr_names.size());
  for (const std::string& name : attr_names) {
    attrs.push_back(catalog->Intern(name));
  }
  Schema schema{attrs};
  if (schema.arity() != attrs.size()) {
    return Status::InvalidArgument("duplicate attribute in bag header");
  }
  // Borrowing cannot permute: the mapped columns are served exactly as
  // written, so column c must already be schema slot c.
  if (schema.attrs() != attrs) {
    return Status::FailedPrecondition(
        "segment columns are not in sorted-schema order; re-ingest by copy");
  }
  size_t n = columns.num_rows();
  const ValueId* base = columns.column(0);
  for (size_t c = 0; c < attrs.size(); ++c) {
    const ValueDictionary* dict = dicts.find_dict(attrs[c]);
    if (dict == nullptr) {
      return Status::FailedPrecondition(
          "u32 rows require a dictionary for attribute '" + attr_names[c] +
          "'; ship its DICT block first");
    }
    // BorrowColumnar wants one contiguous column-major block; segment
    // columns are laid out that way, anything else falls back to a copy.
    if (columns.column(c) != base + c * n) {
      return Status::FailedPrecondition(
          "segment columns are not contiguous column-major");
    }
    // Bounds check the whole column at once (SIMD max-reduce) instead of
    // per-row: every id a column carries must have been issued by its
    // dictionary.
    if (n > 0) {
      uint32_t max_id = simd::MaxU32(columns.column(c), n,
                                     simd::SimdLevel::kAuto);
      if (max_id >= dict->size()) {
        return Status::OutOfRange(
            "row id " + std::to_string(max_id) +
            " was never issued for attribute '" + attr_names[c] +
            "' (dictionary has " + std::to_string(dict->size()) + " values)");
      }
    }
  }
  // BorrowColumnar validates the remaining sealed invariants: rows
  // strictly ascending (which also rules out duplicates) and every
  // multiplicity positive.
  return Bag::BorrowColumnar(std::move(schema), base, mults, n,
                             std::move(keep_alive));
}

Result<std::vector<Bag>> ParseCollection(const std::string& input,
                                         AttributeCatalog* catalog,
                                         DictionarySet* dicts) {
  std::vector<std::string> lines = SplitLines(input);
  std::vector<Bag> bags;
  size_t pos = 0;
  while (true) {
    while (pos < lines.size() && StripComment(lines[pos]).empty()) ++pos;
    if (pos >= lines.size()) break;
    BAGC_ASSIGN_OR_RETURN(Bag bag, ParseBag(lines, &pos, catalog, dicts));
    bags.push_back(std::move(bag));
  }
  if (bags.empty()) {
    return Status::InvalidArgument("no bag blocks found in input");
  }
  return bags;
}

}  // namespace bagc
