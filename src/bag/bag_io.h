// Text serialization for bags and collections. The format is line-based
// and human-editable — the same shape as the paper's tabular examples:
//
//   bag A B            # schema line: attribute names
//   1 2 : 3            # tuple values, colon, multiplicity
//   2 2 : 1
//   end
//
// A collection file is a sequence of bag blocks. Attribute names are
// interned into the caller's catalog, so bags sharing names share ids.
//
// Values: without a DictionarySet, tokens must be integers and rows are
// encoded through the legacy numeric codec (the historical format,
// unchanged). With a DictionarySet, tokens are arbitrary words (strings
// or numbers alike) and every value is interned into the set's
// per-attribute dictionary; writing decodes ids back to the original
// external tokens, so the on-disk shape is identical either way.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bag/bag.h"
#include "tuple/attribute.h"
#include "tuple/column_store.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"

namespace bagc {

/// The format's line lexer: strips a trailing '#'-comment and
/// surrounding " \t\r" whitespace, without copying (the result views
/// into `line`). Exposed because the bagcd wire protocol applies the
/// SAME lexical rules to command lines that this format applies to
/// rows — both sides share this one definition so they cannot drift.
std::string_view StripCommentView(std::string_view line);

/// Serializes one bag using catalog names. With `dicts`, the bag MUST
/// have been sealed through that same set: ids on covered attributes
/// decode to their dictionary strings (codec ids are indistinguishable
/// from dictionary ids, so a numerically built bag over a
/// dictionary-covered attribute would misdecode — see the uniform-sealing
/// precondition in value_dictionary.h). Attributes the set never saw, and
/// all values when `dicts` is null, decode through the numeric codec.
std::string WriteBag(const Bag& bag, const AttributeCatalog& catalog,
                     const DictionarySet* dicts = nullptr);

/// Serializes a whole collection (sequence of bag blocks).
std::string WriteCollection(const std::vector<Bag>& bags,
                            const AttributeCatalog& catalog,
                            const DictionarySet* dicts = nullptr);

/// Parses one bag block from `input` starting at line `*pos`; advances
/// *pos past the block. Attribute names are interned into `catalog`;
/// values are interned into `dicts` when given, else parsed as integers.
Result<Bag> ParseBag(const std::vector<std::string>& lines, size_t* pos,
                     AttributeCatalog* catalog, DictionarySet* dicts = nullptr);

/// Validates and seals a bag whose values are raw interned ids (u32)
/// instead of external values — the streaming arm of the bagcd session
/// protocol (LOADU32 blocks and ROWS frames, decoded), and the mmap'd
/// columns of a sealed-bag segment file (tuple/segment.h). No interning
/// (and no string hashing) happens here. `attr_names[c]` names
/// `columns.column(c)` (header order; the sorted schema layout may
/// permute it), and row r carries multiplicity `mults[r]`. Every
/// attribute needs a dictionary in `dicts` (FailedPrecondition), every
/// id must be one it issued (OutOfRange), a duplicate row is
/// InvalidArgument, and zero-multiplicity rows are dropped.
Result<Bag> BagFromU32Columns(const std::vector<std::string>& attr_names,
                              const ColumnView& columns, const uint64_t* mults,
                              AttributeCatalog* catalog,
                              const DictionarySet& dicts);

/// Zero-copy twin of BagFromU32Columns for mmap'd sealed-bag segments:
/// validates the columns in place and serves them through
/// Bag::BorrowColumnar, so the bag holds no row vector and no column
/// copy — `keep_alive` (the shared SegmentReader) pins the mapping.
/// Stricter than the copying arm by design: the columns must already be
/// in sorted-schema slot order, contiguous column-major, strictly
/// row-ascending, with no zero multiplicities — exactly what
/// EncodeSegment writes. Anything else (a permuted or hand-built
/// segment) returns a status; callers fall back to BagFromU32Columns,
/// which re-sorts and filters.
Result<Bag> BagBorrowU32Columns(const std::vector<std::string>& attr_names,
                                const ColumnView& columns,
                                const uint64_t* mults,
                                AttributeCatalog* catalog,
                                const DictionarySet& dicts,
                                std::shared_ptr<const void> keep_alive);

/// Parses an entire collection document. All bags share `catalog` (and
/// `dicts` when given), so shared attribute names — and shared values on
/// them — map to identical ids across bags.
Result<std::vector<Bag>> ParseCollection(const std::string& input,
                                         AttributeCatalog* catalog,
                                         DictionarySet* dicts = nullptr);

}  // namespace bagc
