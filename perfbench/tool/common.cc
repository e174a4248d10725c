#include "common.h"

#include <algorithm>
#include <cmath>

#include "bag/bag_io.h"
#include "tuple/segment.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Json& Json::Str(const std::string& text) {
  out_ += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::Num(double value) {
  if (!std::isfinite(value)) return Raw("null");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return Raw(buf);
}

SegmentInputs LoadSegment(const std::string& path) {
  auto reader = std::make_shared<bagc::SegmentReader>(
      Must(bagc::SegmentReader::Map(path), "map segment"));
  SegmentInputs in;
  in.dicts = std::make_shared<bagc::DictionarySet>();
  for (size_t a = 0; a < reader->num_attrs(); ++a) {
    bagc::AttrId id = in.catalog.Intern(std::string(reader->attr_name(a)));
    MustOk(in.dicts->dict(id).BulkLoad(reader->AttrValues(a)), "dictionary");
  }
  for (size_t b = 0; b < reader->num_bags(); ++b) {
    std::vector<std::string> cols;
    for (size_t c = 0; c < reader->bag_arity(b); ++c) {
      cols.emplace_back(reader->attr_name(reader->bag_attr(b, c)));
    }
    bagc::ColumnStore columns = reader->Columns(b);
    in.bags.push_back(Must(
        bagc::BagBorrowU32Columns(cols, columns.View(), reader->Mults(b),
                                  &in.catalog, *in.dicts, reader),
        "borrow segment columns"));
    in.names.emplace_back(reader->bag_name(b));
  }
  return in;
}

}  // namespace perfbench
