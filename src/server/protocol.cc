#include "server/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <limits>

#include "bag/bag_io.h"

namespace bagc {

std::string_view WireErrorCode(WireError error) {
  switch (error) {
    case WireError::kParse:
      return "E_PARSE";
    case WireError::kState:
      return "E_STATE";
    case WireError::kRange:
      return "E_RANGE";
    case WireError::kEngine:
      return "E_ENGINE";
    case WireError::kInternal:
      return "E_INTERNAL";
  }
  return "E_INTERNAL";
}

std::string WireErrLine(WireError error, const std::string& message) {
  std::string flat;
  flat.reserve(message.size());
  for (char c : message) flat.push_back(c == '\n' || c == '\r' ? ' ' : c);
  std::string out = "ERR ";
  out += WireErrorCode(error);
  if (!flat.empty()) {
    out += ' ';
    out += flat;
  }
  return out;
}

WireError WireErrorForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOutOfRange:
      return WireError::kRange;
    case StatusCode::kInvalidArgument:
      return WireError::kParse;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNotFound:
      return WireError::kState;
    case StatusCode::kInternal:
      return WireError::kInternal;
    default:
      return WireError::kEngine;
  }
}

std::string WireErrLineForStatus(const Status& status) {
  return WireErrLine(WireErrorForStatus(status), status.message());
}

std::string WireStrip(const std::string& line) {
  // One lexer for the whole system: command lines use exactly the rules
  // bag IO rows use (bag/bag_io.h).
  return std::string(StripCommentView(line));
}

namespace {

// Splits a comment-stripped line into token views. Manual scan, not
// istringstream: tokenization sits on the per-request and per-row hot
// paths, where stream extraction costs an allocation plus locale
// machinery per token.
void WireSpans(std::string_view s, std::vector<std::string_view>* out) {
  out->clear();
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    size_t begin = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    if (i > begin) out->push_back(s.substr(begin, i - begin));
  }
}

}  // namespace

std::vector<std::string> WireTokens(std::string_view line) {
  std::vector<std::string_view> spans;
  WireSpans(StripCommentView(line), &spans);
  return std::vector<std::string>(spans.begin(), spans.end());
}

bool WireCommandHasBody(std::string_view command) {
  return command == "DICT" || command == "LOAD" || command == "LOADU32" ||
         command == "INSERT" || command == "DELETE";
}

bool WireResponseHasBody(const std::string& first_line) {
  return first_line.rfind("OK WITNESS", 0) == 0 ||
         first_line.rfind("OK STATS", 0) == 0;
}

Result<uint64_t> WireParseUint(std::string_view token) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not a non-negative integer: '" +
                                   std::string(token) + "'");
  }
  return value;
}

bool WireRepresentable(std::string_view value) {
  return !value.empty() &&
         value.find_first_of("# \t\r\n") == std::string_view::npos;
}

uint8_t WireErrorTag(WireError error) { return static_cast<uint8_t>(error); }

Result<WireError> WireErrorFromTag(uint8_t tag) {
  if (tag > static_cast<uint8_t>(WireError::kInternal)) {
    return Status::InvalidArgument("unknown error tag " + std::to_string(tag));
  }
  return static_cast<WireError>(tag);
}

void WireAppendU16(std::string* out, uint16_t v) {
  char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out->append(b, sizeof(b));
}

void WireAppendU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, sizeof(b));
}

void WireAppendU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, sizeof(b));
}

void WireAppendString(std::string* out, std::string_view s) {
  WireAppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void WireAppendFrame(std::string* out, uint8_t opcode, std::string_view payload) {
  WireAppendU32(out, static_cast<uint32_t>(payload.size()));
  out->push_back(static_cast<char>(opcode));
  out->append(payload.data(), payload.size());
}

namespace {

// memcpy + shift assembly, not pointer punning: payload integers are
// unaligned and a reinterpret_cast load would be UB (and trap under
// UBSan exactly where the segment tests look).
template <typename T>
bool CursorLoad(std::string_view data, size_t* pos, bool* ok, T* v) {
  if (!*ok || data.size() - *pos < sizeof(T)) {
    *ok = false;
    return false;
  }
  unsigned char raw[sizeof(T)];
  std::memcpy(raw, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  uint64_t acc = 0;
  for (size_t i = 0; i < sizeof(T); ++i) acc |= uint64_t{raw[i]} << (8 * i);
  *v = static_cast<T>(acc);
  return true;
}

}  // namespace

bool WireCursor::U8(uint8_t* v) { return CursorLoad(data_, &pos_, &ok_, v); }
bool WireCursor::U16(uint16_t* v) { return CursorLoad(data_, &pos_, &ok_, v); }
bool WireCursor::U32(uint32_t* v) { return CursorLoad(data_, &pos_, &ok_, v); }
bool WireCursor::U64(uint64_t* v) { return CursorLoad(data_, &pos_, &ok_, v); }

bool WireCursor::Bytes(size_t n, std::string_view* v) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *v = data_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool WireCursor::String(std::string_view* v) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  return Bytes(len, v);
}

// ---- Typed requests --------------------------------------------------------

namespace {

// Command tokens, in WireVerb order.
constexpr std::string_view kVerbNames[] = {
    "HELLO",  "UPGRADE", "TEXT",   "QUIT",     "SHUTDOWN", "DICT",
    "LOAD",   "LOADU32", "LOADSEG", "DROP",    "SEAL",     "RESET",
    "ATTACH", "DETACH",  "INSERT", "DELETE",   "BEGIN",    "COMMIT",
    "STATS",  "TWOBAG",  "PAIRWISE", "GLOBAL", "KWISE",    "WITNESS",
};
static_assert(std::size(kVerbNames) == static_cast<size_t>(WireVerb::kWitness) + 1);

Status Usage(const std::string& grammar) {
  return Status::InvalidArgument("usage: " + grammar);
}

WireBagRef TextBagRef(const std::string& token) {
  WireBagRef ref;
  bool digits = true;
  for (char c : token) digits = digits && c >= '0' && c <= '9';
  if (!digits) {
    ref.name = token;
  } else if (std::from_chars(token.data(), token.data() + token.size(), ref.index)
                 .ec != std::errc()) {
    ref.index = std::numeric_limits<uint64_t>::max();  // resolves out of range
  }
  return ref;
}

// Body lines "id... : count" into u32 rows (blank and comment lines
// skip). Token views, not strings: this runs once per streamed row.
Status DecodeTextRows(const std::vector<std::string>& body, WireRowBlock* rows) {
  const size_t arity = rows->attrs.size();
  rows->ids.reserve(body.size() * arity);
  rows->counts.reserve(body.size());
  std::vector<std::string_view> tokens;
  for (const std::string& raw : body) {
    std::string_view line = StripCommentView(raw);
    if (line.empty()) continue;
    WireSpans(line, &tokens);
    if (tokens.size() != arity + 2 || tokens[arity] != ":") {
      return Status::InvalidArgument("bad tuple line: '" + std::string(line) + "'");
    }
    for (size_t c = 0; c < arity; ++c) {
      BAGC_ASSIGN_OR_RETURN(uint64_t id, WireParseUint(tokens[c]));
      if (id > std::numeric_limits<uint32_t>::max()) {
        return Status::OutOfRange("row id " + std::string(tokens[c]) +
                                  " exceeds the u32 id space");
      }
      rows->ids.push_back(static_cast<uint32_t>(id));
    }
    BAGC_ASSIGN_OR_RETURN(uint64_t count, WireParseUint(tokens[arity + 1]));
    rows->counts.push_back(count);
  }
  return Status::OK();
}

// The ROWS payload grammar, shared by ROWS, INSERT and DELETE frames:
// String bag name, u32 arity, arity Strings, u64 nrows, then nrows
// fixed-width rows of arity u32 ids and a u64 count.
Status DecodeFrameRows(std::string_view frame, WireCursor* cur, WireRequest* req) {
  auto malformed = [frame] {
    return Status::InvalidArgument("malformed " + std::string(frame) +
                                   " frame header");
  };
  std::string_view name;
  uint32_t ncols = 0;
  if (!cur->String(&name) || !cur->U32(&ncols) || ncols == 0) return malformed();
  req->name = name;
  for (uint32_t c = 0; c < ncols; ++c) {
    std::string_view col;
    if (!cur->String(&col)) return malformed();
    req->rows.attrs.emplace_back(col);
  }
  uint64_t nrows = 0;
  if (!cur->U64(&nrows)) return malformed();
  // The row region must hold exactly nrows rows, so a frame whose count
  // disagrees with its length is refused before any row is read.
  const uint64_t row_bytes = uint64_t{ncols} * 4 + 8;
  if (nrows != cur->remaining() / row_bytes ||
      cur->remaining() % row_bytes != 0) {
    return Status::InvalidArgument(
        std::string(frame) + " frame declares " + std::to_string(nrows) +
        " rows but carries " + std::to_string(cur->remaining()) +
        " bytes of row data");
  }
  req->rows.ids.resize(nrows * ncols);
  req->rows.counts.resize(nrows);
  uint32_t* id = req->rows.ids.data();
  for (uint64_t r = 0; r < nrows; ++r) {
    for (uint32_t c = 0; c < ncols; ++c) cur->U32(id++);
    cur->U64(&req->rows.counts[r]);
  }
  return Status::OK();
}

// The command line of `request`, without a newline.
std::string TextCommandLine(const WireRequest& request) {
  std::string line(WireVerbName(request.verb));
  auto arg = [&line](std::string_view token) {
    line += ' ';
    line += token;
  };
  auto ref = [&arg](const WireBagRef& bag) {
    arg(bag.name.empty() ? std::to_string(bag.index) : bag.name);
  };
  switch (request.verb) {
    case WireVerb::kUpgrade:
      arg("BINARY");
      break;
    case WireVerb::kDict:
      arg(request.name);
      arg(std::to_string(request.values.size()));
      break;
    case WireVerb::kLoad:
      arg(request.name);
      // The block header is "bag <attrs>": keep the attributes.
      if (!request.block.empty()) line += request.block.front().substr(3);
      break;
    case WireVerb::kLoadU32:
    case WireVerb::kInsert:
    case WireVerb::kDelete:
      arg(request.name);
      for (const std::string& attr : request.rows.attrs) arg(attr);
      break;
    case WireVerb::kLoadSeg:
    case WireVerb::kDrop:
    case WireVerb::kAttach:
    case WireVerb::kStats:
      if (!request.name.empty()) arg(request.name);
      break;
    case WireVerb::kSeal:
      if (request.canonical) arg("CANONICAL");
      if (request.full) arg("FULL");
      if (request.threads != 1) {
        arg("THREADS");
        arg(std::to_string(request.threads));
      }
      break;
    case WireVerb::kReset:
      if (request.hard) arg("HARD");
      break;
    case WireVerb::kTwoBag:
    case WireVerb::kWitness:
      ref(request.bag_i);
      ref(request.bag_j);
      if (request.minimal) arg("MINIMAL");
      break;
    case WireVerb::kKWise:
      arg(std::to_string(request.k));
      break;
    default:
      break;
  }
  return line;
}

}  // namespace

std::string_view WireVerbName(WireVerb verb) {
  return kVerbNames[static_cast<size_t>(verb)];
}

Result<WireRequest> DecodeTextRequest(const std::vector<std::string>& tokens,
                                      std::vector<std::string> body) {
  const std::string& cmd = tokens[0];
  const size_t n = tokens.size();
  size_t v = 0;
  while (v < std::size(kVerbNames) && kVerbNames[v] != cmd) ++v;
  if (v == std::size(kVerbNames)) {
    return Status::InvalidArgument("unknown command '" + cmd + "'");
  }
  WireRequest req;
  req.verb = static_cast<WireVerb>(v);
  switch (req.verb) {
    case WireVerb::kText:
    case WireVerb::kQuit:
    case WireVerb::kShutdown:
    case WireVerb::kPairwise:
    case WireVerb::kGlobal:
      break;  // protocol v1 ignores trailing tokens on these
    case WireVerb::kHello:
    case WireVerb::kBegin:
    case WireVerb::kCommit:
    case WireVerb::kDetach:
      if (n != 1) return Usage(cmd);
      break;
    case WireVerb::kUpgrade:
      if (n != 2 || tokens[1] != "BINARY") return Usage("UPGRADE BINARY");
      break;
    case WireVerb::kLoadSeg:
      if (n != 2) return Usage("LOADSEG <path>");
      req.name = tokens[1];
      break;
    case WireVerb::kDrop:
      if (n != 2) return Usage("DROP <bag-name>");
      req.name = tokens[1];
      break;
    case WireVerb::kAttach:
      if (n != 2) return Usage("ATTACH <collection>");
      req.name = tokens[1];
      break;
    case WireVerb::kStats:
      if (n > 2) return Usage("STATS [<collection>]");
      if (n == 2) req.name = tokens[1];
      break;
    case WireVerb::kReset:
      req.hard = n == 2 && tokens[1] == "HARD";
      if (n > 2 || (n == 2 && !req.hard)) return Usage("RESET [HARD]");
      break;
    case WireVerb::kSeal:
      for (size_t i = 1; i < n; ++i) {
        if (tokens[i] == "CANONICAL") {
          req.canonical = true;
        } else if (tokens[i] == "FULL") {
          req.full = true;
        } else if (tokens[i] == "THREADS" && i + 1 < n) {
          Result<uint64_t> threads = WireParseUint(tokens[++i]);
          if (!threads.ok() || *threads == 0) {
            return Status::InvalidArgument("THREADS needs a positive integer");
          }
          req.threads = *threads;
        } else {
          return Usage("SEAL [CANONICAL] [FULL] [THREADS <n>]");
        }
      }
      break;
    case WireVerb::kTwoBag:
      if (n != 3) return Usage("TWOBAG <i> <j>");
      req.bag_i = TextBagRef(tokens[1]);
      req.bag_j = TextBagRef(tokens[2]);
      break;
    case WireVerb::kWitness:
      req.minimal = n == 4 && tokens[3] == "MINIMAL";
      if (n != 3 && !req.minimal) return Usage("WITNESS <i> <j> [MINIMAL]");
      req.bag_i = TextBagRef(tokens[1]);
      req.bag_j = TextBagRef(tokens[2]);
      break;
    case WireVerb::kKWise: {
      if (n != 2) return Usage("KWISE <k>");
      BAGC_ASSIGN_OR_RETURN(req.k, WireParseUint(tokens[1]));
      break;
    }
    case WireVerb::kDict: {
      if (n != 3) return Usage("DICT <attribute> <count>");
      req.name = tokens[1];
      BAGC_ASSIGN_OR_RETURN(uint64_t count, WireParseUint(tokens[2]));
      for (const std::string& raw : body) {
        std::vector<std::string> value = WireTokens(raw);
        if (value.empty()) continue;  // blank / comment line
        if (value.size() != 1) {
          return Status::InvalidArgument("dictionary values are one token per line");
        }
        req.values.push_back(std::move(value[0]));
      }
      if (req.values.size() != count) {
        return Status::InvalidArgument(
            "DICT " + req.name + " declared " + std::to_string(count) +
            " values but shipped " + std::to_string(req.values.size()));
      }
      break;
    }
    case WireVerb::kLoad:
    case WireVerb::kLoadU32:
    case WireVerb::kInsert:
    case WireVerb::kDelete: {
      if (n < 3) return Usage(cmd + " <bag-name> <attribute...>");
      req.name = tokens[1];
      if (req.verb != WireVerb::kLoad) {
        req.rows.attrs.assign(tokens.begin() + 2, tokens.end());
        BAGC_RETURN_NOT_OK(DecodeTextRows(body, &req.rows));
        break;
      }
      // External tokens intern at execution, through the bag IO parser;
      // the body lines move into its block form uncopied.
      std::string header = "bag";
      for (size_t i = 2; i < n; ++i) header += " " + tokens[i];
      req.block.reserve(body.size() + 2);
      req.block.push_back(std::move(header));
      for (std::string& line : body) req.block.push_back(std::move(line));
      req.block.emplace_back("end");
      break;
    }
  }
  return req;
}

Result<WireRequest> DecodeFrameRequest(uint8_t opcode, std::string_view payload) {
  WireRequest req;
  WireCursor cur(payload);
  switch (opcode) {
    case kFrameCmd: {
      std::vector<std::string> tokens = WireTokens(payload);
      if (tokens.empty()) return Status::InvalidArgument("empty command frame");
      const std::string& cmd = tokens[0];
      if (WireCommandHasBody(cmd)) {
        // Bodies are line-framed; in binary mode they travel as frames.
        const std::string frame =
            cmd == "DICT" ? cmd : (cmd == "INSERT" || cmd == "DELETE" ? cmd : "ROWS");
        return Status::FailedPrecondition(
            cmd + " blocks are not available in binary mode; ship a " + frame +
            " frame");
      }
      return DecodeTextRequest(tokens, {});
    }
    case kFrameDict: {
      req.verb = WireVerb::kDict;
      std::string_view attr;
      uint32_t count = 0;
      if (!cur.String(&attr) || !cur.U32(&count)) {
        return Status::InvalidArgument("malformed DICT frame header");
      }
      // Text responses print these values, so they must be tokens.
      if (!WireRepresentable(attr)) {
        return Status::InvalidArgument(
            "attribute name is not representable on the wire");
      }
      req.name = attr;
      // Each value costs at least its 4-byte length prefix: the payload,
      // not the peer's claimed count, bounds the reservation.
      req.values.reserve(std::min<size_t>(count, cur.remaining() / 4));
      for (uint32_t v = 0; v < count; ++v) {
        std::string_view value;
        if (!cur.String(&value)) {
          return Status::InvalidArgument(
              "DICT frame declared " + std::to_string(count) +
              " values but carries " + std::to_string(v));
        }
        if (!WireRepresentable(value)) {
          return Status::InvalidArgument("value '" + std::string(value) +
                                         "' is not representable on the wire");
        }
        req.values.emplace_back(value);
      }
      if (!cur.AtEnd()) return Status::InvalidArgument("trailing bytes in DICT frame");
      return req;
    }
    case kFrameRows:
      req.verb = WireVerb::kLoadU32;
      BAGC_RETURN_NOT_OK(DecodeFrameRows("ROWS", &cur, &req));
      return req;
    case kFrameInsert:
    case kFrameDelete:
      req.verb = opcode == kFrameInsert ? WireVerb::kInsert : WireVerb::kDelete;
      BAGC_RETURN_NOT_OK(DecodeFrameRows(WireVerbName(req.verb), &cur, &req));
      return req;
    case kFrameTwoBag:
    case kFrameWitness: {
      req.verb = opcode == kFrameTwoBag ? WireVerb::kTwoBag : WireVerb::kWitness;
      uint32_t i = 0, j = 0;
      uint8_t minimal = 0;
      bool ok = cur.U32(&i) && cur.U32(&j);
      if (opcode == kFrameTwoBag && !(ok && cur.AtEnd())) {
        return Status::InvalidArgument("TWOBAG frame carries u32 i, u32 j");
      }
      if (opcode == kFrameWitness &&
          !(ok && cur.U8(&minimal) && cur.AtEnd() && minimal <= 1)) {
        return Status::InvalidArgument(
            "WITNESS frame carries u32 i, u32 j, u8 minimal");
      }
      req.bag_i.index = i;
      req.bag_j.index = j;
      req.minimal = minimal == 1;
      return req;
    }
    case kFrameKWise: {
      uint32_t k = 0;
      if (!cur.U32(&k) || !cur.AtEnd()) {
        return Status::InvalidArgument("KWISE frame carries u32 k");
      }
      req.verb = WireVerb::kKWise;
      req.k = k;
      return req;
    }
    case kFramePairwise:
      req.verb = WireVerb::kPairwise;
      break;
    case kFrameGlobal:
      req.verb = WireVerb::kGlobal;
      break;
    case kFrameBegin:
      req.verb = WireVerb::kBegin;
      break;
    case kFrameCommit:
      req.verb = WireVerb::kCommit;
      break;
    default:
      // The frame boundary is still known, so the stream can continue.
      return Status::InvalidArgument("unknown frame opcode " +
                                     std::to_string(opcode));
  }
  // Only the empty-payload opcodes reach here.
  if (!payload.empty()) {
    return Status::InvalidArgument(std::string(WireVerbName(req.verb)) +
                                   " frame carries no payload");
  }
  return req;
}

std::string EncodeTextRequest(const WireRequest& request) {
  std::string out = TextCommandLine(request);
  out += '\n';
  switch (request.verb) {
    case WireVerb::kDict:
      for (const std::string& value : request.values) out += value + '\n';
      break;
    case WireVerb::kLoad:
      for (size_t i = 1; i + 1 < request.block.size(); ++i) {
        out += request.block[i] + '\n';
      }
      break;
    case WireVerb::kLoadU32:
    case WireVerb::kInsert:
    case WireVerb::kDelete: {
      const WireRowBlock& rows = request.rows;
      const size_t arity = rows.attrs.size();
      for (size_t r = 0; r < rows.counts.size(); ++r) {
        for (size_t c = 0; c < arity; ++c) {
          out += std::to_string(rows.ids[r * arity + c]) + ' ';
        }
        out += ": " + std::to_string(rows.counts[r]) + '\n';
      }
      break;
    }
    default:
      return out;
  }
  out += kWireEnd;
  out += '\n';
  return out;
}

Result<std::string> EncodeFrameRequest(const WireRequest& request) {
  const WireBagRef& i = request.bag_i;
  const WireBagRef& j = request.bag_j;
  constexpr uint64_t kU32Max = std::numeric_limits<uint32_t>::max();
  const bool u32_refs = i.name.empty() && j.name.empty() && i.index <= kU32Max &&
                        j.index <= kU32Max;
  uint8_t opcode = kFrameCmd;
  std::string payload;
  switch (request.verb) {
    case WireVerb::kLoad:
      return Status::FailedPrecondition(
          "LOAD blocks require text mode; stream u32 rows (LOADU32) in binary "
          "mode");
    case WireVerb::kDict:
      opcode = kFrameDict;
      WireAppendString(&payload, request.name);
      WireAppendU32(&payload, static_cast<uint32_t>(request.values.size()));
      for (const std::string& value : request.values) {
        WireAppendString(&payload, value);
      }
      break;
    case WireVerb::kLoadU32:
    case WireVerb::kInsert:
    case WireVerb::kDelete: {
      opcode = request.verb == WireVerb::kLoadU32  ? kFrameRows
               : request.verb == WireVerb::kInsert ? kFrameInsert
                                                   : kFrameDelete;
      const WireRowBlock& rows = request.rows;
      const size_t arity = rows.attrs.size();
      payload.reserve(64 + rows.counts.size() * (arity * 4 + 8));
      WireAppendString(&payload, request.name);
      WireAppendU32(&payload, static_cast<uint32_t>(arity));
      for (const std::string& attr : rows.attrs) WireAppendString(&payload, attr);
      WireAppendU64(&payload, rows.counts.size());
      for (size_t r = 0; r < rows.counts.size(); ++r) {
        for (size_t c = 0; c < arity; ++c) {
          WireAppendU32(&payload, rows.ids[r * arity + c]);
        }
        WireAppendU64(&payload, rows.counts[r]);
      }
      break;
    }
    case WireVerb::kBegin:
      opcode = kFrameBegin;
      break;
    case WireVerb::kCommit:
      opcode = kFrameCommit;
      break;
    case WireVerb::kPairwise:
      opcode = kFramePairwise;
      break;
    case WireVerb::kGlobal:
      opcode = kFrameGlobal;
      break;
    case WireVerb::kKWise:
      if (request.k <= kU32Max) {
        opcode = kFrameKWise;
        WireAppendU32(&payload, static_cast<uint32_t>(request.k));
      }
      break;
    case WireVerb::kTwoBag:
    case WireVerb::kWitness:
      if (u32_refs) {
        opcode = request.verb == WireVerb::kTwoBag ? kFrameTwoBag : kFrameWitness;
        WireAppendU32(&payload, static_cast<uint32_t>(i.index));
        WireAppendU32(&payload, static_cast<uint32_t>(j.index));
        if (opcode == kFrameWitness) payload.push_back(request.minimal ? '\1' : '\0');
      }
      break;
    default:
      break;
  }
  if (opcode == kFrameCmd) payload = TextCommandLine(request);
  std::string frame;
  WireAppendFrame(&frame, opcode, payload);
  return frame;
}

}  // namespace bagc
