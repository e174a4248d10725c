#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "server/protocol.h"

namespace bagc {

namespace {

// MSG_NOSIGNAL: a vanished server must come back as an error Status, not
// a SIGPIPE that kills the client process.
Status WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send(): ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

// The wire format reserves '#' (comment to end of line) and whitespace
// (token separators) in every position, so a value containing them would
// be silently truncated or split server-side — the one corruption the
// receiver cannot detect (the framing still parses). Refuse to send it.
Status ValidateWireValue(const std::string& value) {
  if (!WireRepresentable(value)) {
    return Status::InvalidArgument(
        "value '" + value +
        "' is not representable on the wire (empty, or contains '#' or "
        "whitespace)");
  }
  return Status::OK();
}

// "OK ..." passes through; "ERR ..." (or anything else) becomes an error
// Status carrying the server's line.
Status ExpectOk(const std::vector<std::string>& response) {
  if (!response.empty() && response.front().rfind("OK", 0) == 0) {
    return Status::OK();
  }
  return Status::Internal("server said: " +
                          (response.empty() ? "<nothing>" : response.front()));
}

// "OK CONSISTENT" or "OK INCONSISTENT <index...>" as (consistent,
// indices).
Result<std::pair<bool, std::vector<size_t>>> DecodeVerdict(
    const std::vector<std::string>& response) {
  BAGC_RETURN_NOT_OK(ExpectOk(response));
  std::vector<std::string> tokens = WireTokens(response.front());
  bool consistent = tokens.size() == 2 && tokens[1] == "CONSISTENT";
  if (!consistent && (tokens.size() < 2 || tokens[1] != "INCONSISTENT")) {
    return Status::Internal("bad verdict response: '" + response.front() + "'");
  }
  std::vector<size_t> indices;
  for (size_t t = 2; t < tokens.size(); ++t) {
    BAGC_ASSIGN_OR_RETURN(uint64_t index, WireParseUint(tokens[t]));
    indices.push_back(static_cast<size_t>(index));
  }
  return std::make_pair(consistent, std::move(indices));
}

WireRequest Request(WireVerb verb, size_t i = 0, size_t j = 0) {
  WireRequest request;
  request.verb = verb;
  request.bag_i.index = i;
  request.bag_j.index = j;
  return request;
}

}  // namespace

Result<BagcdClient> BagcdClient::Connect(const std::string& host, uint16_t port) {
  BagcdClient client;
  client.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client.fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad address '" + host + "'");
  }
  if (::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal("connect(" + host + ":" + std::to_string(port) +
                            "): " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(client.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  BAGC_ASSIGN_OR_RETURN(client.banner_, client.ReadLine());
  if (client.banner_.rfind("BAGCD ", 0) != 0) {
    return Status::Internal("unexpected banner: '" + client.banner_ + "'");
  }
  return client;
}

BagcdClient::BagcdClient(BagcdClient&& other) noexcept
    : fd_(other.fd_),
      banner_(std::move(other.banner_)),
      inbuf_(std::move(other.inbuf_)),
      binary_(other.binary_),
      shipped_(std::move(other.shipped_)) {
  other.fd_ = -1;
}

BagcdClient& BagcdClient::operator=(BagcdClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    banner_ = std::move(other.banner_);
    inbuf_ = std::move(other.inbuf_);
    binary_ = other.binary_;
    shipped_ = std::move(other.shipped_);
    other.fd_ = -1;
  }
  return *this;
}

BagcdClient::~BagcdClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status BagcdClient::SendLine(const std::string& line) {
  return WriteAll(fd_, line + "\n");
}

Result<std::string> BagcdClient::ReadLine() {
  while (true) {
    size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = inbuf_.substr(0, nl);
      inbuf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Internal(std::string("read(): ") + std::strerror(errno));
    }
    if (n == 0) return Status::Internal("server closed the connection");
    inbuf_.append(chunk, static_cast<size_t>(n));
  }
}

Result<std::pair<uint8_t, std::string>> BagcdClient::ReadFrame() {
  while (true) {
    if (inbuf_.size() >= kWireFrameHeaderBytes) {
      WireCursor header(std::string_view(inbuf_).substr(0, kWireFrameHeaderBytes));
      uint32_t payload_len = 0;
      uint8_t opcode = 0;
      header.U32(&payload_len);
      header.U8(&opcode);
      if (payload_len > kWireMaxFramePayload) {
        return Status::Internal("server frame payload of " +
                                std::to_string(payload_len) +
                                " bytes exceeds the frame ceiling");
      }
      if (inbuf_.size() >= kWireFrameHeaderBytes + payload_len) {
        std::string payload =
            inbuf_.substr(kWireFrameHeaderBytes, payload_len);
        inbuf_.erase(0, kWireFrameHeaderBytes + payload_len);
        return std::make_pair(opcode, std::move(payload));
      }
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Internal(std::string("read(): ") + std::strerror(errno));
    }
    if (n == 0) return Status::Internal("server closed the connection");
    inbuf_.append(chunk, static_cast<size_t>(n));
  }
}

Result<std::vector<std::string>> FrameToLines(uint8_t opcode,
                                              const std::string& payload) {
  // Mirrors the server's TextSink rendering exactly, so a script driven
  // through the binary framing yields byte-identical response lines.
  WireCursor cur(payload);
  std::vector<std::string> lines;
  switch (opcode) {
    case kFrameOk:
      lines.push_back("OK " + payload);
      return lines;
    case kFrameErr: {
      uint8_t tag = 0;
      if (!cur.U8(&tag)) return Status::Internal("malformed Err frame");
      BAGC_ASSIGN_OR_RETURN(WireError error, WireErrorFromTag(tag));
      lines.push_back(WireErrLine(error, payload.substr(1)));
      return lines;
    }
    case kFrameVerdict: {
      uint8_t consistent = 0;
      uint32_t n = 0;
      if (!cur.U8(&consistent) || !cur.U32(&n)) {
        return Status::Internal("malformed Verdict frame");
      }
      std::string line = consistent ? "OK CONSISTENT" : "OK INCONSISTENT";
      for (uint32_t t = 0; t < n; ++t) {
        uint32_t index = 0;
        if (!cur.U32(&index)) return Status::Internal("malformed Verdict frame");
        line += " " + std::to_string(index);
      }
      if (!cur.AtEnd()) return Status::Internal("malformed Verdict frame");
      lines.push_back(std::move(line));
      return lines;
    }
    case kFrameWitnessBag: {
      uint8_t present = 0;
      if (!cur.U8(&present)) return Status::Internal("malformed Witness frame");
      if (present == 0) {
        if (!cur.AtEnd()) return Status::Internal("malformed Witness frame");
        lines.push_back("OK NONE");
        return lines;
      }
      uint32_t arity = 0;
      if (!cur.U32(&arity)) return Status::Internal("malformed Witness frame");
      std::string header = "bag";
      for (uint32_t c = 0; c < arity; ++c) {
        std::string_view name;
        if (!cur.String(&name)) return Status::Internal("malformed Witness frame");
        header += " " + std::string(name);
      }
      uint64_t nrows = 0;
      if (!cur.U64(&nrows)) return Status::Internal("malformed Witness frame");
      lines.push_back("OK WITNESS " + std::to_string(nrows));
      lines.push_back(std::move(header));
      for (uint64_t r = 0; r < nrows; ++r) {
        std::string row;
        for (uint32_t c = 0; c < arity; ++c) {
          std::string_view value;
          if (!cur.String(&value)) {
            return Status::Internal("malformed Witness frame");
          }
          row += std::string(value) + " ";
        }
        uint64_t mult = 0;
        if (!cur.U64(&mult)) return Status::Internal("malformed Witness frame");
        row += ": " + std::to_string(mult);
        lines.push_back(std::move(row));
      }
      if (!cur.AtEnd()) return Status::Internal("malformed Witness frame");
      lines.emplace_back("end");
      lines.emplace_back(kWireEnd);
      return lines;
    }
    case kFrameStats: {
      uint32_t n = 0;
      if (!cur.U32(&n)) return Status::Internal("malformed Stats frame");
      lines.push_back("OK STATS");
      for (uint32_t t = 0; t < n; ++t) {
        std::string_view key;
        uint64_t value = 0;
        if (!cur.String(&key) || !cur.U64(&value)) {
          return Status::Internal("malformed Stats frame");
        }
        lines.push_back(std::string(key) + " " + std::to_string(value));
      }
      if (!cur.AtEnd()) return Status::Internal("malformed Stats frame");
      lines.emplace_back(kWireEnd);
      return lines;
    }
    default:
      return Status::Internal("unexpected server frame opcode " +
                              std::to_string(opcode));
  }
}

Result<std::vector<std::string>> BagcdClient::ReadResponse() {
  if (binary_) {
    BAGC_ASSIGN_OR_RETURN(auto frame, ReadFrame());
    // CMD TEXT's Ok frame is the last frame on the wire: the connection
    // is line-oriented again from the next byte.
    if (frame.first == kFrameOk && frame.second == "TEXT") binary_ = false;
    return FrameToLines(frame.first, frame.second);
  }
  std::vector<std::string> response;
  BAGC_ASSIGN_OR_RETURN(std::string line, ReadLine());
  bool body = WireResponseHasBody(line);
  response.push_back(std::move(line));
  while (body) {
    BAGC_ASSIGN_OR_RETURN(line, ReadLine());
    body = line != kWireEnd;
    response.push_back(std::move(line));
  }
  // The upgrade's OK is the last text line: frames follow.
  if (response.front() == "OK UPGRADE BINARY") binary_ = true;
  return response;
}

Result<std::vector<std::string>> BagcdClient::Command(
    const std::string& command, const std::vector<std::string>& body) {
  std::vector<std::string> tokens = WireTokens(command);
  bool has_body = !tokens.empty() && WireCommandHasBody(tokens[0]);
  if (!has_body && !body.empty()) {
    return Status::InvalidArgument("command '" + command + "' takes no body");
  }
  std::string request;
  if (binary_) {
    if (has_body) {
      return Status::InvalidArgument(
          "command '" + command +
          "' carries a body; ship a DICT/ROWS frame in binary mode");
    }
    WireAppendFrame(&request, kFrameCmd, command);
  } else {
    request = command + "\n";
    if (has_body) {
      for (const std::string& line : body) request += line + "\n";
      request += std::string(kWireEnd) + "\n";
    }
  }
  BAGC_RETURN_NOT_OK(WriteAll(fd_, request));
  return ReadResponse();
}

Result<std::vector<std::string>> BagcdClient::Call(const WireRequest& request) {
  std::string bytes;
  if (binary_) {
    BAGC_ASSIGN_OR_RETURN(bytes, EncodeFrameRequest(request));
  } else {
    bytes = EncodeTextRequest(request);
  }
  BAGC_RETURN_NOT_OK(WriteAll(fd_, bytes));
  return ReadResponse();
}

Status BagcdClient::CallOk(const WireRequest& request) {
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response, Call(request));
  return ExpectOk(response);
}

Result<std::pair<int, int>> BagcdClient::Hello() {
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response,
                        Call(Request(WireVerb::kHello)));
  BAGC_RETURN_NOT_OK(ExpectOk(response));
  std::vector<std::string> tokens = WireTokens(response.front());
  if (tokens.size() != 6 || tokens[1] != "HELLO" || tokens[2] != "proto" ||
      tokens[4] != "frames") {
    return Status::Internal("bad HELLO response: '" + response.front() + "'");
  }
  BAGC_ASSIGN_OR_RETURN(uint64_t proto, WireParseUint(tokens[3]));
  BAGC_ASSIGN_OR_RETURN(uint64_t frames, WireParseUint(tokens[5]));
  return std::make_pair(static_cast<int>(proto), static_cast<int>(frames));
}

Status BagcdClient::UpgradeBinary() {
  if (binary_) return Status::OK();
  return CallOk(Request(WireVerb::kUpgrade));  // ReadResponse flips binary_
}

Status BagcdClient::DowngradeText() {
  if (!binary_) return Status::OK();
  return CallOk(Request(WireVerb::kText));  // ReadResponse flips binary_
}

Status BagcdClient::ShipDictionaries(const DictionarySet& dicts,
                                     const Schema& schema,
                                     const AttributeCatalog& catalog) {
  for (AttrId attr : schema.attrs()) {
    bool already = false;
    for (AttrId s : shipped_) already = already || s == attr;
    if (already) continue;
    const ValueDictionary* dict = dicts.find_dict(attr);
    if (dict == nullptr) continue;  // nothing to ship for this attribute
    for (const std::string& value : dict->externals()) {
      BAGC_RETURN_NOT_OK(ValidateWireValue(value));
    }
    WireRequest request;
    request.verb = WireVerb::kDict;
    request.name = catalog.Name(attr);
    request.values = dict->externals();
    BAGC_RETURN_NOT_OK(CallOk(request));
    shipped_.push_back(attr);
  }
  return Status::OK();
}

Status BagcdClient::LoadBagU32(const std::string& name, const Bag& bag,
                               const AttributeCatalog& catalog) {
  const Schema& schema = bag.schema();
  WireRequest request;
  request.verb = WireVerb::kLoadU32;
  request.name = name;
  WireRowBlock& rows = request.rows;
  for (AttrId attr : schema.attrs()) rows.attrs.push_back(catalog.Name(attr));
  rows.ids.reserve(bag.SupportSize() * schema.arity());
  rows.counts.reserve(bag.SupportSize());
  for (size_t e = 0; e < bag.SupportSize(); ++e) {
    for (size_t i = 0; i < schema.arity(); ++i) rows.ids.push_back(bag.IdAt(e, i));
    rows.counts.push_back(bag.MultiplicityAt(e));
  }
  return CallOk(request);
}

Status BagcdClient::LoadBagText(const std::string& name, const Bag& bag,
                                const AttributeCatalog& catalog,
                                const DictionarySet& dicts) {
  WireRequest request;
  request.verb = WireVerb::kLoad;
  request.name = name;
  std::string header = "bag";
  for (AttrId attr : bag.schema().attrs()) header += " " + catalog.Name(attr);
  request.block.reserve(bag.SupportSize() + 2);
  request.block.push_back(std::move(header));
  for (size_t e = 0; e < bag.SupportSize(); ++e) {
    BAGC_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                          dicts.DecodeRow(bag.schema(), bag.RowAt(e)));
    std::string row;
    for (const std::string& token : tokens) {
      BAGC_RETURN_NOT_OK(ValidateWireValue(token));
      row += token + " ";
    }
    row += ": " + std::to_string(bag.MultiplicityAt(e));
    request.block.push_back(std::move(row));
  }
  request.block.emplace_back("end");
  return CallOk(request);
}

Result<size_t> BagcdClient::Seal(bool canonical, size_t threads) {
  WireRequest request;
  request.verb = WireVerb::kSeal;
  request.canonical = canonical;
  request.threads = threads > 1 ? threads : 1;
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response, Call(request));
  BAGC_RETURN_NOT_OK(ExpectOk(response));
  // "OK SEAL <m> bags", plus " <r> reused" after an incremental seal.
  std::vector<std::string> tokens = WireTokens(response.front());
  if ((tokens.size() != 4 && tokens.size() != 6) || tokens[1] != "SEAL") {
    return Status::Internal("bad SEAL response: '" + response.front() + "'");
  }
  BAGC_ASSIGN_OR_RETURN(uint64_t bags, WireParseUint(tokens[2]));
  return static_cast<size_t>(bags);
}

Result<bool> BagcdClient::TwoBag(size_t i, size_t j) {
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response,
                        Call(Request(WireVerb::kTwoBag, i, j)));
  BAGC_ASSIGN_OR_RETURN(auto verdict, DecodeVerdict(response));
  return verdict.first;
}

Result<std::optional<std::pair<size_t, size_t>>> BagcdClient::Pairwise() {
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response,
                        Call(Request(WireVerb::kPairwise)));
  BAGC_ASSIGN_OR_RETURN(auto verdict, DecodeVerdict(response));
  if (verdict.first) return std::optional<std::pair<size_t, size_t>>();
  if (verdict.second.size() != 2) {
    return Status::Internal("bad PAIRWISE response: '" + response.front() + "'");
  }
  return std::optional<std::pair<size_t, size_t>>(
      std::make_pair(verdict.second[0], verdict.second[1]));
}

Result<bool> BagcdClient::Global() {
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response,
                        Call(Request(WireVerb::kGlobal)));
  BAGC_ASSIGN_OR_RETURN(auto verdict, DecodeVerdict(response));
  return verdict.first;
}

Result<std::optional<std::vector<size_t>>> BagcdClient::KWise(size_t k) {
  WireRequest request = Request(WireVerb::kKWise);
  request.k = k;
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response, Call(request));
  BAGC_ASSIGN_OR_RETURN(auto verdict, DecodeVerdict(response));
  if (verdict.first) return std::optional<std::vector<size_t>>();
  return std::optional<std::vector<size_t>>(std::move(verdict.second));
}

Result<std::optional<std::vector<std::string>>> BagcdClient::Witness(
    size_t i, size_t j, bool minimal) {
  WireRequest request = Request(WireVerb::kWitness, i, j);
  request.minimal = minimal;
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response, Call(request));
  BAGC_RETURN_NOT_OK(ExpectOk(response));
  if (response.front() == "OK NONE") {
    return std::optional<std::vector<std::string>>();
  }
  if (response.front().rfind("OK WITNESS", 0) != 0 || response.size() < 2 ||
      response.back() != kWireEnd) {
    return Status::Internal("bad WITNESS response: '" + response.front() + "'");
  }
  // The bag block between the OK line and END.
  return std::optional<std::vector<std::string>>(std::vector<std::string>(
      response.begin() + 1, response.end() - 1));
}

namespace {

// One C:/S: block. `start_line` is 1-based, for error reporting.
struct TranscriptBlock {
  std::vector<std::string> lines;
  size_t start_line = 1;
};

std::vector<TranscriptBlock> ExtractBlocks(const std::string& text) {
  std::vector<std::string> lines;
  {
    std::istringstream iss(text);
    std::string line;
    while (std::getline(iss, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
    }
  }
  std::vector<TranscriptBlock> blocks;
  bool in_fence = false;
  bool saw_fence = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!in_fence && lines[i].rfind("```transcript", 0) == 0) {
      in_fence = true;
      saw_fence = true;
      blocks.push_back({{}, i + 2});
      continue;
    }
    if (in_fence && lines[i].rfind("```", 0) == 0) {
      in_fence = false;
      continue;
    }
    if (in_fence) blocks.back().lines.push_back(lines[i]);
  }
  if (!saw_fence) {
    // A raw transcript file: the whole text is one block.
    blocks.push_back({std::move(lines), 1});
  }
  return blocks;
}

}  // namespace

Result<size_t> ReplayTranscript(const std::string& host, uint16_t port,
                                const std::string& text) {
  std::vector<TranscriptBlock> blocks = ExtractBlocks(text);
  size_t replayed = 0;
  for (const TranscriptBlock& block : blocks) {
    if (block.lines.empty()) continue;
    BAGC_ASSIGN_OR_RETURN(BagcdClient client, BagcdClient::Connect(host, port));
    bool banner_pending = true;
    for (size_t i = 0; i < block.lines.size(); ++i) {
      const std::string& line = block.lines[i];
      std::string at = "transcript line " + std::to_string(block.start_line + i);
      // Payload is everything after the marker, minus one optional
      // separating space ("C: QUIT" and "C:QUIT" both mean QUIT).
      auto payload_of = [](const std::string& marked) {
        std::string payload = marked.substr(2);
        if (!payload.empty() && payload.front() == ' ') payload.erase(0, 1);
        return payload;
      };
      if (line.rfind("C:", 0) == 0) {
        BAGC_RETURN_NOT_OK(client.SendLine(payload_of(line)));
      } else if (line.rfind("S:", 0) == 0) {
        std::string expected = payload_of(line);
        std::string got;
        if (banner_pending) {
          got = client.banner();
          banner_pending = false;
        } else {
          BAGC_ASSIGN_OR_RETURN(got, client.ReadLine());
        }
        if (got != expected) {
          // Unified-diff shape so a failing replay reads at a glance;
          // bagctl --replay prints this verbatim and exits nonzero.
          return Status::Internal(at + ": transcript mismatch\n-" + expected +
                                  "\n+" + got);
        }
      } else if (WireStrip(line).empty()) {
        continue;  // comment or blank
      } else {
        return Status::InvalidArgument(
            at + ": transcript lines must start with 'C:', 'S:', or '#'");
      }
    }
    ++replayed;
  }
  if (replayed == 0) {
    return Status::InvalidArgument("no transcript content found");
  }
  return replayed;
}

}  // namespace bagc
