// Wire-level vocabulary of the bagcd session protocol (version 1). The
// protocol is line-oriented text over a byte stream: one command per
// line, space-separated tokens, body-carrying commands (DICT / LOAD /
// LOADU32) followed by raw lines up to a terminating "END". Responses
// are a single "OK ..." or "ERR <code> ..." line, except WITNESS and
// STATS whose OK form opens a body that also ends with "END". The
// multi-tenant verbs — ATTACH/DETACH (bind a session to a named
// collection), DROP (unload one staged bag), per-collection STATS, and
// the SEAL FULL opt-out of incremental re-seals — are additive: a v1
// client never sends them and sees byte-identical responses. The full
// grammar, the session lifecycle, and an annotated transcript live in
// docs/PROTOCOL.md — this header is the single in-code source of the
// literal strings both sides (ServerSession, BagcdClient) must agree on.
//
// A session may also negotiate the *binary framing* ("UPGRADE BINARY"):
// after the OK, both directions switch from lines to length-prefixed
// little-endian frames ([u32 payload length][u8 opcode][payload]). The
// frame vocabulary — opcodes, integer widths, payload grammars — lives
// here too, as shared append/read helpers, so the server-side encoder
// (session.cc) and the client-side decoder (client.cc) cannot drift.
// "CMD TEXT" (a kFrameCmd carrying the verb TEXT) drops back to lines.
//
// Requests in either framing decode into one typed WireRequest (the end
// of this header), so a verb's arguments and its row payload have one
// meaning whatever carried them; the session executes that request once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace bagc {

/// Protocol version spoken by this build; bumped on incompatible change.
inline constexpr int kWireProtocolVersion = 1;

/// Greeting the server writes on every fresh connection.
inline constexpr std::string_view kWireBanner = "BAGCD 1 READY";

/// Body terminator for DICT/LOAD/LOADU32 requests and WITNESS/STATS
/// responses.
inline constexpr std::string_view kWireEnd = "END";

/// Machine-readable error classes (second token of an ERR response).
enum class WireError {
  kParse,     ///< E_PARSE: malformed command, token, or block
  kState,     ///< E_STATE: command illegal in the current session state
  kRange,     ///< E_RANGE: index, id, or count outside the valid range
  kEngine,    ///< E_ENGINE: the consistency engine rejected the request
  kInternal,  ///< E_INTERNAL: server-side invariant failure
};

/// The wire token of a WireError ("E_PARSE", "E_STATE", ...).
std::string_view WireErrorCode(WireError error);

/// Formats an ERR response line: "ERR <code> <message>". The message is
/// flattened to one line (newlines become spaces; the framing is
/// line-oriented).
std::string WireErrLine(WireError error, const std::string& message);

/// Maps a Status from the engine/IO layers onto the wire error class a
/// client should see: OutOfRange -> E_RANGE, InvalidArgument -> E_PARSE,
/// FailedPrecondition/NotFound -> E_STATE, everything else -> E_ENGINE.
WireError WireErrorForStatus(const Status& status);

/// Formats the ERR line for a non-OK status.
std::string WireErrLineForStatus(const Status& status);

/// Whitespace tokenizer with '#'-to-end-of-line comment stripping — the
/// same lexical rules as the bag IO format, applied to command lines.
std::vector<std::string> WireTokens(std::string_view line);

/// Strips a trailing comment and surrounding whitespace; an empty result
/// means the line carries nothing (ignored in command position).
std::string WireStrip(const std::string& line);

/// True for commands whose request carries a body up to "END": DICT,
/// LOAD, LOADU32, INSERT, DELETE. The server always consumes the body of
/// such a command before responding, even when the header is invalid, so
/// one bad header cannot desynchronize the stream.
bool WireCommandHasBody(std::string_view command);

/// True for response first-lines that open a body up to "END":
/// "OK WITNESS ..." and "OK STATS".
bool WireResponseHasBody(const std::string& first_line);

/// Parses a non-negative integer token (no sign, no suffix).
Result<uint64_t> WireParseUint(std::string_view token);

/// True when `value` can travel as one text token: non-empty, no
/// whitespace, no '#'. Dictionary values and attribute names must be,
/// because text responses print them.
bool WireRepresentable(std::string_view value);

// ---- Binary framing ------------------------------------------------------
//
// Frame layout (both directions, after a successful "UPGRADE BINARY"):
//
//   [u32 payload_length LE][u8 opcode][payload_length bytes]
//
// Integers inside payloads are little-endian and unaligned; strings are
// length-prefixed byte sequences (no NUL, no escaping). Client->server
// opcodes are < 0x80, server->client opcodes >= 0x80.

/// Capability the server advertises in its HELLO response ("frames 1").
inline constexpr int kWireFrameVersion = 1;

/// Bytes before the payload: u32 length + u8 opcode.
inline constexpr size_t kWireFrameHeaderBytes = 5;

/// Ceiling on one frame's payload. Matches the text path's body cap: a
/// peer that claims a multi-gigabyte frame is abusing the framing and
/// the connection is dropped rather than buffered.
inline constexpr size_t kWireMaxFramePayload = size_t{1} << 28;  // 256 MiB

// Client -> server frames.
inline constexpr uint8_t kFrameCmd = 0x01;      ///< one text command line (no body)
inline constexpr uint8_t kFrameDict = 0x02;     ///< DICT block: name + values
inline constexpr uint8_t kFrameRows = 0x03;     ///< LOADU32 block: raw id rows
inline constexpr uint8_t kFrameTwoBag = 0x04;   ///< u32 i, u32 j
inline constexpr uint8_t kFramePairwise = 0x05; ///< empty payload
inline constexpr uint8_t kFrameGlobal = 0x06;   ///< empty payload
inline constexpr uint8_t kFrameKWise = 0x07;    ///< u32 k
inline constexpr uint8_t kFrameWitness = 0x08;  ///< u32 i, u32 j, u8 minimal
inline constexpr uint8_t kFrameInsert = 0x09;   ///< INSERT delta: ROWS grammar
inline constexpr uint8_t kFrameDelete = 0x0A;   ///< DELETE delta: ROWS grammar
inline constexpr uint8_t kFrameBegin = 0x0B;    ///< BEGIN: empty payload
inline constexpr uint8_t kFrameCommit = 0x0C;   ///< COMMIT: empty payload

// Server -> client frames.
inline constexpr uint8_t kFrameOk = 0x80;         ///< OK line sans "OK " prefix
inline constexpr uint8_t kFrameErr = 0x81;        ///< u8 error class + message
inline constexpr uint8_t kFrameVerdict = 0x82;    ///< u8 consistent + u32 n + n×u32
inline constexpr uint8_t kFrameWitnessBag = 0x83; ///< decoded witness rows
inline constexpr uint8_t kFrameStats = 0x84;      ///< u32 n + n×(key, u64 value)

/// The u8 payload tag of a WireError inside a kFrameErr frame, and back.
uint8_t WireErrorTag(WireError error);
Result<WireError> WireErrorFromTag(uint8_t tag);

/// Little-endian integer appenders (unaligned).
void WireAppendU16(std::string* out, uint16_t v);
void WireAppendU32(std::string* out, uint32_t v);
void WireAppendU64(std::string* out, uint64_t v);

/// Appends a length-prefixed string: u32 byte count + bytes.
void WireAppendString(std::string* out, std::string_view s);

/// Appends one complete frame (header + payload).
void WireAppendFrame(std::string* out, uint8_t opcode, std::string_view payload);

/// \brief Bounds-checked little-endian payload reader.
///
/// Every accessor returns false once the payload is exhausted (and from
/// then on — the cursor latches failed), so a decoder can parse a whole
/// grammar and check ok() once at the end.
class WireCursor {
 public:
  explicit WireCursor(std::string_view payload) : data_(payload) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  /// Reads a u32 length prefix, then that many bytes (view into payload).
  bool String(std::string_view* v);
  /// Reads exactly n raw bytes (view into payload).
  bool Bytes(size_t n, std::string_view* v);

  /// True while no read has run past the end.
  bool ok() const { return ok_; }
  /// True when the payload is fully consumed (trailing bytes are a
  /// framing error for fixed grammars).
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Typed requests ------------------------------------------------------
//
// Both framings decode into one WireRequest, which the session executes;
// text and binary differ only in these codecs. Decoding checks grammar
// (token counts, integer syntax, frame layout) and reports failures as
// statuses whose WireErrorForStatus class is the wire error. Whether a
// request is allowed, and what it does, is the session's business.

/// Every request verb, whatever framing carried it.
enum class WireVerb : uint8_t {
  kHello, kUpgrade, kText, kQuit, kShutdown,
  kDict, kLoad, kLoadU32, kLoadSeg, kDrop, kSeal, kReset, kAttach, kDetach,
  kInsert, kDelete, kBegin, kCommit, kStats,
  kTwoBag, kPairwise, kGlobal, kKWise, kWitness,
};

/// The verb's command token ("TWOBAG", "LOADU32", ...).
std::string_view WireVerbName(WireVerb verb);

/// A query's bag operand: a LOAD-order index, or a bag name when `name`
/// is non-empty. A digits-only text token is an index; frames carry
/// indices only.
struct WireBagRef {
  uint64_t index = 0;
  std::string name;
};

/// A block of u32 id rows: a bag for LOADU32 blocks and ROWS frames, a
/// delta for INSERT/DELETE (the verb gives the sign).
struct WireRowBlock {
  std::vector<std::string> attrs;  ///< column names, in wire order
  std::vector<uint32_t> ids;       ///< row-major, attrs.size() ids per row
  std::vector<uint64_t> counts;    ///< one multiplicity or delta per row
};

/// One decoded request; fields `verb` does not use stay default.
struct WireRequest {
  WireVerb verb = WireVerb::kHello;
  /// DICT attribute; LOAD/LOADU32/INSERT/DELETE/DROP bag; ATTACH or
  /// STATS collection (empty: global STATS); LOADSEG path.
  std::string name;
  WireBagRef bag_i, bag_j;  ///< TWOBAG, WITNESS
  uint64_t k = 0;           ///< KWISE
  uint64_t threads = 1;     ///< SEAL THREADS
  bool minimal = false;     ///< WITNESS ... MINIMAL
  bool canonical = false;   ///< SEAL CANONICAL
  bool full = false;        ///< SEAL FULL
  bool hard = false;        ///< RESET HARD
  std::vector<std::string> values;  ///< DICT values in id order
  /// LOAD rows as one bag IO block: "bag <attrs>", the rows, "end".
  std::vector<std::string> block;
  WireRowBlock rows;  ///< LOADU32, INSERT, DELETE
};

/// Decodes a text request from its command-line tokens (non-empty) and,
/// for the body verbs (WireCommandHasBody), its body lines without END.
Result<WireRequest> DecodeTextRequest(const std::vector<std::string>& tokens,
                                      std::vector<std::string> body);

/// Decodes one client frame. A CMD frame carries a text command line
/// without a body; the body verbs travel as DICT/ROWS/INSERT/DELETE
/// frames and are refused (E_STATE) inside CMD.
Result<WireRequest> DecodeFrameRequest(uint8_t opcode, std::string_view payload);

/// The text form of `request`: the command line and, for body verbs, the
/// body and END, each line '\n'-terminated.
std::string EncodeTextRequest(const WireRequest& request);

/// The binary form of `request`: one frame, CMD for verbs without an
/// opcode of their own (and for queries naming bags). LOAD has no frame
/// form (FailedPrecondition).
Result<std::string> EncodeFrameRequest(const WireRequest& request);

}  // namespace bagc
