// Client side of the bagcd protocol: a blocking TCP client plus typed
// helpers for the session lifecycle (ship dictionaries once, stream u32
// rows, seal, query), and the transcript replayer that both the bagctl
// CLI and the protocol conformance test use to run the annotated
// transcript in docs/PROTOCOL.md verbatim against a live server.
//
// A client starts in the text framing and may negotiate the binary
// framing (UpgradeBinary / DowngradeText). Every typed helper builds one
// WireRequest (server/protocol.h) and reads one response; only the
// request encoding and the response decoding depend on the framing, and
// binary responses decode to the exact text lines the text framing
// would have produced (FrameToLines). Callers switch framings without
// changing call sites.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bag/bag.h"
#include "server/protocol.h"
#include "tuple/attribute.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"

namespace bagc {

/// \brief One client connection to a bagcd server.
///
/// Blocking, single-threaded use; open several clients for concurrency.
class BagcdClient {
 public:
  /// Connects and consumes the server banner (available via banner()).
  static Result<BagcdClient> Connect(const std::string& host, uint16_t port);

  BagcdClient(BagcdClient&& other) noexcept;
  BagcdClient& operator=(BagcdClient&& other) noexcept;
  BagcdClient(const BagcdClient&) = delete;
  BagcdClient& operator=(const BagcdClient&) = delete;
  ~BagcdClient();

  /// The greeting line the server sent on connect ("BAGCD 1 READY").
  const std::string& banner() const { return banner_; }

  /// Sends one raw line (newline appended).
  Status SendLine(const std::string& line);

  /// Reads the next response line (without its newline).
  Result<std::string> ReadLine();

  /// One request/response round trip: sends `command` (plus `body` lines
  /// and the END terminator when non-empty), then reads the complete
  /// response — one line, or through the trailing END for WITNESS/STATS.
  /// Returns all response lines; the first is the OK/ERR line. In binary
  /// mode the command travels as a CMD frame (body-carrying commands are
  /// rejected — ship DICT/ROWS frames instead) and the response frame is
  /// re-rendered as the byte-identical text lines.
  Result<std::vector<std::string>> Command(const std::string& command,
                                           const std::vector<std::string>& body = {});

  // ---- Binary framing ------------------------------------------------------

  /// HELLO; returns the (protocol, frame) versions the server speaks.
  Result<std::pair<int, int>> Hello();

  /// UPGRADE BINARY: after the server's OK both directions switch to
  /// length-prefixed frames. Typed helpers keep working transparently.
  Status UpgradeBinary();

  /// Drops back to the text framing (CMD frame carrying "TEXT").
  Status DowngradeText();

  /// True after a successful UpgradeBinary (and before DowngradeText).
  bool binary_mode() const { return binary_; }

  /// Reads the next complete frame (opcode, payload). Binary mode only.
  Result<std::pair<uint8_t, std::string>> ReadFrame();

  // ---- Typed session helpers ----------------------------------------------

  /// Ships every dictionary of `dicts` covering `schema`'s attributes as
  /// DICT blocks (ids are preserved verbatim: block order == id order),
  /// skipping attributes already shipped over this client. Names come
  /// from `catalog`.
  Status ShipDictionaries(const DictionarySet& dicts, const Schema& schema,
                          const AttributeCatalog& catalog);

  /// Streams `bag` as a LOADU32 block of raw id rows. The bag must have
  /// been sealed through the same dictionaries this client shipped.
  Status LoadBagU32(const std::string& name, const Bag& bag,
                    const AttributeCatalog& catalog);

  /// Streams `bag` as a LOAD block of external string rows, decoding each
  /// id through `dicts` (the strings-every-query baseline path).
  Status LoadBagText(const std::string& name, const Bag& bag,
                     const AttributeCatalog& catalog, const DictionarySet& dicts);

  /// SEAL; returns the number of sealed bags.
  Result<size_t> Seal(bool canonical = false, size_t threads = 1);

  /// TWOBAG i j; true = consistent.
  Result<bool> TwoBag(size_t i, size_t j);

  /// PAIRWISE; nullopt = consistent, else the failing pair.
  Result<std::optional<std::pair<size_t, size_t>>> Pairwise();

  /// GLOBAL; true = consistent.
  Result<bool> Global();

  /// KWISE k; nullopt = consistent, else the first failing subset.
  Result<std::optional<std::vector<size_t>>> KWise(size_t k);

  /// WITNESS i j [MINIMAL]; the witness bag block's raw text lines
  /// (header/rows/end), or nullopt when the pair is inconsistent.
  Result<std::optional<std::vector<std::string>>> Witness(size_t i, size_t j,
                                                          bool minimal);

 private:
  BagcdClient() = default;

  // Sends `request` in the current framing and reads its response.
  Result<std::vector<std::string>> Call(const WireRequest& request);
  // Call, expecting an OK response.
  Status CallOk(const WireRequest& request);
  // Reads one complete response in the current framing as text lines,
  // following the framing switches UPGRADE BINARY and TEXT answer.
  Result<std::vector<std::string>> ReadResponse();

  int fd_ = -1;
  std::string banner_;
  std::string inbuf_;
  bool binary_ = false;
  std::vector<AttrId> shipped_;  // attributes already shipped as DICT blocks
};

/// Renders one server frame as the text lines the text framing produces
/// for the same response (byte-identical).
Result<std::vector<std::string>> FrameToLines(uint8_t opcode,
                                              const std::string& payload);

/// Replays a C:/S: transcript against a live server and fails on the
/// first divergence. `text` is either a raw transcript or a markdown
/// document containing ```transcript fenced blocks (docs/PROTOCOL.md);
/// each block replays over its own fresh connection, and must therefore
/// begin with the banner expectation "S: BAGCD 1 READY". Lines starting
/// with "C: " are sent verbatim; lines starting with "S: " must match
/// the next server line byte-for-byte; "#" comment and blank lines are
/// ignored. Returns the number of replayed blocks.
Result<size_t> ReplayTranscript(const std::string& host, uint16_t port,
                                const std::string& text);

}  // namespace bagc
