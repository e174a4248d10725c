// Per-client session state machine of the bagcd protocol. A session is
// transport-agnostic: the socket layer (bagcd_server.cc), the in-process
// test harnesses, and the benchmarks feed it raw bytes (HandleData) and
// collect complete responses. The session owns the client's interning
// state — attribute catalog, live DictionarySet, loaded-but-unsealed
// bags — while every query is answered from the shared immutable
// EngineSnapshot currently published for the session's *collection*
// (ATTACH binds one; "default" before the first ATTACH), so N sessions
// hammer one sealed engine concurrently and a RESET or re-SEAL swaps
// generations under them without a pause. SEAL publishes into the bound
// collection's chain; when the previous generation of that chain was
// sealed by this session and only k of m bags changed since (DROP +
// re-LOAD marks a bag changed), the seal reuses the untouched bags'
// sealed state — O(k·m) marginal fills instead of O(m²) ("SEAL FULL"
// opts out).
//
// The dictionary-aware hot path: a client ships each attribute's
// dictionary once (DICT, ids 0..n-1 in shipped order), then streams u32
// id rows (LOADU32 blocks or ROWS frames) for the rest of the session.
// Those ids stay valid for the session's whole lifetime — SEAL hands the
// engine a private clone of the dictionaries (canonicalized there when
// requested), never the live set — so the server does no string
// interning, hashing, or comparison on the streaming path: both framings
// ingest through BagFromU32Columns (bag/bag_io.h).
//
// Framing: a session starts in text mode (lines). "UPGRADE BINARY"
// switches both directions to the length-prefixed frames of
// server/protocol.h after the OK response; a CMD frame carrying "TEXT"
// switches back after its OK frame. Each complete request — a command
// line with its body, or one frame — is decoded into a WireRequest
// (DecodeTextRequest / DecodeFrameRequest) and run by Execute, which
// holds the only verb dispatch, the transaction gate, and the query
// path; Execute answers through a ResponseSink, whose text encoder
// (byte-identical to protocol v1 — the docs/PROTOCOL.md transcripts pin
// it) and binary encoder are the only framing-specific response code.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bag/bag.h"
#include "server/collection_registry.h"
#include "server/engine_snapshot.h"
#include "server/protocol.h"
#include "tuple/attribute.h"
#include "tuple/value_dictionary.h"
#include "util/thread_pool.h"

namespace bagc {

/// \brief One client's protocol state machine.
///
/// Not thread-safe in itself (one connection = one session = one feeder
/// thread); cross-session concurrency happens in the shared registry and
/// snapshots.
class ServerSession {
 public:
  /// What the transport should do after handled input.
  enum class Outcome {
    kContinue,        ///< keep reading
    kCloseConnection, ///< QUIT / framing abuse: flush responses, close
    kShutdownServer,  ///< SHUTDOWN: flush, close, stop the whole server
  };

  /// Response encoder: one implementation per framing. Handlers call
  /// exactly one sink method per request (plus ErrStatus helpers), so
  /// text and binary responses stay semantically identical by
  /// construction.
  class ResponseSink {
   public:
    virtual ~ResponseSink() = default;
    /// Success line sans the "OK " prefix ("SEAL 2 bags", "BYE", ...).
    virtual void Ok(const std::string& rest) = 0;
    virtual void Err(WireError error, const std::string& message) = 0;
    /// Consistency verdict; `indices` are the failing bag indices
    /// (empty for TWOBAG/GLOBAL, the pair for PAIRWISE, the subset for
    /// KWISE).
    virtual void Verdict(bool consistent, const std::vector<size_t>& indices) = 0;
    virtual void WitnessNone() = 0;
    virtual void WitnessBag(const Bag& bag, const EngineSnapshot& snapshot) = 0;
    virtual void Stats(const std::vector<std::pair<std::string, uint64_t>>& kv) = 0;

    void ErrStatus(const Status& status) {
      Err(WireErrorForStatus(status), status.message());
    }
  };

  /// `registry` must outlive the session. `query_pool` is the server's
  /// shared fan-out pool for query evaluation; nullptr answers queries
  /// inline on the transport thread. The session starts bound to the
  /// registry's "default" collection.
  ServerSession(CollectionRegistry* registry, ThreadPool* query_pool);
  ~ServerSession();

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Feeds raw transport bytes. Complete requests (text lines or binary
  /// frames, per the current mode) are handled; a trailing partial stays
  /// buffered for the next call. Responses — text lines with '\n', or
  /// binary frames — are appended to *out ready to write to the peer.
  /// Enforces the text line-length and binary frame-payload ceilings
  /// (overflow answers E_RANGE and closes). Stop feeding once a non-
  /// kContinue outcome is returned.
  Outcome HandleData(std::string_view data, std::string* out);

  /// Convenience for tests and benchmarks: feeds `text` (a text-mode
  /// script; a missing final newline is supplied) through HandleData and
  /// returns the response lines.
  std::vector<std::string> HandleScript(const std::string& text);

  /// True after a successful UPGRADE BINARY (and before a CMD "TEXT").
  bool binary_mode() const { return mode_ == Mode::kBinary; }

  /// Test hook: shrink the cumulative BEGIN/COMMIT caps so the refusal
  /// path is reachable without buffering millions of rows. 0 keeps the
  /// built-in cap (kMaxTxnRows / kMaxTxnWalBytes).
  void SetTxnCapsForTest(size_t rows, size_t wal_bytes) {
    txn_row_cap_for_test_ = rows;
    txn_byte_cap_for_test_ = wal_bytes;
  }

 private:
  enum class Mode { kText, kBinary };

  // Runs one decoded request: the transaction gate, then the verb.
  Outcome Execute(const WireRequest& request, ResponseSink* sink);

  void LoadDict(const WireRequest& request, ResponseSink* sink);
  // LOAD (external tokens, interned) and LOADU32 (ids, validated).
  void LoadBag(const WireRequest& request, ResponseSink* sink);
  void LoadSeg(const std::string& path, ResponseSink* sink);
  // INSERT/DELETE: validates the row block against the loaded bag and
  // the dictionaries, then buffers it (open transaction) or commits it.
  void Mutate(const WireRequest& request, ResponseSink* sink);

  // Shared INSERT/DELETE commit: applies the signed rows to the loaded
  // bag and — when the bound collection currently serves a generation
  // this session sealed and nothing else changed — derives and publishes
  // the next generation incrementally (EngineSnapshot::BuildDelta,
  // untouched bags adopted). Without that lineage the mutation stays
  // session-local ("staged") until the next SEAL. All-or-nothing either
  // way: a DELETE below zero multiplicity answers E_RANGE with the bag,
  // the lineage, and the published generation untouched.
  void CommitDelta(size_t bag_index, bool insert, std::vector<BagDelta> deltas,
                   size_t rows, ResponseSink* sink);

  // The COMMIT core, generalizing CommitDelta to a multi-bag batch:
  // publishes the whole batch as ONE generation (and one WAL record)
  // when the lineage holds, or applies it to the loaded bags otherwise —
  // all-or-nothing across every bag either way (a failing delta in the
  // last bag leaves every bag untouched). `label` is the response prefix
  // ("COMMIT", "INSERT <name>"); its first token names the verb in
  // error messages.
  void CommitBatch(DeltaBatch batch, size_t rows, const std::string& label,
                   ResponseSink* sink);

  void Begin(ResponseSink* sink);
  void Commit(ResponseSink* sink);
  void Upgrade(ResponseSink* sink);
  void Attach(const std::string& name, ResponseSink* sink);
  void Detach(ResponseSink* sink);
  void Drop(const std::string& name, ResponseSink* sink);
  void Seal(const WireRequest& request, ResponseSink* sink);
  void Reset(bool hard, ResponseSink* sink);
  void Stats(const std::string& collection, ResponseSink* sink);

  // A query's snapshot: acquired once from the bound collection (lazily
  // reloaded after an eviction), with TWOBAG/WITNESS operands resolved
  // against that same generation into *i and *j. Emits the error and
  // returns null when the query cannot run.
  std::shared_ptr<const EngineSnapshot> PinQuery(const WireRequest& request,
                                                 size_t* i, size_t* j,
                                                 ResponseSink* sink);

  // Validates a new bag name (shape + uniqueness); emits the error and
  // returns false when unusable.
  bool CheckNewBagName(const std::string& name, ResponseSink* sink);

  // Index of the loaded bag `name`, or bag_names_.size() when absent.
  size_t FindBag(const std::string& name) const;
  // Registers a freshly loaded bag (name/bag/change-epoch in lockstep).
  void AddBag(std::string name, Bag bag);
  // Invalidates the incremental-seal linkage and the staged segment
  // reload source (any change that breaks "bags == previous seal").
  void ForgetSealLineage();

  CollectionRegistry* registry_;
  ThreadPool* query_pool_;
  // The collection SEAL/RESET/queries act on; rebound by ATTACH/DETACH.
  std::shared_ptr<CollectionRegistry::Collection> collection_;

  // Interning state: lives for the whole session (RESET keeps it; RESET
  // HARD wipes it), so streamed u32 ids stay stable across re-seals.
  AttributeCatalog catalog_;
  std::shared_ptr<DictionarySet> dicts_ = std::make_shared<DictionarySet>();

  // Loaded, not-yet-sealed bags in LOAD order (the collection order),
  // with the change epoch each was (re)loaded at — the incremental-seal
  // dirtiness marker: a bag whose epoch postdates the last seal must be
  // refilled; the rest reuse the previous generation's sealed state.
  std::vector<std::string> bag_names_;
  std::vector<Bag> bags_;
  std::vector<uint64_t> bag_epochs_;
  uint64_t epoch_counter_ = 0;

  // Incremental-seal linkage: the last generation THIS session sealed
  // into the bound collection, and the epoch/CANONICAL flag it was
  // sealed at. Cleared by RESET, ATTACH/DETACH, and canonical seals
  // (canonicalization remaps ids, so prior sealed state is unusable).
  std::shared_ptr<const EngineSnapshot> last_sealed_;
  uint64_t last_seal_epoch_ = 0;
  bool last_seal_canonical_ = false;
  // The dictionary clone the last seal was built against, shared with
  // the next generation when nothing was interned in between (session
  // dictionaries only ever grow, so an unchanged total value count means
  // unchanged content). Null after canonical seals: the engine remapped
  // that clone's ids, so it no longer matches the session's id space.
  std::shared_ptr<DictionarySet> last_seal_dicts_;

  // When every loaded bag came from one LOADSEG (and nothing was loaded
  // or dropped since), the segment path SEAL registers as the
  // collection's lazy reload source; empty otherwise.
  std::string staged_seg_path_;

  // Open BEGIN/COMMIT transaction: INSERT/DELETE deltas buffer here and
  // publish as ONE atomic generation (and one WAL record) at COMMIT.
  // Structural commands are refused while open; RESET discards it.
  // Cumulative rows and WAL-encoded bytes are capped as blocks buffer
  // (kMaxTxnRows / kMaxTxnWalBytes in session.cc), so a transaction is
  // bounded in memory and always fits one WAL record.
  bool txn_active_ = false;
  DeltaBatch txn_batch_;
  size_t txn_rows_ = 0;
  size_t txn_wal_bytes_ = 0;
  // Test overrides for the transaction caps; 0 = use the built-ins.
  size_t txn_row_cap_for_test_ = 0;
  size_t txn_byte_cap_for_test_ = 0;

  // Framing state.
  Mode mode_ = Mode::kText;
  std::string inbuf_;  // HandleData's partial line / partial frame buffer

  // In-flight text request body: the opening command's tokens (empty
  // when no body is open) and the raw body lines up to END.
  std::vector<std::string> body_header_;
  std::vector<std::string> body_lines_;
  size_t body_bytes_ = 0;       // bytes buffered in body_lines_
  bool body_overflow_ = false;  // block exceeded a body cap -> E_RANGE
};

}  // namespace bagc
