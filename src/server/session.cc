#include "server/session.h"

#include <algorithm>
#include <future>
#include <limits>
#include <map>
#include <utility>

#include "bag/bag_io.h"
#include "tuple/segment.h"

namespace bagc {

namespace {

// Ceiling for SEAL THREADS <n>: generous for any real host, small
// enough that thread-spawn can't exhaust process resources.
constexpr uint64_t kMaxSealThreads = 64;

// Ceilings on one buffered request body (DICT/LOAD/LOADU32 block): line
// count AND total bytes — the byte cap is what actually bounds a
// session's memory (4M near-max-length lines would otherwise buffer
// terabytes). Same hardening class as kMaxSealThreads: no single request
// may take the daemon down. Overflowing blocks answer E_RANGE.
constexpr size_t kMaxBodyLines = size_t{1} << 22;  // ~4.2M rows per block
constexpr size_t kMaxBodyBytes = size_t{1} << 28;  // 256 MiB per block

// Cumulative ceilings on ONE open BEGIN/COMMIT transaction, enforced as
// each block buffers (E_RANGE before anything is staged). The body caps
// above are per block, so without these a transaction could buffer
// unbounded INSERT/DELETE blocks — per-session memory exhaustion, and a
// COMMIT whose single WAL record over-runs kWalMaxRecordPayload. The
// byte cap counts the WAL encoding (12-byte block header + per row
// arity×u32 ids + i64 delta) and leaves headroom for the record's
// 20-byte payload header, so any transaction that buffers is guaranteed
// to journal as one record.
constexpr size_t kMaxTxnRows = kMaxBodyLines;
constexpr size_t kMaxTxnWalBytes = (size_t{kWalMaxRecordPayload}) - 64;

// Longest accepted text-mode input line. Real rows are tens of bytes; a
// peer that streams megabytes without a newline is abusing the framing,
// and the session must bound its buffering rather than grow until the
// OOM killer takes every session down.
constexpr size_t kMaxLineBytes = 1 << 20;

// Runs `fn` on the server's shared query pool (the fan-out point for
// concurrent sessions) and blocks this session until it finishes; inline
// when the server runs without a pool.
template <typename Fn>
auto RunOn(ThreadPool* pool, Fn&& fn) -> decltype(fn()) {
  if (pool == nullptr) return fn();
  using R = decltype(fn());
  auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
  std::future<R> future = task->get_future();
  pool->Submit([task] { (*task)(); });
  return future.get();
}

// The protocol-v1 text encoder. Its output is pinned byte-for-byte by
// the docs/PROTOCOL.md transcript replay — change nothing here without
// changing the transcript.
class TextSink final : public ServerSession::ResponseSink {
 public:
  explicit TextSink(std::string* out) : out_(out) {}

  void Ok(const std::string& rest) override {
    *out_ += "OK ";
    *out_ += rest;
    *out_ += '\n';
  }

  void Err(WireError error, const std::string& message) override {
    *out_ += WireErrLine(error, message);
    *out_ += '\n';
  }

  void Verdict(bool consistent, const std::vector<size_t>& indices) override {
    if (consistent) {
      *out_ += "OK CONSISTENT\n";
      return;
    }
    *out_ += "OK INCONSISTENT";
    for (size_t index : indices) *out_ += " " + std::to_string(index);
    *out_ += '\n';
  }

  void WitnessNone() override { *out_ += "OK NONE\n"; }

  void WitnessBag(const Bag& bag, const EngineSnapshot& snapshot) override {
    // The bag IO block ("bag ...", rows, "end", each '\n'-terminated) is
    // the response body as is.
    *out_ += "OK WITNESS " + std::to_string(bag.SupportSize()) + "\n";
    *out_ += snapshot.WriteBagText(bag);
    *out_ += kWireEnd;
    *out_ += '\n';
  }

  void Stats(const std::vector<std::pair<std::string, uint64_t>>& kv) override {
    *out_ += "OK STATS\n";
    for (const auto& [key, value] : kv) {
      *out_ += key + " " + std::to_string(value) + "\n";
    }
    *out_ += kWireEnd;
    *out_ += '\n';
  }

 private:
  std::string* out_;
};

// The binary encoder: one frame per response, appended straight into
// the transport's output buffer (no per-response allocation on the
// query path beyond the payload scratch).
class BinarySink final : public ServerSession::ResponseSink {
 public:
  explicit BinarySink(std::string* out) : out_(out) {}

  void Ok(const std::string& rest) override {
    WireAppendFrame(out_, kFrameOk, rest);
  }

  void Err(WireError error, const std::string& message) override {
    std::string payload;
    payload.reserve(1 + message.size());
    payload.push_back(static_cast<char>(WireErrorTag(error)));
    payload += message;
    WireAppendFrame(out_, kFrameErr, payload);
  }

  void Verdict(bool consistent, const std::vector<size_t>& indices) override {
    std::string payload;
    payload.reserve(5 + 4 * indices.size());
    payload.push_back(consistent ? '\1' : '\0');
    WireAppendU32(&payload, static_cast<uint32_t>(indices.size()));
    for (size_t index : indices) {
      WireAppendU32(&payload, static_cast<uint32_t>(index));
    }
    WireAppendFrame(out_, kFrameVerdict, payload);
  }

  void WitnessNone() override {
    WireAppendFrame(out_, kFrameWitnessBag, std::string_view("\0", 1));
  }

  void WitnessBag(const Bag& bag, const EngineSnapshot& snapshot) override {
    // Rows ship as decoded externals, exactly the values the text body
    // prints: under SEAL CANONICAL the snapshot's id space differs from
    // the session's, so raw ids would be undecodable client-side.
    const Schema& schema = bag.schema();
    const DictionarySet* dicts = snapshot.dictionaries();
    std::vector<const ValueDictionary*> slot_dict(schema.arity(), nullptr);
    for (size_t i = 0; i < schema.arity(); ++i) {
      if (dicts != nullptr) slot_dict[i] = dicts->find_dict(schema.at(i));
    }
    std::string payload;
    payload.push_back('\1');
    WireAppendU32(&payload, static_cast<uint32_t>(schema.arity()));
    for (size_t i = 0; i < schema.arity(); ++i) {
      WireAppendString(&payload, snapshot.catalog().Name(schema.at(i)));
    }
    WireAppendU64(&payload, bag.SupportSize());
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      Tuple tuple = bag.RowAt(e);  // witness decode: designated cold path
      for (size_t i = 0; i < schema.arity(); ++i) {
        const ValueDictionary* d = slot_dict[i];
        if (d != nullptr && tuple.id(i) < d->size()) {
          WireAppendString(&payload, d->ExternalOf(tuple.id(i)));
        } else {
          WireAppendString(&payload, std::to_string(tuple.at(i)));
        }
      }
      WireAppendU64(&payload, bag.MultiplicityAt(e));
    }
    WireAppendFrame(out_, kFrameWitnessBag, payload);
  }

  void Stats(const std::vector<std::pair<std::string, uint64_t>>& kv) override {
    std::string payload;
    WireAppendU32(&payload, static_cast<uint32_t>(kv.size()));
    for (const auto& [key, value] : kv) {
      WireAppendString(&payload, key);
      WireAppendU64(&payload, value);
    }
    WireAppendFrame(out_, kFrameStats, payload);
  }

 private:
  std::string* out_;
};

// Empty and all-digit names are reserved: digit tokens address bags
// (and keep STATS <collection> unambiguous) by index.
bool ReservedName(const std::string& name) {
  bool all_digits = true;
  for (char c : name) all_digits = all_digits && c >= '0' && c <= '9';
  return all_digits;
}

bool IsQuery(WireVerb verb) {
  return verb == WireVerb::kTwoBag || verb == WireVerb::kPairwise ||
         verb == WireVerb::kGlobal || verb == WireVerb::kKWise ||
         verb == WireVerb::kWitness;
}

// A transaction pins the bag set and the bound collection: only the
// delta verbs, queries, and session/framing commands run while one is
// open. RESET stays legal (it discards the transaction with everything
// else).
bool RefusedInTransaction(WireVerb verb) {
  return verb == WireVerb::kDict || verb == WireVerb::kLoad ||
         verb == WireVerb::kLoadU32 || verb == WireVerb::kLoadSeg ||
         verb == WireVerb::kDrop || verb == WireVerb::kSeal ||
         verb == WireVerb::kAttach || verb == WireVerb::kDetach;
}

// LOAD: the bag IO parser interns the external tokens.
Result<Bag> BagFromBlock(const std::vector<std::string>& block,
                         AttributeCatalog* catalog, DictionarySet* dicts) {
  size_t pos = 0;
  BAGC_ASSIGN_OR_RETURN(Bag bag, ParseBag(block, &pos, catalog, dicts));
  if (pos != block.size()) {
    // A stray lowercase "end" row terminated the block early.
    return Status::InvalidArgument(
        "unexpected content after 'end' in a row block");
  }
  return bag;
}

// LOADU32: scatters the row-major wire rows into column-major scratch so
// the columnar ingest (and its validation: dictionaries, issued ids,
// duplicate rows) runs on them directly.
Result<Bag> BagFromRows(const WireRowBlock& rows, AttributeCatalog* catalog,
                        const DictionarySet& dicts) {
  const size_t arity = rows.attrs.size();
  const size_t n = rows.counts.size();
  std::vector<ValueId> cols(arity * n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < arity; ++c) cols[c * n + r] = rows.ids[r * arity + c];
  }
  std::vector<const ValueId*> ptrs(arity);
  for (size_t c = 0; c < arity; ++c) ptrs[c] = cols.data() + c * n;
  return BagFromU32Columns(rows.attrs, ColumnView(std::move(ptrs), n),
                           rows.counts.data(), catalog, dicts);
}

}  // namespace

ServerSession::ServerSession(CollectionRegistry* registry,
                             ThreadPool* query_pool)
    : registry_(registry),
      query_pool_(query_pool),
      collection_(registry->Default()) {
  registry_->SessionOpened();
}

ServerSession::~ServerSession() { registry_->SessionClosed(); }

ServerSession::Outcome ServerSession::HandleData(std::string_view data,
                                                 std::string* out) {
  auto run = [this](Result<WireRequest> request, ResponseSink* sink) {
    if (!request.ok()) {
      sink->ErrStatus(request.status());
      return Outcome::kContinue;
    }
    return Execute(*request, sink);
  };
  inbuf_.append(data.data(), data.size());
  size_t consumed = 0;
  Outcome outcome = Outcome::kContinue;
  while (outcome == Outcome::kContinue) {
    if (mode_ == Mode::kText) {
      TextSink sink(out);
      size_t nl = inbuf_.find('\n', consumed);
      // The line-length ceiling applies whether or not the newline has
      // arrived yet: a complete over-long line (one read with a late
      // newline) is exactly as abusive as a partial one, and must not
      // slip through just because it parsed as a whole line.
      if (nl == std::string::npos ? inbuf_.size() - consumed > kMaxLineBytes
                                  : nl - consumed > kMaxLineBytes) {
        sink.Err(WireError::kRange, "input line exceeds " +
                                        std::to_string(kMaxLineBytes) + " bytes");
        outcome = Outcome::kCloseConnection;
        break;
      }
      if (nl == std::string::npos) break;
      std::string_view line(inbuf_.data() + consumed, nl - consumed);
      consumed = nl + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (body_header_.empty()) {
        std::vector<std::string> tokens = WireTokens(line);
        if (tokens.empty()) continue;  // blank / comment line
        if (WireCommandHasBody(tokens[0])) {
          // Open the body even under a bad header: it is always consumed
          // through END before the (possibly ERR) response, so a bad
          // header can never desynchronize the line stream.
          body_header_ = std::move(tokens);
          continue;
        }
        outcome = run(DecodeTextRequest(tokens, {}), &sink);
      } else if (StripCommentView(line) != kWireEnd) {
        if (body_lines_.size() >= kMaxBodyLines ||
            body_bytes_ + line.size() > kMaxBodyBytes) {
          body_overflow_ = true;  // keep consuming, stop buffering
        } else {
          body_bytes_ += line.size();
          body_lines_.emplace_back(line);
        }
      } else {
        std::vector<std::string> header = std::move(body_header_);
        std::vector<std::string> body = std::move(body_lines_);
        body_header_.clear();
        body_lines_.clear();
        body_bytes_ = 0;
        if (body_overflow_) {
          body_overflow_ = false;
          sink.Err(WireError::kRange,
                   "request body exceeds " + std::to_string(kMaxBodyLines) +
                       " lines or " + std::to_string(kMaxBodyBytes) + " bytes");
        } else {
          outcome = run(DecodeTextRequest(header, std::move(body)), &sink);
        }
      }
      // A successful UPGRADE flips mode_ mid-buffer; the loop re-checks
      // it each iteration, so bytes already received parse as frames.
    } else {
      if (inbuf_.size() - consumed < kWireFrameHeaderBytes) break;
      WireCursor header(
          std::string_view(inbuf_).substr(consumed, kWireFrameHeaderBytes));
      uint32_t payload_len = 0;
      uint8_t opcode = 0;
      header.U32(&payload_len);
      header.U8(&opcode);
      BinarySink sink(out);
      if (payload_len > kWireMaxFramePayload) {
        // No resync is possible mid-frame; refuse and close.
        sink.Err(WireError::kRange,
                 "frame payload exceeds " +
                     std::to_string(kWireMaxFramePayload) + " bytes");
        outcome = Outcome::kCloseConnection;
        break;
      }
      if (inbuf_.size() - consumed - kWireFrameHeaderBytes < payload_len) break;
      std::string_view payload(inbuf_.data() + consumed + kWireFrameHeaderBytes,
                               payload_len);
      consumed += kWireFrameHeaderBytes + payload_len;
      outcome = run(DecodeFrameRequest(opcode, payload), &sink);
    }
  }
  inbuf_.erase(0, consumed);
  return outcome;
}

std::vector<std::string> ServerSession::HandleScript(const std::string& text) {
  std::string out;
  if (HandleData(text, &out) == Outcome::kContinue && !text.empty() &&
      text.back() != '\n') {
    HandleData("\n", &out);
  }
  std::vector<std::string> lines;
  for (size_t begin = 0, nl; (nl = out.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    lines.emplace_back(out, begin, nl - begin);
  }
  return lines;
}

ServerSession::Outcome ServerSession::Execute(const WireRequest& request,
                                              ResponseSink* sink) {
  if (txn_active_ && RefusedInTransaction(request.verb)) {
    sink->Err(WireError::kState,
              std::string(WireVerbName(request.verb)) +
                  " is not allowed inside a transaction; COMMIT or RESET "
                  "first");
    return Outcome::kContinue;
  }
  std::shared_ptr<const EngineSnapshot> snapshot;
  size_t i = 0, j = 0;
  if (IsQuery(request.verb)) {
    snapshot = PinQuery(request, &i, &j, sink);
    if (snapshot == nullptr) return Outcome::kContinue;
  }
  switch (request.verb) {
    case WireVerb::kHello:
      sink->Ok("HELLO proto " + std::to_string(kWireProtocolVersion) +
               " frames " + std::to_string(kWireFrameVersion));
      break;
    case WireVerb::kUpgrade:
      Upgrade(sink);
      break;
    case WireVerb::kText:
      // Idempotent downgrade: the OK is the last frame (or a plain text
      // line when already in text mode); everything after is lines.
      sink->Ok("TEXT");
      mode_ = Mode::kText;
      break;
    case WireVerb::kQuit:
      sink->Ok("BYE");
      return Outcome::kCloseConnection;
    case WireVerb::kShutdown:
      sink->Ok("BYE");
      return Outcome::kShutdownServer;
    case WireVerb::kDict:
      LoadDict(request, sink);
      break;
    case WireVerb::kLoad:
    case WireVerb::kLoadU32:
      LoadBag(request, sink);
      break;
    case WireVerb::kLoadSeg:
      LoadSeg(request.name, sink);
      break;
    case WireVerb::kDrop:
      Drop(request.name, sink);
      break;
    case WireVerb::kSeal:
      Seal(request, sink);
      break;
    case WireVerb::kReset:
      Reset(request.hard, sink);
      break;
    case WireVerb::kAttach:
      Attach(request.name, sink);
      break;
    case WireVerb::kDetach:
      Detach(sink);
      break;
    case WireVerb::kInsert:
    case WireVerb::kDelete:
      Mutate(request, sink);
      break;
    case WireVerb::kBegin:
      Begin(sink);
      break;
    case WireVerb::kCommit:
      Commit(sink);
      break;
    case WireVerb::kStats:
      Stats(request.name, sink);
      break;
    case WireVerb::kTwoBag: {
      Result<bool> verdict =
          RunOn(query_pool_, [&] { return snapshot->TwoBag(i, j); });
      if (verdict.ok()) sink->Verdict(*verdict, {});
      else sink->ErrStatus(verdict.status());
      break;
    }
    case WireVerb::kPairwise: {
      const PairwiseVerdict& verdict = snapshot->Pairwise();  // sealed at Build
      if (verdict.consistent) {
        sink->Verdict(true, {});
      } else {
        sink->Verdict(false,
                      {verdict.witness_pair.first, verdict.witness_pair.second});
      }
      break;
    }
    case WireVerb::kGlobal: {
      Result<bool> verdict = RunOn(query_pool_, [&] { return snapshot->Global(); });
      if (verdict.ok()) sink->Verdict(*verdict, {});
      else sink->ErrStatus(verdict.status());
      break;
    }
    case WireVerb::kKWise: {
      std::optional<std::vector<size_t>> failing;
      Result<bool> verdict = RunOn(query_pool_, [&] {
        return snapshot->KWise(static_cast<size_t>(request.k), &failing);
      });
      if (!verdict.ok()) sink->ErrStatus(verdict.status());
      else if (*verdict) sink->Verdict(true, {});
      else sink->Verdict(false, *failing);
      break;
    }
    case WireVerb::kWitness: {
      Result<std::optional<Bag>> witness = RunOn(
          query_pool_, [&] { return snapshot->Witness(i, j, request.minimal); });
      if (!witness.ok()) sink->ErrStatus(witness.status());
      else if (!witness->has_value()) sink->WitnessNone();
      else sink->WitnessBag(**witness, *snapshot);
      break;
    }
  }
  return Outcome::kContinue;
}

std::shared_ptr<const EngineSnapshot> ServerSession::PinQuery(
    const WireRequest& request, size_t* i, size_t* j, ResponseSink* sink) {
  Result<std::shared_ptr<const EngineSnapshot>> snapshot =
      registry_->Acquire(collection_.get());
  if (!snapshot.ok()) {
    // Evicted with no reload source, or the segment reload failed.
    sink->ErrStatus(snapshot.status());
    return nullptr;
  }
  if (*snapshot == nullptr) {
    sink->Err(WireError::kState, "no sealed engine; SEAL a collection first");
    return nullptr;
  }
  if (request.verb == WireVerb::kTwoBag || request.verb == WireVerb::kWitness) {
    auto resolve = [&](const WireBagRef& ref) {
      return ref.name.empty() ? (*snapshot)->ResolveIndex(ref.index)
                              : (*snapshot)->ResolveBag(ref.name);
    };
    Result<size_t> ri = resolve(request.bag_i);
    Result<size_t> rj = resolve(request.bag_j);
    if (!ri.ok() || !rj.ok()) {
      sink->ErrStatus(ri.ok() ? rj.status() : ri.status());
      return nullptr;
    }
    *i = *ri;
    *j = *rj;
  }
  registry_->RecordQuery();
  return *std::move(snapshot);
}

void ServerSession::LoadDict(const WireRequest& request, ResponseSink* sink) {
  AttrId attr = catalog_.Intern(request.name);
  Status loaded = dicts_->dict(attr).BulkLoad(request.values);
  if (!loaded.ok()) {
    sink->ErrStatus(loaded);
    return;
  }
  sink->Ok("DICT " + request.name + " " + std::to_string(request.values.size()));
}

bool ServerSession::CheckNewBagName(const std::string& name,
                                    ResponseSink* sink) {
  if (ReservedName(name)) {
    sink->Err(WireError::kParse,
              "bag name '" + name +
                  "' must not be all digits (reserved for indices)");
    return false;
  }
  if (FindBag(name) != bag_names_.size()) {
    sink->Err(WireError::kState, "bag '" + name + "' is already loaded");
    return false;
  }
  return true;
}

void ServerSession::LoadBag(const WireRequest& request, ResponseSink* sink) {
  if (!CheckNewBagName(request.name, sink)) return;
  Result<Bag> bag = request.verb == WireVerb::kLoad
                        ? BagFromBlock(request.block, &catalog_, dicts_.get())
                        : BagFromRows(request.rows, &catalog_, *dicts_);
  if (!bag.ok()) {
    sink->ErrStatus(bag.status());
    return;
  }
  size_t support = bag->SupportSize();
  AddBag(request.name, std::move(bag).value());
  sink->Ok(std::string(WireVerbName(request.verb)) + " " + request.name + " " +
           std::to_string(support) + " rows");
}

void ServerSession::Mutate(const WireRequest& request, ResponseSink* sink) {
  const bool insert = request.verb == WireVerb::kInsert;
  const std::string verb(WireVerbName(request.verb));
  const size_t bag_index = FindBag(request.name);
  if (bag_index == bag_names_.size()) {
    sink->Err(WireError::kState,
              "bag '" + request.name + "' is not loaded in this session; " +
                  verb + " mutates loaded bags (LOAD, LOADU32, or LOADSEG it first)");
    return;
  }
  // The named attributes must spell exactly the bag's schema (any
  // order), and every attribute needs a dictionary (the LOADU32 rule);
  // slot_of_column[c] maps wire column c to its schema slot.
  const WireRowBlock& rows = request.rows;
  const size_t arity = rows.attrs.size();
  std::vector<AttrId> attrs;
  attrs.reserve(arity);
  for (const std::string& attr : rows.attrs) attrs.push_back(catalog_.Intern(attr));
  Schema schema{attrs};
  if (schema.arity() != arity) {
    sink->Err(WireError::kParse, "duplicate attribute in delta header");
    return;
  }
  if (schema != bags_[bag_index].schema()) {
    sink->Err(WireError::kParse, "delta attributes do not match the bag's schema");
    return;
  }
  std::vector<const ValueDictionary*> column_dict(arity);
  std::vector<size_t> slot_of_column(arity);
  for (size_t c = 0; c < arity; ++c) {
    column_dict[c] = dicts_->find_dict(attrs[c]);
    if (column_dict[c] == nullptr) {
      sink->Err(WireError::kState,
                "u32 rows require a dictionary for attribute '" + rows.attrs[c] +
                    "'; ship its DICT block first");
      return;
    }
    slot_of_column[c] = *schema.IndexOf(attrs[c]);
  }
  std::vector<BagDelta> deltas;
  deltas.reserve(rows.counts.size());
  std::vector<ValueId> row(arity);
  for (size_t r = 0; r < rows.counts.size(); ++r) {
    for (size_t c = 0; c < arity; ++c) {
      ValueId id = rows.ids[r * arity + c];
      if (id >= column_dict[c]->size()) {
        sink->Err(WireError::kRange,
                  "row id " + std::to_string(id) +
                      " was never issued for attribute '" + rows.attrs[c] +
                      "' (dictionary has " +
                      std::to_string(column_dict[c]->size()) + " values)");
        return;
      }
      row[slot_of_column[c]] = id;
    }
    const uint64_t count = rows.counts[r];
    if (count > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      sink->Err(WireError::kRange, "delta count exceeds int64");
      return;
    }
    if (count == 0) continue;  // zero rows net nothing, as in LOADU32
    int64_t amount = static_cast<int64_t>(count);
    deltas.push_back({Tuple::OfIds(row), insert ? amount : -amount});
  }
  CommitDelta(bag_index, insert, std::move(deltas), rows.counts.size(), sink);
}

void ServerSession::CommitDelta(size_t bag_index, bool insert,
                                std::vector<BagDelta> deltas, size_t rows,
                                ResponseSink* sink) {
  const std::string verb = insert ? "INSERT" : "DELETE";
  const std::string& name = bag_names_[bag_index];
  if (txn_active_) {
    // Inside BEGIN/COMMIT the delta only buffers; validation against
    // multiplicities (and publication) happens atomically at COMMIT.
    // Cumulative caps first: the body caps are per block, so only this
    // check bounds a whole transaction's memory — and guarantees the
    // batch encodes into ONE WAL record at COMMIT. A refused block
    // leaves the transaction open and untouched: COMMIT what is
    // buffered, or RESET.
    const size_t row_cap = txn_row_cap_for_test_ > 0
                               ? txn_row_cap_for_test_ : kMaxTxnRows;
    const size_t byte_cap = txn_byte_cap_for_test_ > 0
                                ? txn_byte_cap_for_test_ : kMaxTxnWalBytes;
    const size_t arity = bags_[bag_index].schema().arity();
    const size_t entry_bytes = 12 + deltas.size() * (arity * 4 + 8);
    if (txn_rows_ + rows > row_cap ||
        txn_wal_bytes_ + entry_bytes > byte_cap) {
      sink->Err(WireError::kRange,
                "transaction exceeds " + std::to_string(row_cap) +
                    " buffered rows or " + std::to_string(byte_cap) +
                    " encoded bytes; COMMIT what is buffered or RESET");
      return;
    }
    BagDeltas entry;
    entry.bag_index = bag_index;
    entry.deltas = std::move(deltas);
    txn_batch_.push_back(std::move(entry));
    txn_rows_ += rows;
    txn_wal_bytes_ += entry_bytes;
    sink->Ok(verb + " " + name + " " + std::to_string(rows) +
             " rows buffered");
    return;
  }
  DeltaBatch batch(1);
  batch[0].bag_index = bag_index;
  batch[0].deltas = std::move(deltas);
  CommitBatch(std::move(batch), rows, verb + " " + name, sink);
}

void ServerSession::CommitBatch(DeltaBatch batch, size_t rows,
                                const std::string& label, ResponseSink* sink) {
  const std::string verb = label.substr(0, label.find(' '));
  // Incremental-publish lineage: the bound collection's chain currently
  // ends in the generation this session sealed, every loaded bag is
  // bit-identical to it (epoch at or before that seal, same name), and
  // no value was interned since — the generations then share one
  // immutable dictionary clone, so the batch's ids mean the same thing
  // in both. These are the SEAL reuse conditions demanded for ALL bags:
  // the batch must be the only change the new generation carries.
  bool lineage = last_sealed_ != nullptr && !last_seal_canonical_ &&
                 last_seal_dicts_ != nullptr &&
                 last_seal_dicts_->total_size() == dicts_->total_size() &&
                 bags_.size() == last_sealed_->num_bags();
  for (size_t b = 0; lineage && b < bags_.size(); ++b) {
    lineage = bag_epochs_[b] <= last_seal_epoch_ &&
              last_sealed_->bag_name(b) == bag_names_[b];
  }
  if (lineage) {
    if (registry_->Peek(collection_.get()) == nullptr) {
      // Evicted under the memory budget: no resident generation to
      // derive from, and a delta commit must not trigger a reload (Peek
      // semantics). Retryable: any query reloads the collection from its
      // segment, or SEAL republishes it fresh.
      sink->Err(WireError::kState,
                "collection '" + collection_->name() +
                    "' is not resident; run a query (reload) or SEAL, then "
                    "retry the " +
                    verb);
      return;
    }
    DeltaOutcome outcome;
    Result<std::shared_ptr<const EngineSnapshot>> next =
        EngineSnapshot::BuildDeltaBatch(last_sealed_, batch,
                                        collection_->NextSeq(), &outcome);
    if (!next.ok()) {
      // A DELETE below zero multiplicity (E_RANGE) in ANY bag: nothing
      // was mutated or published — every loaded bag, the lineage, and
      // the served generation are all intact.
      sink->ErrStatus(next.status());
      return;
    }
    Status published =
        registry_->PublishDelta(collection_.get(), *next, batch);
    if (!published.ok()) {
      // A concurrent publication won the chain (retryable E_STATE);
      // readers are on the newer generation, this session is untouched.
      sink->ErrStatus(published);
      return;
    }
    // The session's staged copies now match the published generation, so
    // the next SEAL or delta keeps full reuse lineage.
    std::vector<size_t> mutated;
    for (const BagDeltas& bd : batch) {
      if (std::find(mutated.begin(), mutated.end(), bd.bag_index) ==
          mutated.end()) {
        mutated.push_back(bd.bag_index);
      }
    }
    for (size_t bi : mutated) {
      bags_[bi] = (*next)->engine()->collection().bag(bi);
      bag_epochs_[bi] = ++epoch_counter_;
    }
    last_sealed_ = *next;
    last_seal_epoch_ = epoch_counter_;
    // The published rows diverged from whatever segment staged them.
    staged_seg_path_.clear();
    registry_->RecordDelta();
    std::string rest = label + " " + std::to_string(rows) + " rows " +
                       std::to_string(bags_.size()) + " bags";
    size_t reused = bags_.size() - mutated.size();
    if (reused > 0) rest += " " + std::to_string(reused) + " reused";
    sink->Ok(rest);
    return;
  }
  // No publishable lineage (nothing sealed yet, canonical seal,
  // dictionary growth, or a changed bag set): mutate the loaded bags
  // only, all-or-nothing across the whole batch. Nets are merged per bag
  // first — the same netting ApplyDeltaBatch performs — so a bag listed
  // twice behaves identically on both paths. The epoch bumps mark the
  // touched bags changed, so the next SEAL refills exactly those.
  std::map<size_t, std::map<Tuple, int64_t>> nets;
  for (BagDeltas& bd : batch) {
    std::map<Tuple, int64_t>& bag_net = nets[bd.bag_index];
    for (BagDelta& d : bd.deltas) {
      int64_t& slot = bag_net[std::move(d.row)];
      if (__builtin_add_overflow(slot, d.delta, &slot)) {
        sink->Err(WireError::kRange, "delta for one row overflows int64");
        return;
      }
    }
  }
  std::map<size_t, Bag> staged;
  for (auto& [bi, bag_net] : nets) {
    std::vector<std::pair<Tuple, int64_t>> bag_deltas;
    bag_deltas.reserve(bag_net.size());
    for (auto& [row, delta] : bag_net) {
      if (delta != 0) bag_deltas.emplace_back(row, delta);
    }
    if (bag_deltas.empty()) continue;
    Bag next_bag = bags_[bi];
    Status applied = next_bag.ApplyRowDeltas(bag_deltas);
    if (!applied.ok()) {
      sink->ErrStatus(applied);  // all-or-nothing: every loaded bag intact
      return;
    }
    staged.emplace(bi, std::move(next_bag));
  }
  for (auto& [bi, bag] : staged) {
    bags_[bi] = std::move(bag);
    bag_epochs_[bi] = ++epoch_counter_;
  }
  staged_seg_path_.clear();
  registry_->RecordDelta();
  sink->Ok(label + " " + std::to_string(rows) + " rows staged");
}

void ServerSession::Begin(ResponseSink* sink) {
  if (txn_active_) {
    sink->Err(WireError::kState,
              "a transaction is already open; COMMIT or RESET first");
    return;
  }
  txn_active_ = true;
  txn_batch_.clear();
  txn_rows_ = 0;
  txn_wal_bytes_ = 0;
  sink->Ok("BEGIN");
}

void ServerSession::Commit(ResponseSink* sink) {
  if (!txn_active_) {
    sink->Err(WireError::kState, "no transaction is open; BEGIN first");
    return;
  }
  // COMMIT ends the transaction either way: on an error the batch was
  // not applied anywhere (all-or-nothing) and the client re-BEGINs.
  DeltaBatch batch = std::move(txn_batch_);
  size_t rows = txn_rows_;
  txn_active_ = false;
  txn_batch_.clear();
  txn_rows_ = 0;
  txn_wal_bytes_ = 0;
  if (batch.empty()) {
    sink->Ok("COMMIT 0 rows");
    return;
  }
  CommitBatch(std::move(batch), rows, "COMMIT", sink);
}

void ServerSession::Upgrade(ResponseSink* sink) {
  if (mode_ == Mode::kBinary) {
    sink->Err(WireError::kState, "session is already in binary mode");
    return;
  }
  // The OK is the last text line; every byte after it frames.
  sink->Ok("UPGRADE BINARY");
  mode_ = Mode::kBinary;
}

void ServerSession::LoadSeg(const std::string& path, ResponseSink* sink) {
  Result<SegmentReader> mapped = SegmentReader::Map(path);
  if (!mapped.ok()) {
    sink->ErrStatus(mapped.status());
    return;
  }
  // Shared so each borrowed bag pins the mapping: the loaded bags serve
  // the mmap'd columns in place (no row vector, no column copy) until a
  // mutation de-seals them. The reader dies with the last such bag.
  auto reader = std::make_shared<SegmentReader>(std::move(mapped).value());
  // The segment ships its own dictionaries, so the session must not
  // already hold one for any of its attributes (the same no-merge rule
  // as a second DICT block). Validate everything, and build every bag
  // against the segment's own dictionary set, BEFORE touching session
  // state: a failed LOADSEG leaves the session unchanged.
  std::vector<AttrId> attr_ids(reader->num_attrs());
  std::vector<std::vector<std::string>> attr_values(reader->num_attrs());
  DictionarySet seg_dicts;
  for (size_t a = 0; a < reader->num_attrs(); ++a) {
    std::string name(reader->attr_name(a));
    if (!WireRepresentable(name)) {
      sink->Err(WireError::kParse,
                "segment attribute name is not representable on the wire");
      return;
    }
    attr_ids[a] = catalog_.Intern(name);
    if (dicts_->find_dict(attr_ids[a]) != nullptr) {
      sink->Err(WireError::kState,
                "attribute '" + name +
                    "' already has a dictionary in this session");
      return;
    }
    attr_values[a] = reader->AttrValues(a);
    Status loaded = seg_dicts.dict(attr_ids[a]).BulkLoad(attr_values[a]);
    if (!loaded.ok()) {
      sink->ErrStatus(loaded);
      return;
    }
  }
  std::vector<std::string> new_names;
  std::vector<Bag> new_bags;
  size_t total_support = 0;
  for (size_t b = 0; b < reader->num_bags(); ++b) {
    std::string name(reader->bag_name(b));
    if (!CheckNewBagName(name, sink)) return;
    for (const std::string& prior : new_names) {
      if (prior == name) {
        sink->Err(WireError::kState,
                  "bag '" + name + "' appears twice in the segment");
        return;
      }
    }
    std::vector<std::string> col_names;
    col_names.reserve(reader->bag_arity(b));
    for (size_t c = 0; c < reader->bag_arity(b); ++c) {
      col_names.emplace_back(reader->attr_name(reader->bag_attr(b, c)));
    }
    // Zero parse, zero copy: a well-formed segment is already in sealed
    // columnar shape, so the bag borrows the mapped columns in place.
    // Segments the strict borrow validation rejects (permuted columns,
    // zero mults) fall back to the copying ingest, which re-sorts and
    // reports the precise error.
    ColumnStore columns = reader->Columns(b);
    Result<Bag> bag =
        BagBorrowU32Columns(col_names, columns.View(), reader->Mults(b),
                            &catalog_, seg_dicts, reader);
    if (!bag.ok()) {
      bag = BagFromU32Columns(col_names, columns.View(), reader->Mults(b),
                              &catalog_, seg_dicts);
    }
    if (!bag.ok()) {
      sink->ErrStatus(bag.status());
      return;
    }
    total_support += bag->SupportSize();
    new_names.push_back(std::move(name));
    new_bags.push_back(std::move(bag).value());
  }
  // Commit. Moving the validated segment dictionaries into the live set
  // hands over the exact id space the bags were built against without
  // re-hashing a single string (the target dictionaries are empty —
  // pre-checked above — so the move is the whole state).
  for (size_t a = 0; a < reader->num_attrs(); ++a) {
    dicts_->dict(attr_ids[a]) = std::move(seg_dicts.dict(attr_ids[a]));
  }
  bool was_empty = bags_.empty();
  for (size_t b = 0; b < new_names.size(); ++b) {
    AddBag(std::move(new_names[b]), std::move(new_bags[b]));
  }
  // When this segment IS the whole loaded state, a later SEAL can
  // register it as the collection's lazy reload source (a reload
  // re-derives bit-identical results); AddBag cleared any prior staging.
  if (was_empty) staged_seg_path_ = path;
  sink->Ok("LOADSEG " + std::to_string(reader->num_bags()) + " bags " +
           std::to_string(total_support) + " rows");
}

void ServerSession::Seal(const WireRequest& request, ResponseSink* sink) {
  const bool canonical = request.canonical;
  const bool full = request.full;
  // One protocol line must not be able to crash the daemon: spawning an
  // absurd worker count throws std::system_error out of std::thread and
  // terminates the process for every client.
  if (request.threads > kMaxSealThreads) {
    sink->Err(WireError::kRange,
              "THREADS must be at most " + std::to_string(kMaxSealThreads));
    return;
  }
  const size_t num_threads = static_cast<size_t>(request.threads);
  if (bags_.empty()) {
    sink->Err(WireError::kState, "no bags loaded; LOAD or LOADU32 first");
    return;
  }
  EngineSnapshot::BuildInputs inputs;
  inputs.names = bag_names_;
  inputs.bags = bags_;  // the session keeps its copies for later re-seals
  inputs.catalog = catalog_;
  // The snapshot seals through a private clone: the session's live set —
  // and every id a client has streamed or will stream — stays untouched,
  // even under CANONICAL (which reorders only the clone). Re-seals skip
  // the clone when no value was interned since the last one (dictionary
  // growth is append-only, so an equal total count means identical
  // content) — the generations then share one immutable DictionarySet.
  if (!canonical && last_seal_dicts_ != nullptr &&
      last_seal_dicts_->total_size() == dicts_->total_size()) {
    inputs.dicts = last_seal_dicts_;
  } else {
    inputs.dicts = std::make_shared<DictionarySet>(dicts_->Clone());
  }
  std::shared_ptr<DictionarySet> seal_dicts = inputs.dicts;
  inputs.num_threads = num_threads;
  inputs.columnar_min_rows = registry_->options().columnar_min_rows;
  inputs.canonicalize = canonical;
  // Incremental re-seal: bags unchanged since the last generation this
  // session sealed (epoch at or before that seal, same name then) reuse
  // its marginal cache and column stores — a k-of-m touch refills O(k·m)
  // pairs instead of O(m²). Canonical seals on either side remap ids and
  // disqualify reuse; FULL opts out explicitly (benchmark baseline).
  size_t reused = 0;
  if (!full && !canonical && !last_seal_canonical_ && last_sealed_ != nullptr) {
    inputs.prev_bag.assign(bags_.size(), SealReuse::kNoPrev);
    for (size_t i = 0; i < bags_.size(); ++i) {
      if (bag_epochs_[i] > last_seal_epoch_) continue;  // changed since
      for (size_t p = 0; p < last_sealed_->num_bags(); ++p) {
        if (last_sealed_->bag_name(p) == bag_names_[i]) {
          inputs.prev_bag[i] = p;
          ++reused;
          break;
        }
      }
    }
    if (reused > 0) inputs.previous = last_sealed_;
    else inputs.prev_bag.clear();
  }
  Result<std::shared_ptr<const EngineSnapshot>> snapshot =
      EngineSnapshot::Build(std::move(inputs), collection_->NextSeq());
  if (!snapshot.ok()) {
    sink->ErrStatus(snapshot.status());
    return;
  }
  Status published = registry_->Publish(collection_.get(), *snapshot,
                                        staged_seg_path_, canonical);
  if (!published.ok()) {
    sink->ErrStatus(published);
    return;
  }
  last_sealed_ = *snapshot;
  last_seal_epoch_ = epoch_counter_;
  last_seal_canonical_ = canonical;
  // A canonical seal remapped the clone's ids in place; it can never
  // seed a later generation.
  last_seal_dicts_ = canonical ? nullptr : std::move(seal_dicts);
  registry_->RecordSeal();
  std::string rest = "SEAL " + std::to_string(bags_.size()) + " bags";
  // The suffix appears only on actual reuse, so full-seal responses stay
  // byte-identical to protocol v1.
  if (reused > 0) rest += " " + std::to_string(reused) + " reused";
  sink->Ok(rest);
}

void ServerSession::Reset(bool hard, ResponseSink* sink) {
  bag_names_.clear();
  bags_.clear();
  bag_epochs_.clear();
  ForgetSealLineage();
  // An open transaction dies with the bags it was staged against.
  txn_active_ = false;
  txn_batch_.clear();
  txn_rows_ = 0;
  txn_wal_bytes_ = 0;
  if (hard) {
    catalog_ = AttributeCatalog();
    dicts_ = std::make_shared<DictionarySet>();
  }
  // In-flight queries of other sessions finish on the old snapshot; new
  // queries on this collection see no engine until the next SEAL.
  registry_->Clear(collection_.get());
  registry_->RecordReset();
  sink->Ok(hard ? "RESET HARD" : "RESET");
}

void ServerSession::Attach(const std::string& name, ResponseSink* sink) {
  // Collection names share the bag-name shape rules: non-empty, not all
  // digits (so STATS <name> and future addressing stay unambiguous).
  if (ReservedName(name)) {
    sink->Err(WireError::kParse,
              "collection name '" + name + "' must not be all digits");
    return;
  }
  Result<std::shared_ptr<CollectionRegistry::Collection>> attached =
      registry_->Attach(name);
  if (!attached.ok()) {
    sink->ErrStatus(attached.status());
    return;
  }
  if (attached->get() != collection_.get()) {
    collection_ = *std::move(attached);
    // The previous chain's generations mean nothing to the new one.
    ForgetSealLineage();
  }
  sink->Ok("ATTACH " + name);
}

void ServerSession::Detach(ResponseSink* sink) {
  if (collection_.get() != registry_->Default().get()) {
    collection_ = registry_->Default();
    ForgetSealLineage();
  }
  sink->Ok("DETACH");
}

void ServerSession::Drop(const std::string& name, ResponseSink* sink) {
  const size_t i = FindBag(name);
  if (i == bag_names_.size()) {
    sink->Err(WireError::kState, "bag '" + name + "' is not loaded");
    return;
  }
  bag_names_.erase(bag_names_.begin() + i);
  bags_.erase(bags_.begin() + i);
  bag_epochs_.erase(bag_epochs_.begin() + i);
  // The loaded set no longer matches any one segment; re-LOADing the
  // same name gets a fresh epoch, which is what marks it changed for the
  // next incremental SEAL.
  staged_seg_path_.clear();
  sink->Ok("DROP " + name);
}

void ServerSession::Stats(const std::string& collection, ResponseSink* sink) {
  if (!collection.empty()) {
    // Per-collection STATS: registry-level accounting, no snapshot
    // access (Peek semantics — reporting must not trigger a reload).
    std::shared_ptr<CollectionRegistry::Collection> c =
        registry_->Find(collection);
    if (c == nullptr) {
      sink->Err(WireError::kState, "no collection named '" + collection + "'");
      return;
    }
    CollectionRegistry::CollectionStats s = registry_->Stats(c.get());
    std::vector<std::pair<std::string, uint64_t>> kv;
    kv.emplace_back("resident", s.resident ? 1 : 0);
    kv.emplace_back("reloadable", s.reloadable ? 1 : 0);
    kv.emplace_back("bytes", s.bytes);
    kv.emplace_back("generation", s.generation);
    kv.emplace_back("last_access", s.last_access);
    kv.emplace_back("hits", s.hits);
    kv.emplace_back("evictions", s.evictions);
    kv.emplace_back("reloads", s.reloads);
    sink->Stats(kv);
    return;
  }
  // Global STATS reports the bound collection's snapshot without LRU or
  // reload side effects; the first ten keys are pinned by protocol v1
  // (docs/PROTOCOL.md transcript), new registry keys append after them.
  std::shared_ptr<const EngineSnapshot> snapshot =
      registry_->Peek(collection_.get());
  std::vector<std::pair<std::string, uint64_t>> kv;
  kv.emplace_back("proto", kWireProtocolVersion);
  kv.emplace_back("sessions", registry_->sessions_active());
  kv.emplace_back("seals", registry_->seals_total());
  kv.emplace_back("resets", registry_->resets_total());
  kv.emplace_back("queries", registry_->queries_total());
  kv.emplace_back("snapshot", snapshot == nullptr ? 0 : snapshot->seq());
  kv.emplace_back("bags", snapshot == nullptr ? 0 : snapshot->num_bags());
  kv.emplace_back("support", snapshot == nullptr ? 0 : snapshot->support_rows());
  kv.emplace_back("dict_values",
                  snapshot == nullptr ? 0 : snapshot->dict_values());
  kv.emplace_back("marginal_fills",
                  snapshot == nullptr ? 0 : snapshot->marginal_fills());
  kv.emplace_back("collections", registry_->num_collections());
  kv.emplace_back("evictions", registry_->evictions_total());
  kv.emplace_back("deltas", registry_->deltas_total());
  kv.emplace_back("sealed_bytes",
                  snapshot == nullptr ? 0 : snapshot->sealed_bytes());
  kv.emplace_back("wal_records", registry_->wal_records_total());
  kv.emplace_back("wal_bytes", registry_->wal_bytes_total());
  kv.emplace_back("replayed_generations",
                  registry_->replayed_generations_total());
  sink->Stats(kv);
}

size_t ServerSession::FindBag(const std::string& name) const {
  return std::find(bag_names_.begin(), bag_names_.end(), name) -
         bag_names_.begin();
}

void ServerSession::AddBag(std::string name, Bag bag) {
  bag_names_.push_back(std::move(name));
  bags_.push_back(std::move(bag));
  bag_epochs_.push_back(++epoch_counter_);
  // The loaded set grew past whatever segment staged it.
  staged_seg_path_.clear();
}

void ServerSession::ForgetSealLineage() {
  last_sealed_ = nullptr;
  last_seal_epoch_ = 0;
  last_seal_canonical_ = false;
  last_seal_dicts_ = nullptr;
  staged_seg_path_.clear();
}

}  // namespace bagc
