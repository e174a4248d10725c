// Protocol conformance tests for the bagcd server: the ServerSession
// state machine driven in-process (grammar, error classes, session
// lifecycle, snapshot-swap semantics), the typed client helpers over a
// real socket, and — the anchor — the annotated transcript in
// docs/PROTOCOL.md replayed verbatim against a live server, so the
// documented wire format and the implementation cannot drift apart.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bag/bag_io.h"
#include "core/pairwise.h"
#include "core/two_bag.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "server/bagcd_server.h"
#include "server/client.h"
#include "server/engine_snapshot.h"
#include "server/protocol.h"
#include "server/session.h"
#include "tuple/segment.h"

#ifndef BAGC_REPO_ROOT
#define BAGC_REPO_ROOT "."
#endif

namespace bagc {
namespace {

std::vector<std::string> Feed(ServerSession* session, const std::string& script) {
  return session->HandleScript(script);
}

std::string Frame(uint8_t opcode, const std::string& payload) {
  std::string f;
  WireAppendFrame(&f, opcode, payload);
  return f;
}

// Splits a binary session's output into (opcode, payload) frames.
std::vector<std::pair<uint8_t, std::string>> ReadFrames(const std::string& out) {
  std::vector<std::pair<uint8_t, std::string>> frames;
  size_t pos = 0;
  while (pos + kWireFrameHeaderBytes <= out.size()) {
    WireCursor header(std::string_view(out).substr(pos, kWireFrameHeaderBytes));
    uint32_t len = 0;
    uint8_t opcode = 0;
    EXPECT_TRUE(header.U32(&len) && header.U8(&opcode));
    frames.emplace_back(opcode, out.substr(pos + kWireFrameHeaderBytes, len));
    pos += kWireFrameHeaderBytes + len;
  }
  EXPECT_EQ(pos, out.size());
  return frames;
}

// A ROWS-grammar payload (ROWS, INSERT and DELETE frames): one row of
// ids per entry of `rows`, each with its count.
using IdRows = std::vector<std::pair<std::vector<uint32_t>, uint64_t>>;

std::string RowsPayload(const std::string& bag,
                        const std::vector<std::string>& attrs,
                        const IdRows& rows) {
  std::string payload;
  WireAppendString(&payload, bag);
  WireAppendU32(&payload, static_cast<uint32_t>(attrs.size()));
  for (const std::string& attr : attrs) WireAppendString(&payload, attr);
  WireAppendU64(&payload, rows.size());
  for (const auto& [ids, count] : rows) {
    for (uint32_t id : ids) WireAppendU32(&payload, id);
    WireAppendU64(&payload, count);
  }
  return payload;
}

// A tiny consistent two-bag script: dictionaries, one u32-streamed bag,
// one text bag, seal.
constexpr const char* kSetupScript = R"(DICT item 3
apple
banana
cherry
END
DICT store 2
downtown
uptown
END
LOADU32 orders item store
0 0 : 2
1 1 : 1
END
LOAD stock item store
apple downtown : 2
banana uptown : 1
END
SEAL
)";

TEST(ServerSessionTest, LifecycleAndQueries) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = Feed(&session, kSetupScript);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], "OK DICT item 3");
  EXPECT_EQ(out[1], "OK DICT store 2");
  EXPECT_EQ(out[2], "OK LOADU32 orders 2 rows");
  EXPECT_EQ(out[3], "OK LOAD stock 2 rows");
  EXPECT_EQ(out[4], "OK SEAL 2 bags");

  out = Feed(&session, "TWOBAG orders stock\nPAIRWISE\nGLOBAL\nKWISE 2\n");
  ASSERT_EQ(out.size(), 4u);
  for (const std::string& line : out) EXPECT_EQ(line, "OK CONSISTENT");

  out = Feed(&session, "WITNESS 0 1 MINIMAL\n");
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out.front(), "OK WITNESS 2");
  EXPECT_EQ(out.back(), kWireEnd);
}

TEST(ServerSessionTest, ErrorClasses) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);

  // Query before any seal: state error.
  std::vector<std::string> out = Feed(&session, "TWOBAG 0 1\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];

  // Unknown command: parse error.
  out = Feed(&session, "FROB\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];

  Feed(&session, kSetupScript);

  // Re-shipping a dictionary: state error (id spaces do not merge).
  out = Feed(&session, "DICT item 1\npear\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];

  // Streaming an id the dictionary never issued: range error.
  out = Feed(&session, "LOADU32 bad item store\n9 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];

  // Streaming u32 rows for an attribute with no dictionary: state error.
  out = Feed(&session, "LOADU32 bad2 nodict\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];

  // Duplicate bag name: state error; all-digit name: parse error.
  out = Feed(&session, "LOADU32 orders item store\n0 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  out = Feed(&session, "LOADU32 123 item store\n0 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];

  // Out-of-range bag reference and unknown name on a sealed engine.
  out = Feed(&session, "TWOBAG 0 7\nTWOBAG orders nosuch\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];

  // An absurd seal-time worker count is rejected, not attempted (a
  // thread-spawn failure would terminate the daemon for every client).
  out = Feed(&session, "SEAL THREADS 10000000\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];

  // A body command with a bad header still consumes its body: the row
  // lines must NOT be interpreted as commands.
  out = Feed(&session, "DICT toofew\nvalue1\nvalue2\nEND\nSTATS\n");
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];
  EXPECT_EQ(out[1], "OK STATS");
}

TEST(ServerSessionTest, ResetKeepsDictionariesHardWipes) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  std::vector<std::string> out = Feed(&session, "RESET\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK RESET");
  EXPECT_EQ(registry.Peek(registry.Default().get()), nullptr);

  // Dictionaries survived: the same ids stream again without DICT.
  out = Feed(&session, "LOADU32 orders item store\n2 1 : 5\nEND\nSEAL\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK LOADU32 orders 1 rows");
  EXPECT_EQ(out[1], "OK SEAL 1 bags");

  // HARD also wipes the dictionaries: streaming now needs a fresh DICT.
  out = Feed(&session, "RESET HARD\nLOADU32 orders item store\n0 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK RESET HARD");
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];
}

TEST(ServerSessionTest, SnapshotSwapIsSharedAcrossSessions) {
  CollectionRegistry registry;
  ServerSession producer(&registry, nullptr);
  ServerSession consumer(&registry, nullptr);

  Feed(&producer, kSetupScript);
  std::shared_ptr<const EngineSnapshot> first = registry.Peek(registry.Default().get());
  ASSERT_NE(first, nullptr);

  // The other session queries the producer's snapshot.
  std::vector<std::string> out = Feed(&consumer, "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK CONSISTENT");

  // An in-flight holder keeps the old generation alive across a re-SEAL;
  // the registry hands out the new one.
  Feed(&producer, "SEAL\n");
  std::shared_ptr<const EngineSnapshot> second = registry.Peek(registry.Default().get());
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first.get(), second.get());
  EXPECT_LT(first->seq(), second->seq());
  EXPECT_EQ(first->num_bags(), 2u);  // old snapshot still fully usable
  EXPECT_TRUE(*first->TwoBag(0, 1));

  // RESET unpublishes for everyone.
  Feed(&producer, "RESET\n");
  out = Feed(&consumer, "PAIRWISE\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
}

TEST(ServerSessionTest, CanonicalSealKeepsSessionIdsStable) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  // Ship a deliberately unsorted dictionary: canonicalization would
  // reorder it, which must not disturb the session's id space.
  std::vector<std::string> out = Feed(&session,
                                     "DICT item 3\nzebra\nmango\napple\nEND\n"
                                     "LOADU32 r item\n0 : 4\n2 : 1\nEND\n"
                                     "LOADU32 s item\n0 : 4\n2 : 1\nEND\n"
                                     "SEAL CANONICAL\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3], "OK SEAL 2 bags");

  // The witness decodes to the external values the session ids named —
  // and the canonical snapshot serializes rows in sorted external order.
  out = Feed(&session, "WITNESS r s\n");
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], "OK WITNESS 2");
  EXPECT_EQ(out[1], "bag item");
  EXPECT_EQ(out[2], "apple : 1");
  EXPECT_EQ(out[3], "zebra : 4");
  EXPECT_EQ(out[4], "end");
  EXPECT_EQ(out[5], kWireEnd);

  // Session ids still refer to the shipped order (0 = zebra): stream
  // them again after the canonical seal and the verdicts line up.
  out = Feed(&session, "RESET\nLOADU32 r item\n0 : 1\nEND\n"
                      "LOADU32 s item\n1 : 1\nEND\nSEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.back(), "OK INCONSISTENT");  // zebra-bag vs mango-bag
}

TEST(ServerSessionTest, StatsShape) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  Feed(&session, "TWOBAG 0 1\n");
  std::vector<std::string> out = Feed(&session, "STATS\n");
  ASSERT_EQ(out.size(), 19u);
  EXPECT_EQ(out.front(), "OK STATS");
  EXPECT_EQ(out.back(), kWireEnd);
  EXPECT_EQ(out[1], "proto 1");
  EXPECT_EQ(out[2], "sessions 1");
  EXPECT_EQ(out[3], "seals 1");
  EXPECT_EQ(out[5], "queries 1");
  EXPECT_EQ(out[7], "bags 2");
  // Registry keys append after the protocol-v1 ten so old readers that
  // index by position keep working.
  EXPECT_EQ(out[11], "collections 1");
  EXPECT_EQ(out[12], "evictions 0");
  EXPECT_EQ(out[13], "deltas 0");
  EXPECT_EQ(out[14].rfind("sealed_bytes ", 0), 0u);
  EXPECT_EQ(out[15], "wal_records 0");
  EXPECT_EQ(out[16], "wal_bytes 0");
  EXPECT_EQ(out[17], "replayed_generations 0");

  // Per-collection STATS: registry accounting for one tenant.
  out = Feed(&session, "STATS default\n");
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[1], "resident 1");
  EXPECT_EQ(out[2], "reloadable 0");
  EXPECT_EQ(out[4], "generation 1");
  out = Feed(&session, "STATS nosuch\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
}

TEST(ServerSessionTest, AttachBindsItsOwnGenerationChain) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);  // seals into "default"

  // Rebinding to a fresh collection: queries find no engine there while
  // "default" still serves other sessions.
  std::vector<std::string> out = Feed(&session, "ATTACH tenant_a\nPAIRWISE\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK ATTACH tenant_a");
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];
  ServerSession other(&registry, nullptr);
  out = Feed(&other, "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK CONSISTENT");

  // The loaded bags are session-local: the same session seals them into
  // the new chain, whose generation numbering starts at 1 again.
  out = Feed(&session, "SEAL\nTWOBAG orders stock\nDETACH\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[2], "OK DETACH");
  EXPECT_EQ(registry.num_collections(), 2u);

  // All-digit and malformed names are refused at parse time.
  out = Feed(&session, "ATTACH 123\nATTACH\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];
  EXPECT_EQ(out[1].rfind("ERR E_PARSE", 0), 0u) << out[1];

  // The admission cap counts "default": a third name is refused.
  CollectionRegistry::Options capped;
  capped.max_collections = 2;
  CollectionRegistry small(capped);
  ServerSession capped_session(&small, nullptr);
  out = Feed(&capped_session, "ATTACH a\nATTACH b\nATTACH a\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK ATTACH a");
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];
  EXPECT_EQ(out[2], "OK ATTACH a");  // re-attach to an existing name is free
}

TEST(ServerSessionTest, DropUnloadsOneStagedBag) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  // DROP + re-LOAD the same name, then re-seal: the replacement rows are
  // what the new generation serves.
  std::vector<std::string> out = Feed(&session,
                                     "DROP stock\n"
                                     "LOAD stock item store\n"
                                     "apple downtown : 99\n"
                                     "END\n"
                                     "SEAL FULL\n"
                                     "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "OK DROP stock");
  EXPECT_EQ(out[1], "OK LOAD stock 1 rows");
  EXPECT_EQ(out[2], "OK SEAL 2 bags");
  EXPECT_EQ(out[3], "OK INCONSISTENT");

  out = Feed(&session, "DROP nosuch\nDROP\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  EXPECT_EQ(out[1].rfind("ERR E_PARSE", 0), 0u) << out[1];
}

TEST(ServerSessionTest, IncrementalResealReusesUntouchedBags) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  uint64_t full_fills =
      registry.Peek(registry.Default().get())->marginal_fills();
  EXPECT_GT(full_fills, 0u);

  // Touch one of the two bags; the plain re-seal reuses the other bag's
  // sealed marginals, so it fills strictly fewer than the full seal did.
  std::vector<std::string> out = Feed(&session,
                                     "DROP stock\n"
                                     "LOAD stock item store\n"
                                     "apple downtown : 2\n"
                                     "banana uptown : 1\n"
                                     "END\n"
                                     "SEAL\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], "OK SEAL 2 bags 1 reused");
  std::shared_ptr<const EngineSnapshot> incremental =
      registry.Peek(registry.Default().get());
  EXPECT_LT(incremental->marginal_fills(), full_fills);

  // Same bags re-sealed with FULL: identical verdicts, no reuse suffix.
  out = Feed(&session, "SEAL FULL\nTWOBAG orders stock\nPAIRWISE\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[2], "OK CONSISTENT");

  // Witness rows from the incremental generation match the full one:
  // reuse shares state, never changes answers.
  ServerSession fresh(&registry, nullptr);
  std::vector<std::string> w_full =
      Feed(&fresh, "WITNESS orders stock MINIMAL\n");
  Feed(&session,
       "DROP orders\nLOADU32 orders item store\n0 0 : 2\n1 1 : 1\nEND\nSEAL\n");
  std::vector<std::string> w_incr =
      Feed(&fresh, "WITNESS orders stock MINIMAL\n");
  EXPECT_EQ(w_full, w_incr);

  // A canonical seal refuses reuse on both sides of the boundary.
  out = Feed(&session, "SEAL CANONICAL\nSEAL\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK SEAL 2 bags");
}

TEST(ServerSessionTest, InsertDeltaPublishesIncrementally) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);  // orders == stock, consistent

  // A one-bag INSERT after a seal publishes the next generation directly
  // from the previous one — the untouched bag rides along ("1 reused"),
  // and the verdict flips because stock now carries an extra row.
  std::vector<std::string> out = Feed(&session,
                                     "INSERT stock item store\n"
                                     "2 0 : 5\n"  // cherry downtown x5
                                     "END\n"
                                     "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK INSERT stock 1 rows 2 bags 1 reused");
  EXPECT_EQ(out[1], "OK INCONSISTENT");

  // Exactly the mutated bag's shared-marginal slot refilled: a delta
  // generation's fill counter is the dirty-slot count, not a re-seal.
  std::shared_ptr<const EngineSnapshot> published =
      registry.Peek(registry.Default().get());
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->marginal_fills(), 1u);

  // DELETE of the same rows restores the original bag: verdicts return,
  // and the generation counter shows two extra publishes.
  out = Feed(&session,
             "DELETE stock item store\n"
             "2 0 : 5\n"
             "END\n"
             "TWOBAG orders stock\n"
             "STATS default\n");
  ASSERT_GE(out.size(), 4u);
  EXPECT_EQ(out[0], "OK DELETE stock 1 rows 2 bags 1 reused");
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[6], "generation 3");

  // The global counter saw both commits.
  out = Feed(&session, "STATS\n");
  ASSERT_EQ(out.size(), 19u);
  EXPECT_EQ(out[13], "deltas 2");

  // Lineage survives a delta publish: the next plain SEAL still reuses
  // every bag (the session copy tracked the published generation).
  out = Feed(&session, "SEAL\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags 2 reused");
}

TEST(ServerSessionTest, DeleteBelowZeroLeavesGenerationAndBagIntact) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  // Deleting more copies than the bag holds: E_RANGE, all-or-nothing —
  // no generation publishes and the served rows are untouched, so the
  // verdict is still the pre-delta one.
  std::vector<std::string> out = Feed(&session,
                                     "DELETE stock item store\n"
                                     "0 0 : 99\n"
                                     "END\n"
                                     "TWOBAG orders stock\n"
                                     "STATS default\n");
  ASSERT_GE(out.size(), 4u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("below zero"), std::string::npos) << out[0];
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[6], "generation 1");

  // The failed delta corrupted nothing: a valid one on the same bag
  // commits cleanly right after.
  out = Feed(&session, "INSERT stock item store\n2 1 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK INSERT stock 1 rows 2 bags 1 reused");

  // Same all-or-nothing on the staged path (no seal lineage): a below-
  // zero DELETE against a freshly loaded bag leaves it loadable and
  // sealable with its original rows.
  ServerSession staged(&registry, nullptr);
  out = Feed(&staged,
             "ATTACH tenant_staged\n"
             "DICT item 1\napple\nEND\n"
             "LOADU32 r item\n0 : 2\nEND\n"
             "DELETE r item\n0 : 3\nEND\n"
             "LOADU32 s item\n0 : 2\nEND\n"
             "SEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[3].rfind("ERR E_RANGE", 0), 0u) << out[3];
  EXPECT_EQ(out[5], "OK SEAL 2 bags");
  EXPECT_EQ(out[6], "OK CONSISTENT");  // r kept both copies
}

TEST(ServerSessionTest, MutateBeforeSealStagesIntoTheLoadedBag) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);

  // No seal yet: the delta lands on the loaded bag only ("staged") and
  // the following SEAL serves the mutated rows.
  std::vector<std::string> out = Feed(&session,
                                     "DICT item 2\napple\nbanana\nEND\n"
                                     "LOADU32 r item\n0 : 1\nEND\n"
                                     "LOADU32 s item\n0 : 1\n1 : 1\nEND\n"
                                     "INSERT r item\n1 : 1\nEND\n"
                                     "SEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[3], "OK INSERT r 1 rows staged");
  EXPECT_EQ(out[4], "OK SEAL 2 bags");
  EXPECT_EQ(out[5], "OK CONSISTENT");  // r grew to match s

  // A delta names attributes exactly as LOADU32 did; anything else is a
  // parse error before any row is read.
  out = Feed(&session, "INSERT r wrong\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];

  // Mutating a bag this session never loaded (including stream-only
  // names that exist solely in the sealed generation): E_STATE.
  out = Feed(&session, "DELETE nosuch item\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("not loaded"), std::string::npos) << out[0];

  // An id the dictionary never issued: E_RANGE, same wording as LOADU32.
  out = Feed(&session, "INSERT r item\n9 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("never issued"), std::string::npos) << out[0];

  // Interning after the seal (dictionary growth) demotes the next delta
  // to the staged path: the sealed generation's dictionary clone no
  // longer matches the session's.
  out = Feed(&session,
             "DICT extra 1\nx\nEND\n"
             "INSERT r item\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], "OK INSERT r 1 rows staged");
}

TEST(ServerSessionTest, MutateFramesMirrorTheTextGrammar) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  std::string raw;
  session.HandleData("UPGRADE BINARY\n", &raw);
  ASSERT_TRUE(session.binary_mode());

  auto frame = [](uint8_t opcode, const std::string& payload) {
    std::string f;
    WireAppendFrame(&f, opcode, payload);
    return f;
  };
  auto read_frames = [](const std::string& out) {
    std::vector<std::pair<uint8_t, std::string>> frames;
    size_t pos = 0;
    while (pos + kWireFrameHeaderBytes <= out.size()) {
      WireCursor header(
          std::string_view(out).substr(pos, kWireFrameHeaderBytes));
      uint32_t len = 0;
      uint8_t opcode = 0;
      EXPECT_TRUE(header.U32(&len) && header.U8(&opcode));
      frames.emplace_back(opcode, out.substr(pos + kWireFrameHeaderBytes, len));
      pos += kWireFrameHeaderBytes + len;
    }
    EXPECT_EQ(pos, out.size());
    return frames;
  };

  // INSERT frame, ROWS grammar: name, ncols, column names, nrows, then
  // fixed-width rows of ncols u32 ids + a u64 count.
  std::string payload;
  WireAppendString(&payload, "stock");
  WireAppendU32(&payload, 2);
  WireAppendString(&payload, "item");
  WireAppendString(&payload, "store");
  WireAppendU64(&payload, 1);
  WireAppendU32(&payload, 2);  // cherry
  WireAppendU32(&payload, 0);  // downtown
  WireAppendU64(&payload, 5);
  raw.clear();
  session.HandleData(frame(kFrameInsert, payload), &raw);
  auto frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameOk);
  EXPECT_EQ(frames[0].second, "INSERT stock 1 rows 2 bags 1 reused");

  // The DELETE frame undoes it; verdicts (queried over frames too) agree
  // with the text session's view of the same collection.
  payload.clear();
  WireAppendString(&payload, "stock");
  WireAppendU32(&payload, 2);
  WireAppendString(&payload, "item");
  WireAppendString(&payload, "store");
  WireAppendU64(&payload, 1);
  WireAppendU32(&payload, 2);
  WireAppendU32(&payload, 0);
  WireAppendU64(&payload, 5);
  raw.clear();
  session.HandleData(frame(kFrameDelete, payload) + frame(kFramePairwise, ""),
                     &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, kFrameOk);
  EXPECT_EQ(frames[0].second, "DELETE stock 1 rows 2 bags 1 reused");
  EXPECT_EQ(frames[1].first, kFrameVerdict);
  EXPECT_EQ(static_cast<uint8_t>(frames[1].second[0]), 1u);  // consistent

  // A frame whose declared row count disagrees with its byte length is
  // refused whole — no partial delta is read.
  payload.clear();
  WireAppendString(&payload, "stock");
  WireAppendU32(&payload, 2);
  WireAppendString(&payload, "item");
  WireAppendString(&payload, "store");
  WireAppendU64(&payload, 2);  // claims two rows, carries one
  WireAppendU32(&payload, 0);
  WireAppendU32(&payload, 0);
  WireAppendU64(&payload, 1);
  raw.clear();
  session.HandleData(frame(kFrameInsert, payload), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_EQ(frames[0].second[0], static_cast<char>(WireErrorTag(WireError::kParse)));

  // In binary mode the text body form is refused by verb name.
  raw.clear();
  session.HandleData(frame(kFrameCmd, "INSERT stock item store"), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_NE(frames[0].second.find("INSERT"), std::string::npos);
}

TEST(ServerSessionTest, BagNamesTheTextFramingCannotCarryAreRefused) {
  // A binary ROWS frame and a LOADSEG segment both carry bag names as
  // raw bytes. A name with whitespace, a newline or '#' could never be
  // addressed by a text query, and echoing it would split a response
  // line, so both paths refuse it with E_PARSE and load nothing.
  const std::vector<std::string> bad = {"a b", "x\nOK", "tab\there", "h#sh"};
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, "DICT item 2\napple\nbanana\nEND\n");
  std::string raw;
  session.HandleData("UPGRADE BINARY\n", &raw);
  ASSERT_TRUE(session.binary_mode());
  for (const std::string& name : bad) {
    raw.clear();
    session.HandleData(
        Frame(kFrameRows, RowsPayload(name, {"item"}, {{{0}, 1}, {{1}, 2}})),
        &raw);
    auto frames = ReadFrames(raw);
    ASSERT_EQ(frames.size(), 1u) << name;
    EXPECT_EQ(frames[0].first, kFrameErr) << name;
    EXPECT_EQ(frames[0].second[0],
              static_cast<char>(WireErrorTag(WireError::kParse)));
    EXPECT_EQ(frames[0].second.find('\n'), std::string::npos);
  }
  raw.clear();
  session.HandleData(Frame(kFrameRows, RowsPayload("ok", {"item"}, {{{0}, 1}})),
                     &raw);
  auto frames = ReadFrames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameOk);
  EXPECT_EQ(frames[0].second, "LOADU32 ok 1 rows");

  // LOADSEG: a segment whose second bag has an unrepresentable name is
  // refused whole; the first bag is not loaded either.
  for (const std::string& name : bad) {
    AttributeCatalog catalog;
    DictionarySet dicts;
    Result<std::vector<Bag>> bags = ParseCollection(
        "bag item store\napple downtown : 2\nend\n"
        "bag store region\ndowntown north : 2\nend\n",
        &catalog, &dicts);
    ASSERT_TRUE(bags.ok()) << bags.status().ToString();
    std::string path = testing::TempDir() + "bad_bag_name.seg";
    ASSERT_TRUE(
        WriteSegmentFile(path, {"left", name}, *bags, catalog, dicts).ok());
    CollectionRegistry seg_registry;
    ServerSession seg_session(&seg_registry, nullptr);
    std::vector<std::string> out =
        seg_session.HandleScript("LOADSEG " + path + "\nDROP left\n");
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];
    EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];
  }
}

TEST(ServerSessionTest, BinaryModeRules) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::string out;
  ASSERT_EQ(session.HandleData("HELLO\nUPGRADE BINARY\n", &out),
            ServerSession::Outcome::kContinue);
  EXPECT_EQ(out, "OK HELLO proto 1 frames 1\nOK UPGRADE BINARY\n");
  EXPECT_TRUE(session.binary_mode());

  auto frame = [](uint8_t opcode, const std::string& payload) {
    std::string f;
    WireAppendFrame(&f, opcode, payload);
    return f;
  };

  // A second UPGRADE and a text body command are state errors in binary
  // mode (body blocks have no line framing to ride on).
  out.clear();
  session.HandleData(
      frame(kFrameCmd, "UPGRADE BINARY") + frame(kFrameCmd, "DICT item 1"),
      &out);
  size_t pos = 0;
  int errs = 0;
  while (pos + kWireFrameHeaderBytes <= out.size()) {
    WireCursor header(std::string_view(out).substr(pos, kWireFrameHeaderBytes));
    uint32_t len = 0;
    uint8_t opcode = 0;
    ASSERT_TRUE(header.U32(&len) && header.U8(&opcode));
    EXPECT_EQ(opcode, kFrameErr);
    Result<WireError> err = WireErrorFromTag(
        static_cast<uint8_t>(out[pos + kWireFrameHeaderBytes]));
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(*err, WireError::kState);
    ++errs;
    pos += kWireFrameHeaderBytes + len;
  }
  EXPECT_EQ(pos, out.size());
  EXPECT_EQ(errs, 2);

  // CMD TEXT drops back to lines mid-buffer: the trailing bytes of the
  // SAME HandleData call already parse as a text line, and TEXT in text
  // mode is an idempotent OK.
  out.clear();
  session.HandleData(frame(kFrameCmd, "TEXT") + std::string("TEXT\n"), &out);
  EXPECT_FALSE(session.binary_mode());
  ASSERT_GE(out.size(), 8u);
  EXPECT_EQ(out.substr(out.size() - 8), "OK TEXT\n");
}

TEST(ServerSessionTest, BinaryFrameSplitAcrossReadsParsesOnce) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::string out;
  session.HandleData("UPGRADE BINARY\n", &out);
  ASSERT_TRUE(session.binary_mode());

  // One CMD frame delivered a byte at a time: a frame boundary owes
  // nothing to read() boundaries. No response may appear until the final
  // payload byte lands, and then exactly one response frame must.
  std::string f;
  WireAppendFrame(&f, kFrameCmd, "STATS");
  out.clear();
  for (size_t i = 0; i + 1 < f.size(); ++i) {
    ASSERT_EQ(session.HandleData(std::string_view(&f[i], 1), &out),
              ServerSession::Outcome::kContinue);
    EXPECT_TRUE(out.empty()) << "responded after " << (i + 1) << " of "
                             << f.size() << " bytes";
  }
  session.HandleData(std::string_view(&f.back(), 1), &out);
  ASSERT_GE(out.size(), kWireFrameHeaderBytes);
  EXPECT_EQ(static_cast<uint8_t>(out[4]), kFrameStats);

  // Two frames glued into one read both answer; a trailing partial
  // header stays buffered for the next read.
  std::string two = f + f;
  std::string partial;
  WireAppendFrame(&partial, kFrameCmd, "STATS");
  two += partial.substr(0, 3);
  out.clear();
  ASSERT_EQ(session.HandleData(two, &out), ServerSession::Outcome::kContinue);
  size_t frames = 0;
  size_t pos = 0;
  while (pos + kWireFrameHeaderBytes <= out.size()) {
    WireCursor header(std::string_view(out).substr(pos, kWireFrameHeaderBytes));
    uint32_t len = 0;
    uint8_t opcode = 0;
    ASSERT_TRUE(header.U32(&len) && header.U8(&opcode));
    EXPECT_EQ(opcode, kFrameStats);
    ++frames;
    pos += kWireFrameHeaderBytes + len;
  }
  EXPECT_EQ(frames, 2u);
  out.clear();
  session.HandleData(partial.substr(3), &out);
  ASSERT_GE(out.size(), kWireFrameHeaderBytes);
  EXPECT_EQ(static_cast<uint8_t>(out[4]), kFrameStats);
}

TEST(ServerSessionTest, OversizedFramePayloadClosesTheConnection) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::string out;
  session.HandleData("UPGRADE BINARY\n", &out);
  ASSERT_TRUE(session.binary_mode());

  // A header that *claims* an over-limit payload is refused from the
  // header alone — the session must not buffer toward a 256 MiB+1
  // allocation before noticing, and no resync is possible mid-frame.
  std::string header;
  WireAppendU32(&header, static_cast<uint32_t>(kWireMaxFramePayload) + 1);
  header.push_back(static_cast<char>(kFrameCmd));
  out.clear();
  EXPECT_EQ(session.HandleData(header, &out),
            ServerSession::Outcome::kCloseConnection);
  ASSERT_GE(out.size(), kWireFrameHeaderBytes + 1u);
  EXPECT_EQ(static_cast<uint8_t>(out[4]), kFrameErr);
  Result<WireError> err = WireErrorFromTag(
      static_cast<uint8_t>(out[kWireFrameHeaderBytes]));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(*err, WireError::kRange);
}

TEST(ServerSessionTest, OverlongTextLineClosesEvenWhenComplete) {
  constexpr size_t kMaxLineBytes = 1 << 20;  // mirrors session.cc

  // A complete over-long line (newline included in the same read) is as
  // abusive as a partial one; before the fix it slipped past the cap
  // because the ceiling was only checked while the newline was missing.
  {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    std::string out;
    std::string line(kMaxLineBytes + 1, 'a');
    line += '\n';
    EXPECT_EQ(session.HandleData(line, &out),
              ServerSession::Outcome::kCloseConnection);
    EXPECT_EQ(out.rfind("ERR E_RANGE", 0), 0u) << out.substr(0, 40);
    EXPECT_NE(out.find("input line exceeds"), std::string::npos);
  }

  // Still-growing line with no newline yet: refused at the same ceiling.
  {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    std::string out;
    std::string partial(kMaxLineBytes + 1, 'b');
    EXPECT_EQ(session.HandleData(partial, &out),
              ServerSession::Outcome::kCloseConnection);
    EXPECT_EQ(out.rfind("ERR E_RANGE", 0), 0u) << out.substr(0, 40);
  }

  // Exactly at the ceiling: parses as a (bad) command, session lives.
  {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    std::string out;
    std::string line(kMaxLineBytes, 'c');
    line += '\n';
    EXPECT_EQ(session.HandleData(line, &out),
              ServerSession::Outcome::kContinue);
    EXPECT_EQ(out.rfind("ERR E_PARSE", 0), 0u) << out.substr(0, 40);
  }
}

// ---- Socket-level tests ----------------------------------------------------

TEST(BagcdServerTest, TypedClientHelpersMatchSingleShotCore) {
  // Build a string-valued collection locally.
  AttributeCatalog catalog;
  auto dicts = std::make_shared<DictionarySet>();
  std::string text =
      "bag item store\napple downtown : 2\nbanana uptown : 1\nend\n"
      "bag store region\ndowntown north : 3\nuptown north : 1\nend\n";
  Result<std::vector<Bag>> bags = ParseCollection(text, &catalog, dicts.get());
  ASSERT_TRUE(bags.ok()) << bags.status().ToString();

  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<BagcdClient> client =
      BagcdClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->banner(), kWireBanner);

  for (const Bag& bag : *bags) {
    ASSERT_TRUE(client->ShipDictionaries(*dicts, bag.schema(), catalog).ok());
  }
  ASSERT_TRUE(client->LoadBagU32("sales", (*bags)[0], catalog).ok());
  ASSERT_TRUE(client->LoadBagU32("stores", (*bags)[1], catalog).ok());
  Result<size_t> sealed = client->Seal();
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  EXPECT_EQ(*sealed, 2u);

  // Single-shot reference answers.
  bool expect_two = *AreConsistent((*bags)[0], (*bags)[1]);
  EXPECT_EQ(*client->TwoBag(0, 1), expect_two);
  Result<std::optional<std::pair<size_t, size_t>>> pairwise = client->Pairwise();
  ASSERT_TRUE(pairwise.ok());
  EXPECT_EQ(!pairwise->has_value(), expect_two);

  Result<std::optional<std::vector<std::string>>> witness =
      client->Witness(0, 1, /*minimal=*/true);
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  if (expect_two) {
    ASSERT_TRUE(witness->has_value());
    std::optional<Bag> reference = *FindMinimalWitness((*bags)[0], (*bags)[1]);
    ASSERT_TRUE(reference.has_value());
    // The wire text must decode to exactly the single-shot witness.
    std::string block;
    for (const std::string& line : **witness) block += line + "\n";
    AttributeCatalog reparse_catalog = catalog;
    size_t pos = 0;
    std::vector<std::string> lines;
    std::istringstream iss(block);
    std::string line;
    while (std::getline(iss, line)) lines.push_back(line);
    Result<Bag> decoded = ParseBag(lines, &pos, &reparse_catalog, dicts.get());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, *reference);
  }
  (*server)->Shutdown();
}

// One session that negotiates frames mid-stream (text HELLO/UPGRADE ->
// binary DICT/ROWS/queries -> back to text for STATS) must be
// indistinguishable — verdicts, witness rows and multiplicities, STATS —
// from a session that stays in the text framing throughout. Each run
// gets its own server so the registry counters line up byte-for-byte.
TEST(BagcdServerTest, MixedModeSessionMatchesPureTextSession) {
  AttributeCatalog catalog;
  auto dicts = std::make_shared<DictionarySet>();
  std::string text =
      "bag item store\napple downtown : 2\nbanana uptown : 1\n"
      "cherry uptown : 5\nend\n"
      "bag store region\ndowntown north : 2\nuptown north : 6\nend\n";
  Result<std::vector<Bag>> bags = ParseCollection(text, &catalog, dicts.get());
  ASSERT_TRUE(bags.ok()) << bags.status().ToString();

  struct Run {
    std::vector<std::string> verdicts;  // rendered query response lines
    std::vector<std::string> witness;   // witness bag block lines
    std::vector<std::string> stats;     // STATS response lines
  };
  auto run_session = [&](bool mixed) -> Run {
    Run r;
    Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    Result<BagcdClient> client =
        BagcdClient::Connect("127.0.0.1", (*server)->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (mixed) {
      Result<std::pair<int, int>> hello = client->Hello();
      EXPECT_TRUE(hello.ok()) << hello.status().ToString();
      EXPECT_EQ(hello->first, kWireProtocolVersion);
      EXPECT_EQ(hello->second, kWireFrameVersion);
      EXPECT_TRUE(client->UpgradeBinary().ok());
      EXPECT_TRUE(client->binary_mode());
    }
    // Dictionaries and rows travel as DICT/ROWS frames when mixed, as
    // text blocks otherwise — same helper calls either way.
    for (const Bag& bag : *bags) {
      EXPECT_TRUE(client->ShipDictionaries(*dicts, bag.schema(), catalog).ok());
    }
    EXPECT_TRUE(client->LoadBagU32("sales", (*bags)[0], catalog).ok());
    EXPECT_TRUE(client->LoadBagU32("stores", (*bags)[1], catalog).ok());
    Result<size_t> sealed = client->Seal();
    EXPECT_TRUE(sealed.ok()) << sealed.status().ToString();
    // Command() re-renders binary responses as the exact text lines, so
    // the two runs compare byte-for-byte.
    for (const char* query :
         {"TWOBAG sales stores", "PAIRWISE", "GLOBAL", "KWISE 2"}) {
      Result<std::vector<std::string>> lines = client->Command(query);
      EXPECT_TRUE(lines.ok()) << query << ": " << lines.status().ToString();
      if (lines.ok()) {
        for (const std::string& line : *lines) r.verdicts.push_back(line);
      }
    }
    Result<std::optional<std::vector<std::string>>> witness =
        client->Witness(0, 1, /*minimal=*/true);
    EXPECT_TRUE(witness.ok()) << witness.status().ToString();
    if (witness.ok() && witness->has_value()) r.witness = **witness;
    if (mixed) {
      EXPECT_TRUE(client->DowngradeText().ok());
      EXPECT_FALSE(client->binary_mode());
    }
    Result<std::vector<std::string>> stats = client->Command("STATS");
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) r.stats = *stats;
    (*server)->Shutdown();
    return r;
  };

  Run text_run = run_session(/*mixed=*/false);
  Run mixed_run = run_session(/*mixed=*/true);
  EXPECT_EQ(text_run.verdicts, mixed_run.verdicts);
  ASSERT_FALSE(text_run.witness.empty());
  EXPECT_EQ(text_run.witness, mixed_run.witness);  // rows AND multiplicities
  EXPECT_EQ(text_run.stats, mixed_run.stats);
}

TEST(BagcdServerTest, ProtocolDocTranscriptReplaysVerbatim) {
  std::ifstream in(std::string(BAGC_REPO_ROOT) + "/docs/PROTOCOL.md");
  ASSERT_TRUE(in.good()) << "docs/PROTOCOL.md not found under " << BAGC_REPO_ROOT;
  std::stringstream text;
  text << in.rdbuf();

  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<size_t> replayed =
      ReplayTranscript("127.0.0.1", (*server)->port(), text.str());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GE(*replayed, 1u);
  (*server)->Shutdown();
}

TEST(BagcdServerTest, SurvivesClientsThatNeverReadTheirResponses) {
  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // Each rogue client floods commands and closes without reading a byte:
  // the server's response writes hit a dead peer (EPIPE after the RST) —
  // which must cost that connection only, never the process (SIGPIPE
  // would take down every session; reproduced before MSG_NOSIGNAL).
  for (int rogue = 0; rogue < 3; ++rogue) {
    Result<BagcdClient> client =
        BagcdClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 500; ++i) {
      if (!client->SendLine("STATS").ok()) break;  // server buffer filled: fine
    }
    // Destructor closes the socket with every response unread.
  }
  // The daemon must still serve a well-behaved client.
  Result<BagcdClient> survivor =
      BagcdClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  Result<std::vector<std::string>> stats = survivor->Command("STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->front(), "OK STATS");
  (*server)->Shutdown();
}

TEST(ServerSessionTest, TransactionCommitIsAtomicAcrossBags) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  // A COMMIT whose LAST bag's delta is invalid publishes nothing: the
  // orders insert was individually fine, but the stock delete
  // underflows, so neither bag — and no generation — changes.
  std::vector<std::string> out = Feed(&session,
                                      "BEGIN\n"
                                      "INSERT orders item store\n2 0 : 1\nEND\n"
                                      "DELETE stock item store\n1 1 : 9\nEND\n"
                                      "COMMIT\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "OK BEGIN");
  EXPECT_EQ(out[1], "OK INSERT orders 1 rows buffered");
  EXPECT_EQ(out[2], "OK DELETE stock 1 rows buffered");
  EXPECT_EQ(out[3].rfind("ERR E_RANGE DELETE below zero multiplicity", 0), 0u)
      << out[3];

  // Still generation 1, and the buffered orders row never landed: a
  // witness for the untouched pair shows the original multiplicities.
  out = Feed(&session, "STATS\nWITNESS 0 1\n");
  EXPECT_EQ(out[6], "snapshot 1") << "failed COMMIT must not publish";
  std::string joined;
  for (const std::string& line : out) joined += line + "\n";
  EXPECT_NE(joined.find("apple downtown : 2"), std::string::npos) << joined;

  // The failed COMMIT closed the transaction; the same deltas with a
  // legal delete commit as one generation touching both bags.
  out = Feed(&session,
             "BEGIN\n"
             "INSERT orders item store\n2 0 : 1\nEND\n"
             "DELETE stock item store\n1 1 : 1\nEND\n"
             "COMMIT\nSTATS\n");
  ASSERT_GE(out.size(), 23u);
  EXPECT_EQ(out[3], "OK COMMIT 2 rows 2 bags");
  // The failed attempt burned a sequence number without publishing:
  // generation ids are monotonic, not dense.
  EXPECT_EQ(out[10], "snapshot 3");
  // marginal_fills lands on exactly the batch's dirty slots: both bags
  // mutated, one shared-attribute slot each.
  EXPECT_EQ(out[14], "marginal_fills 2");

  // Structural commands are refused mid-transaction; RESET discards it.
  out = Feed(&session, "BEGIN\nSEAL\nDROP orders\nRESET\nCOMMIT\n");
  ASSERT_EQ(out.size(), 5u);
  EXPECT_NE(out[1].find("not allowed inside a transaction"), std::string::npos);
  EXPECT_NE(out[2].find("not allowed inside a transaction"), std::string::npos);
  EXPECT_EQ(out[3], "OK RESET");
  EXPECT_EQ(out[4].rfind("ERR E_STATE no transaction is open", 0), 0u) << out[4];
}

TEST(ServerSessionTest, TransactionCumulativeCapsRefuseOversizedBuffering) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  // The body caps are per block; these cumulative caps are what bound a
  // whole transaction (and guarantee COMMIT fits one WAL record).
  // Shrunk so the refusal is reachable without buffering ~4M rows.
  session.SetTxnCapsForTest(/*rows=*/3, /*wal_bytes=*/0);

  std::vector<std::string> out =
      Feed(&session,
           "BEGIN\n"
           "INSERT orders item store\n0 0 : 1\n1 1 : 1\nEND\n"
           "INSERT orders item store\n2 0 : 1\n2 1 : 1\nEND\n"
           "COMMIT\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "OK BEGIN");
  EXPECT_EQ(out[1], "OK INSERT orders 2 rows buffered");
  // The second block would push the transaction past the row cap: it is
  // refused whole, the transaction stays open with the first block
  // intact, and COMMIT publishes exactly what was accepted.
  EXPECT_EQ(out[2].rfind("ERR E_RANGE transaction exceeds 3 buffered rows", 0),
            0u)
      << out[2];
  EXPECT_EQ(out[3].rfind("OK COMMIT 2 rows 2 bags", 0), 0u) << out[3];

  // The byte cap trips the same way (12 bytes of block header alone
  // exceeds a 1-byte budget), and a fresh BEGIN resets the accounting.
  session.SetTxnCapsForTest(/*rows=*/0, /*wal_bytes=*/1);
  out = Feed(&session,
             "BEGIN\n"
             "INSERT orders item store\n0 0 : 1\nEND\n"
             "COMMIT\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].rfind("ERR E_RANGE transaction exceeds", 0), 0u) << out[1];
  EXPECT_NE(out[1].find("encoded bytes"), std::string::npos) << out[1];
  EXPECT_EQ(out[2], "OK COMMIT 0 rows");
}

TEST(ServerSessionTest, TransactionFramesRoundTripAndRefuseTrailingBytes) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  std::string raw;
  session.HandleData("UPGRADE BINARY\n", &raw);
  ASSERT_TRUE(session.binary_mode());

  auto frame = [](uint8_t opcode, const std::string& payload) {
    std::string f;
    WireAppendFrame(&f, opcode, payload);
    return f;
  };
  auto read_frames = [](const std::string& out) {
    std::vector<std::pair<uint8_t, std::string>> frames;
    size_t pos = 0;
    while (pos + kWireFrameHeaderBytes <= out.size()) {
      WireCursor header(
          std::string_view(out).substr(pos, kWireFrameHeaderBytes));
      uint32_t len = 0;
      uint8_t opcode = 0;
      EXPECT_TRUE(header.U32(&len) && header.U8(&opcode));
      frames.emplace_back(opcode, out.substr(pos + kWireFrameHeaderBytes, len));
      pos += kWireFrameHeaderBytes + len;
    }
    EXPECT_EQ(pos, out.size());
    return frames;
  };
  auto rows_payload = [](const std::string& bag, uint32_t item, uint32_t store,
                         uint64_t count) {
    std::string payload;
    WireAppendString(&payload, bag);
    WireAppendU32(&payload, 2);
    WireAppendString(&payload, "item");
    WireAppendString(&payload, "store");
    WireAppendU64(&payload, 1);
    WireAppendU32(&payload, item);
    WireAppendU32(&payload, store);
    WireAppendU64(&payload, count);
    return payload;
  };

  // BEGIN / buffered deltas / COMMIT entirely over frames: one atomic
  // two-bag generation, same response text as the text verbs.
  raw.clear();
  session.HandleData(frame(kFrameBegin, "") +
                         frame(kFrameInsert, rows_payload("orders", 2, 0, 1)) +
                         frame(kFrameDelete, rows_payload("stock", 0, 0, 1)) +
                         frame(kFrameCommit, ""),
                     &raw);
  auto frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].first, kFrameOk);
  EXPECT_EQ(frames[0].second, "BEGIN");
  EXPECT_EQ(frames[1].second, "INSERT orders 1 rows buffered");
  EXPECT_EQ(frames[2].second, "DELETE stock 1 rows buffered");
  EXPECT_EQ(frames[3].first, kFrameOk);
  EXPECT_EQ(frames[3].second, "COMMIT 2 rows 2 bags");

  // A BEGIN/COMMIT frame carrying payload bytes is malformed — refused
  // without opening or closing anything.
  raw.clear();
  session.HandleData(frame(kFrameBegin, "x"), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_NE(frames[0].second.find("no payload"), std::string::npos);
  raw.clear();
  session.HandleData(frame(kFrameCommit, "\x01"), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  // No transaction was opened by the bad BEGIN frame above.
  raw.clear();
  session.HandleData(frame(kFrameCommit, ""), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_NE(frames[0].second.find("no transaction is open"), std::string::npos);
}

TEST(ServerSessionTest, DictAndRowsFramesObeyTheTransactionGate) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  std::string raw;
  session.HandleData("UPGRADE BINARY\n", &raw);
  ASSERT_TRUE(session.binary_mode());

  std::string dict;
  WireAppendString(&dict, "other");
  WireAppendU32(&dict, 1);
  WireAppendString(&dict, "x");
  const std::string rows = RowsPayload("y", {"item"}, {{{0}, 1}});

  // Inside BEGIN/COMMIT the frame forms of DICT and LOADU32 are refused
  // exactly as the text blocks are (PROTOCOL.md, BEGIN / COMMIT).
  raw.clear();
  session.HandleData(Frame(kFrameBegin, "") + Frame(kFrameDict, dict) +
                         Frame(kFrameRows, rows) + Frame(kFrameCommit, ""),
                     &raw);
  auto frames = ReadFrames(raw);
  ASSERT_EQ(frames.size(), 4u);
  for (size_t f : {1, 2}) {
    ASSERT_EQ(frames[f].first, kFrameErr) << frames[f].second;
    EXPECT_EQ(frames[f].second[0], static_cast<char>(WireErrorTag(WireError::kState)));
    EXPECT_NE(frames[f].second.find("not allowed inside a transaction"),
              std::string::npos)
        << frames[f].second;
  }
  EXPECT_EQ(frames[3].second, "COMMIT 0 rows");

  // Nothing was staged: the dictionary and the bag are still new to the
  // session, and the bag set is the two sealed bags.
  raw.clear();
  session.HandleData(Frame(kFrameCmd, "SEAL") + Frame(kFrameDict, dict) +
                         Frame(kFrameRows, rows),
                     &raw);
  frames = ReadFrames(raw);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].second, "SEAL 2 bags 2 reused");
  EXPECT_EQ(frames[1].second, "DICT other 1");
  EXPECT_EQ(frames[2].second, "LOADU32 y 1 rows");
}

TEST(ServerSessionTest, EachQueryTouchesItsCollectionOnce) {
  // Per-collection `hits` counts snapshot acquisitions; one query is one
  // acquisition whatever its verb or framing, so its operands resolve
  // against the same generation it runs on.
  struct Query {
    std::string line;   // text form
    std::string frame;  // binary form
  };
  std::string twobag, witness, minimal, kwise;
  WireAppendU32(&twobag, 0);
  WireAppendU32(&twobag, 1);
  witness = twobag + std::string(1, '\0');
  minimal = twobag + std::string(1, '\1');
  WireAppendU32(&kwise, 2);
  const std::vector<Query> queries = {
      {"TWOBAG 0 1", Frame(kFrameTwoBag, twobag)},
      {"TWOBAG orders stock", Frame(kFrameCmd, "TWOBAG orders stock")},
      {"PAIRWISE", Frame(kFramePairwise, "")},
      {"GLOBAL", Frame(kFrameGlobal, "")},
      {"KWISE 2", Frame(kFrameKWise, kwise)},
      {"WITNESS 0 1", Frame(kFrameWitness, witness)},
      {"WITNESS 0 1 MINIMAL", Frame(kFrameWitness, minimal)},
      {"WITNESS orders stock", Frame(kFrameCmd, "WITNESS orders stock")},
  };
  for (bool binary : {false, true}) {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    Feed(&session, kSetupScript);
    std::string raw;
    if (binary) session.HandleData("UPGRADE BINARY\n", &raw);
    ServerSession observer(&registry, nullptr);  // STATS <name> never touches
    auto hits = [&observer] {
      for (const std::string& line : observer.HandleScript("STATS default\n")) {
        if (line.rfind("hits ", 0) == 0) return std::stoull(line.substr(5));
      }
      ADD_FAILURE() << "no hits key";
      return 0ull;
    };
    for (const Query& q : queries) {
      unsigned long long before = hits();
      raw.clear();
      session.HandleData(binary ? q.frame : q.line + "\n", &raw);
      EXPECT_EQ(hits(), before + 1)
          << q.line << (binary ? " (binary)" : " (text)");
    }
  }
}

TEST(ServerSessionTest, WitnessAboveTheJoinCapIsAnEngineError) {
  // Two consistent 2049-row bags over disjoint schemas: |R' ⋈ S'| =
  // 2049² exceeds the engine's 2^22 join cap, so WITNESS is refused
  // before N(R, S) is built, and the session keeps answering.
  std::string script = "LOAD r A\n";
  for (int v = 0; v < 2049; ++v) script += std::to_string(v) + " : 1\n";
  script += "END\nLOAD s B\n";
  for (int v = 0; v < 2049; ++v) script += std::to_string(v) + " : 1\n";
  script += "END\nSEAL\n";
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = Feed(&session, script);
  ASSERT_EQ(out.back(), "OK SEAL 2 bags");
  for (const char* query : {"WITNESS r s\n", "WITNESS 0 1 MINIMAL\n"}) {
    out = Feed(&session, query);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "ERR E_ENGINE join support exceeds cap (4194304)") << query;
  }
  out = Feed(&session, "TWOBAG r s\nGLOBAL\n");
  EXPECT_EQ(out, (std::vector<std::string>{"OK CONSISTENT", "OK CONSISTENT"}));
}

TEST(EngineSnapshotTest, KWiseAtLeastMAnswersLikeTheSweep) {
  // KWISE k with k >= m is GLOBAL on the whole collection: the snapshot
  // answers it from the memoized GLOBAL verdict. Its answer and failing
  // subset must equal the k-subset sweep's, whichever query runs first.
  Rng rng(77);
  BagGenOptions gen;
  gen.support_size = 12;
  gen.domain_size = 3;
  std::vector<std::vector<Bag>> collections;
  for (size_t n : {3, 4}) {
    collections.push_back(MakeGloballyConsistentCollection(*MakePath(n), gen, &rng)->bags());
    collections.push_back(MakeGloballyConsistentCollection(*MakeCycle(n), gen, &rng)->bags());
  }
  // Pairwise inconsistent: bump one row of the last bag of a path.
  std::vector<Bag> broken = collections[0];
  ASSERT_TRUE(broken.back().Add(broken.back().RowAt(0), 1).ok());
  collections.push_back(broken);
  // Pairwise consistent, globally inconsistent: a != b, b != c, a != c.
  std::vector<Bag> parity;
  for (const Schema& x : {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{0, 2}}}) {
    parity.push_back(*MakeBag(x, {{{0, 1}, 1}, {{1, 0}, 1}}));
  }
  collections.push_back(parity);

  std::vector<size_t> verdicts(2, 0);  // inconsistent, consistent
  for (const std::vector<Bag>& bags : collections) {
    size_t m = bags.size();
    for (size_t k : {m, m + 1, m + 5}) {
      for (bool global_first : {false, true}) {
        EngineSnapshot::BuildInputs in;
        for (size_t i = 0; i < m; ++i) in.names.push_back("b" + std::to_string(i));
        in.bags = bags;
        auto snapshot = EngineSnapshot::Build(std::move(in), 1);
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
        std::optional<std::vector<size_t>> want_subset;
        Result<bool> want =
            (*snapshot)->engine()->KWiseConsistentSealed(k, &want_subset);
        ASSERT_TRUE(want.ok());
        if (global_first) {
          ASSERT_EQ(*(*snapshot)->Global(), *want);
        }
        std::optional<std::vector<size_t>> got_subset;
        Result<bool> got = (*snapshot)->KWise(k, &got_subset);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, *want) << "m=" << m << " k=" << k;
        EXPECT_EQ(got_subset, want_subset) << "m=" << m << " k=" << k;
        EXPECT_EQ((*snapshot)->engine()->cached_global_verdict(),
                  std::optional<bool>(*want));
        EXPECT_EQ(*(*snapshot)->Global(), *want);
        ++verdicts[*want ? 1 : 0];
      }
    }
  }
  EXPECT_GT(verdicts[0], 0u);
  EXPECT_GT(verdicts[1], 0u);
}

// Twin sessions on twin registries, one framing each: every request runs
// through both (EncodeTextRequest / EncodeFrameRequest), and the binary
// answers rendered by FrameToLines must equal the text answers line for
// line. Frame-grammar errors name their framing, so those compare the
// error class only.
TEST(ServerSessionTest, EveryVerbAnswersAlikeInBothFramings) {
  CollectionRegistry text_registry;
  CollectionRegistry binary_registry;
  ServerSession text(&text_registry, nullptr);
  ServerSession binary(&binary_registry, nullptr);
  std::string raw;
  binary.HandleData("UPGRADE BINARY\n", &raw);
  ASSERT_TRUE(binary.binary_mode());

  auto text_lines = [&text](const std::string& bytes) {
    std::string out;
    text.HandleData(bytes, &out);
    std::vector<std::string> lines;
    std::istringstream iss(out);
    for (std::string line; std::getline(iss, line);) lines.push_back(line);
    return lines;
  };
  auto binary_lines = [&binary](const std::string& bytes) {
    std::string out;
    binary.HandleData(bytes, &out);
    std::vector<std::string> lines;
    for (const auto& [opcode, payload] : ReadFrames(out)) {
      Result<std::vector<std::string>> rendered = FrameToLines(opcode, payload);
      EXPECT_TRUE(rendered.ok()) << rendered.status().ToString();
      if (rendered.ok()) lines.insert(lines.end(), rendered->begin(), rendered->end());
    }
    return lines;
  };
  // Runs one request through both sessions; returns the text answer.
  auto both = [&](const WireRequest& request) {
    std::string line = EncodeTextRequest(request);
    line = line.substr(0, line.find('\n'));
    Result<std::string> frame = EncodeFrameRequest(request);
    EXPECT_TRUE(frame.ok()) << line << ": " << frame.status().ToString();
    std::vector<std::string> want = text_lines(EncodeTextRequest(request));
    EXPECT_EQ(binary_lines(frame.ok() ? *frame : ""), want) << line;
    EXPECT_FALSE(want.empty()) << line;
    return want.empty() ? std::string() : want.front();
  };
  auto same_class = [&](const std::string& text_bytes,
                        const std::string& frame_bytes) {
    std::vector<std::string> t = text_lines(text_bytes);
    std::vector<std::string> b = binary_lines(frame_bytes);
    ASSERT_EQ(t.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(t[0].substr(0, t[0].find(' ', 4)), b[0].substr(0, b[0].find(' ', 4)))
        << t[0] << " vs " << b[0];
    EXPECT_EQ(t[0].rfind("ERR E_", 0), 0u) << t[0];
  };

  auto verb = [](WireVerb v) {
    WireRequest r;
    r.verb = v;
    return r;
  };
  auto dict = [&](const std::string& attr, std::vector<std::string> values) {
    WireRequest r = verb(WireVerb::kDict);
    r.name = attr;
    r.values = std::move(values);
    return r;
  };
  auto rows = [&](WireVerb v, const std::string& bag, std::vector<std::string> attrs,
                  std::vector<uint32_t> ids, std::vector<uint64_t> counts) {
    WireRequest r = verb(v);
    r.name = bag;
    r.rows.attrs = std::move(attrs);
    r.rows.ids = std::move(ids);
    r.rows.counts = std::move(counts);
    return r;
  };
  auto pair = [&](WireVerb v, WireBagRef i, WireBagRef j, bool minimal = false) {
    WireRequest r = verb(v);
    r.bag_i = std::move(i);
    r.bag_j = std::move(j);
    r.minimal = minimal;
    return r;
  };
  auto index = [](uint64_t i) { return WireBagRef{i, ""}; };
  auto named = [](const std::string& n) { return WireBagRef{0, n}; };
  auto expect_class = [](const std::string& line, const char* code) {
    EXPECT_EQ(line.rfind(std::string("ERR ") + code, 0), 0u) << line;
  };

  // DICT, then LOADU32 / ROWS (one bag with its header permuted).
  EXPECT_EQ(both(dict("item", {"apple", "banana", "cherry"})), "OK DICT item 3");
  EXPECT_EQ(both(dict("store", {"downtown", "uptown"})), "OK DICT store 2");
  EXPECT_EQ(both(rows(WireVerb::kLoadU32, "orders", {"item", "store"},
                      {0, 0, 1, 1}, {2, 1})),
            "OK LOADU32 orders 2 rows");
  EXPECT_EQ(both(rows(WireVerb::kLoadU32, "stock", {"store", "item"},
                      {0, 0, 1, 1}, {2, 1})),
            "OK LOADU32 stock 2 rows");
  // Load errors: an id never issued, a duplicate tuple, a taken name, a
  // reserved name, an attribute without a dictionary.
  expect_class(both(rows(WireVerb::kLoadU32, "bad", {"item", "store"}, {9, 0}, {1})),
               "E_RANGE");
  expect_class(both(rows(WireVerb::kLoadU32, "dup", {"item", "store"},
                         {0, 0, 0, 0}, {1, 2})),
               "E_PARSE");
  expect_class(both(rows(WireVerb::kLoadU32, "orders", {"item"}, {0}, {1})),
               "E_STATE");
  expect_class(both(rows(WireVerb::kLoadU32, "123", {"item"}, {0}, {1})),
               "E_PARSE");
  expect_class(both(rows(WireVerb::kLoadU32, "nodict", {"region"}, {0}, {1})),
               "E_STATE");
  expect_class(both(dict("item", {"pear"})), "E_STATE");
  // A count that disagrees with the data it heads.
  std::string short_dict;
  WireAppendString(&short_dict, "region");
  WireAppendU32(&short_dict, 2);
  WireAppendString(&short_dict, "north");
  same_class("DICT region 2\nnorth\nEND\n", Frame(kFrameDict, short_dict));
  std::string short_rows = RowsPayload("short", {"item"}, {{{0}, 1}});
  short_rows.resize(short_rows.size() - 1);
  same_class("LOADU32 short item\n0 :\nEND\n", Frame(kFrameRows, short_rows));

  EXPECT_EQ(both(verb(WireVerb::kSeal)), "OK SEAL 2 bags");

  // Queries, by index (query frames) and by name (CMD frames).
  EXPECT_EQ(both(pair(WireVerb::kTwoBag, index(0), index(1))), "OK CONSISTENT");
  EXPECT_EQ(both(pair(WireVerb::kTwoBag, named("orders"), named("stock"))),
            "OK CONSISTENT");
  EXPECT_EQ(both(verb(WireVerb::kPairwise)), "OK CONSISTENT");
  EXPECT_EQ(both(verb(WireVerb::kGlobal)), "OK CONSISTENT");
  WireRequest kwise = verb(WireVerb::kKWise);
  kwise.k = 2;
  EXPECT_EQ(both(kwise), "OK CONSISTENT");
  EXPECT_EQ(both(pair(WireVerb::kWitness, index(0), index(1))), "OK WITNESS 2");
  EXPECT_EQ(both(pair(WireVerb::kWitness, index(0), index(1), true)), "OK WITNESS 2");
  EXPECT_EQ(both(pair(WireVerb::kWitness, named("orders"), index(1), true)),
            "OK WITNESS 2");
  expect_class(both(pair(WireVerb::kTwoBag, index(0), index(7))), "E_RANGE");
  expect_class(both(pair(WireVerb::kTwoBag, named("orders"), named("nosuch"))),
               "E_STATE");

  // INSERT / DELETE: published deltas, then their errors.
  EXPECT_EQ(both(rows(WireVerb::kInsert, "stock", {"item", "store"}, {2, 0}, {5})),
            "OK INSERT stock 1 rows 2 bags 1 reused");
  EXPECT_EQ(both(pair(WireVerb::kTwoBag, index(0), index(1))), "OK INCONSISTENT");
  EXPECT_EQ(both(verb(WireVerb::kPairwise)), "OK INCONSISTENT 0 1");
  EXPECT_EQ(both(rows(WireVerb::kDelete, "stock", {"store", "item"}, {0, 2}, {5})),
            "OK DELETE stock 1 rows 2 bags 1 reused");
  expect_class(both(rows(WireVerb::kInsert, "stock", {"item", "store"}, {9, 0}, {1})),
               "E_RANGE");
  expect_class(both(rows(WireVerb::kDelete, "stock", {"item", "store"}, {0, 0}, {99})),
               "E_RANGE");
  expect_class(both(rows(WireVerb::kInsert, "nosuch", {"item"}, {0}, {1})), "E_STATE");
  expect_class(both(rows(WireVerb::kInsert, "stock", {"item"}, {0}, {1})), "E_PARSE");

  // BEGIN / COMMIT, with the in-transaction refusals.
  EXPECT_EQ(both(verb(WireVerb::kBegin)), "OK BEGIN");
  expect_class(both(verb(WireVerb::kBegin)), "E_STATE");
  EXPECT_EQ(both(rows(WireVerb::kInsert, "orders", {"item", "store"}, {2, 0}, {5})),
            "OK INSERT orders 1 rows buffered");
  expect_class(both(dict("region", {"north"})), "E_STATE");
  expect_class(both(rows(WireVerb::kLoadU32, "more", {"item"}, {0}, {1})), "E_STATE");
  expect_class(both(verb(WireVerb::kSeal)), "E_STATE");
  EXPECT_EQ(both(rows(WireVerb::kInsert, "stock", {"store", "item"}, {0, 2}, {5})),
            "OK INSERT stock 1 rows buffered");
  EXPECT_EQ(both(verb(WireVerb::kCommit)), "OK COMMIT 2 rows 2 bags");
  expect_class(both(verb(WireVerb::kCommit)), "E_STATE");
  // The witness prints every multiplicity the two framings loaded.
  EXPECT_EQ(both(pair(WireVerb::kWitness, index(0), index(1))), "OK WITNESS 3");

  // STATS, global and per collection, agree key for key.
  EXPECT_EQ(both(verb(WireVerb::kStats)), "OK STATS");
  WireRequest stats = verb(WireVerb::kStats);
  stats.name = "default";
  EXPECT_EQ(both(stats), "OK STATS");
}

TEST(BagcdServerTest, ShutdownCommandStopsTheServer) {
  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<BagcdClient> client =
      BagcdClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendLine("SHUTDOWN").ok());
  Result<std::string> bye = client->ReadLine();
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK BYE");
  (*server)->Wait();  // returns because the command requested shutdown
}

}  // namespace
}  // namespace bagc
