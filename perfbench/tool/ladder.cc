// `perfbench_tool ladder <workload> <dir> <plan> <scratch> <rounds>`:
// replays a fixed sample of a workload's ops in-process, on the inputs
// in <dir>, down the layer ladder:
//
//   pool      ServerSession::HandleData with a 2-worker query pool
//   inline    the same bytes through a session without a pool
//   snapshot  the registry + EngineSnapshot calls the session makes
//   engine    the ConsistencyEngine calls beneath them
//   leaf      the solver, flow, segment and WAL functions beneath those
//
// Each op runs in both framings for the session rungs. A layer's self
// time is its rung minus the rung below it; run.py adds the wire rung
// from its traced pass. Also times the named layer entry points the
// benchmark reports per layer. Prints one JSON object.
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/collection.h"
#include "engine/consistency_engine.h"
#include "engine/two_bag_solver.h"
#include "hypergraph/acyclicity.h"
#include "server/collection_registry.h"
#include "server/protocol.h"
#include "server/session.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"
#include "tuple/segment.h"
#include "tuple/wal.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using bagc::CollectionRegistry;
using bagc::ServerSession;

constexpr size_t kQueryThreads = 2;     // bagcd --threads of the benchmark
constexpr size_t kMemBudgetBytes = 1u << 20;  // tenant_analyze's budget
constexpr size_t kReplayGenerations = 400;

struct Op {
  uint64_t id = 0;
  std::string framing;
  std::vector<std::string> lines;
};

std::vector<Op> ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read plan " + path);
  std::vector<Op> ops;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("op ", 0) == 0) {
      Op op;
      std::istringstream header(line.substr(3));
      header >> op.id >> op.framing;
      while (std::getline(in, line) && line != "endop") op.lines.push_back(line);
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

uint32_t U32(const std::string& token) {
  return static_cast<uint32_t>(std::stoul(token));
}

// One INSERT/DELETE block of an op: header tokens and id rows.
struct RowBlock {
  bool insert = true;
  std::string bag;
  std::vector<std::string> attrs;
  std::vector<std::vector<uint32_t>> rows;
  std::vector<uint64_t> counts;
};

// Splits an op into commands; INSERT/DELETE bodies are folded into blocks.
struct Command {
  std::vector<std::string> tokens;
  std::optional<RowBlock> block;
};

std::vector<Command> ParseCommands(const Op& op) {
  std::vector<Command> out;
  for (size_t i = 0; i < op.lines.size(); ++i) {
    Command cmd;
    cmd.tokens = bagc::WireTokens(op.lines[i]);
    if (cmd.tokens.empty()) continue;
    if (cmd.tokens[0] == "INSERT" || cmd.tokens[0] == "DELETE") {
      RowBlock block;
      block.insert = cmd.tokens[0] == "INSERT";
      block.bag = cmd.tokens[1];
      block.attrs.assign(cmd.tokens.begin() + 2, cmd.tokens.end());
      for (++i; i < op.lines.size() && op.lines[i] != "END"; ++i) {
        std::vector<std::string> t = bagc::WireTokens(op.lines[i]);
        std::vector<uint32_t> row;
        for (size_t c = 0; c < block.attrs.size(); ++c) row.push_back(U32(t[c]));
        block.rows.push_back(row);
        block.counts.push_back(std::stoull(t.back()));
      }
      cmd.block = std::move(block);
    }
    out.push_back(std::move(cmd));
  }
  return out;
}

std::string TextBytes(const Op& op) {
  std::string out;
  for (const std::string& line : op.lines) out += line + "\n";
  return out;
}

// The binary framing of the same requests, wrapped in the UPGRADE BINARY
// / CMD TEXT switch exactly as run.py sends a binary batch.
std::string BinaryBytes(const Op& op) {
  std::string out = "UPGRADE BINARY\n";
  for (const Command& cmd : ParseCommands(op)) {
    const std::vector<std::string>& t = cmd.tokens;
    std::string payload;
    uint8_t opcode = bagc::kFrameCmd;
    if (cmd.block) {
      const RowBlock& b = *cmd.block;
      opcode = b.insert ? bagc::kFrameInsert : bagc::kFrameDelete;
      bagc::WireAppendString(&payload, b.bag);
      bagc::WireAppendU32(&payload, static_cast<uint32_t>(b.attrs.size()));
      for (const std::string& a : b.attrs) bagc::WireAppendString(&payload, a);
      bagc::WireAppendU64(&payload, b.rows.size());
      for (size_t r = 0; r < b.rows.size(); ++r) {
        for (uint32_t id : b.rows[r]) bagc::WireAppendU32(&payload, id);
        bagc::WireAppendU64(&payload, b.counts[r]);
      }
    } else if (t[0] == "TWOBAG") {
      opcode = bagc::kFrameTwoBag;
      bagc::WireAppendU32(&payload, U32(t[1]));
      bagc::WireAppendU32(&payload, U32(t[2]));
    } else if (t[0] == "PAIRWISE") {
      opcode = bagc::kFramePairwise;
    } else if (t[0] == "GLOBAL") {
      opcode = bagc::kFrameGlobal;
    } else if (t[0] == "KWISE") {
      opcode = bagc::kFrameKWise;
      bagc::WireAppendU32(&payload, U32(t[1]));
    } else if (t[0] == "WITNESS") {
      opcode = bagc::kFrameWitness;
      bagc::WireAppendU32(&payload, U32(t[1]));
      bagc::WireAppendU32(&payload, U32(t[2]));
      payload.push_back(t.size() > 3 && t[3] == "MINIMAL" ? 1 : 0);
    } else if (t[0] == "BEGIN") {
      opcode = bagc::kFrameBegin;
    } else if (t[0] == "COMMIT") {
      opcode = bagc::kFrameCommit;
    } else {
      std::string line;
      for (size_t i = 0; i < t.size(); ++i) line += (i ? " " : "") + t[i];
      payload = line;
    }
    bagc::WireAppendFrame(&out, opcode, payload);
  }
  bagc::WireAppendFrame(&out, bagc::kFrameCmd, "TEXT");
  return out;
}

// True when a session's response bytes carry an error, in either framing.
bool HasError(const std::string& out) {
  if (out.find("ERR ") != std::string::npos) return true;
  size_t p = out.find('\n');  // the OK UPGRADE BINARY line, if any
  if (out.rfind("OK UPGRADE BINARY", 0) != 0) return false;
  for (++p; p + bagc::kWireFrameHeaderBytes <= out.size();) {
    uint32_t len = static_cast<uint8_t>(out[p]) |
                   static_cast<uint32_t>(static_cast<uint8_t>(out[p + 1])) << 8 |
                   static_cast<uint32_t>(static_cast<uint8_t>(out[p + 2])) << 16 |
                   static_cast<uint32_t>(static_cast<uint8_t>(out[p + 3])) << 24;
    if (static_cast<uint8_t>(out[p + 4]) == bagc::kFrameErr) return true;
    p += bagc::kWireFrameHeaderBytes + len;
  }
  return false;
}

double TimeSession(ServerSession* session, const std::string& bytes) {
  std::string out;
  double t0 = NowUs();
  session->HandleData(bytes, &out);
  double us = NowUs() - t0;
  if (HasError(out)) Die("ladder session answered an error: " + out.substr(0, 200));
  return us;
}

void Script(ServerSession* session, const std::string& script) {
  for (const std::string& r : session->HandleScript(script)) {
    if (r.rfind("ERR", 0) == 0) Die("ladder set-up failed: " + r);
  }
}

struct OpTimes {
  std::vector<double> pool_text, inline_text, pool_binary, inline_binary;
  std::vector<double> snapshot, engine, leaf;
};

// Named layer entry-point samples, reported as medians.
using Samples = std::map<std::string, std::vector<double>>;

// ---- per-workload rungs ------------------------------------------------------

class Ladder {
 public:
  Ladder(std::string workload, std::string dir, std::string scratch)
      : workload_(std::move(workload)), dir_(std::move(dir)),
        scratch_(std::move(scratch)), pool_(kQueryThreads) {}

  void Run(const std::vector<Op>& ops, size_t rounds);
  std::string ToJson(const std::vector<Op>& ops) const;

 private:
  std::string Seg(const std::string& name) const { return dir_ + "/" + name + ".seg"; }
  CollectionRegistry::Options RegistryOptions() const;
  void SealAll(CollectionRegistry* registry);
  // Session rung: one pass over every op in one framing.
  void SessionPass(const std::vector<Op>& ops, bool binary, bool pooled);
  void SnapshotPass(const std::vector<Op>& ops);
  void EnginePass(const std::vector<Op>& ops);
  void LeafPass(const std::vector<Op>& ops);
  void ReplayProbe(const std::vector<Op>& ops);
  bagc::DeltaBatch Batch(const Op& op, const bagc::EngineSnapshot& snap) const;

  std::string workload_, dir_, scratch_;
  bagc::ThreadPool pool_;
  std::unique_ptr<CollectionRegistry> registry_;
  std::vector<OpTimes> times_;  // per op, one sample per round and rung
  Samples samples_;
  uint64_t wal_generation_ = 0;
};

CollectionRegistry::Options Ladder::RegistryOptions() const {
  CollectionRegistry::Options options;
  if (workload_ == "tenant_analyze") options.mem_budget_bytes = kMemBudgetBytes;
  if (workload_ == "durable_commit") options.wal_dir = scratch_ + "/wal";
  return options;
}

// Seals the workload's collections into `registry` the way run.py's
// set-up does over the wire.
void Ladder::SealAll(CollectionRegistry* registry) {
  ServerSession session(registry, nullptr);
  if (workload_ == "tenant_analyze") {
    for (size_t t = 0;; ++t) {
      std::string name = "t" + std::to_string(t);
      std::ifstream probe(Seg(name));
      if (!probe) break;
      Script(&session, "ATTACH " + name + "\nLOADSEG " + Seg(name) +
                           "\nSEAL\nDETACH\nRESET HARD\n");
    }
  } else {
    Script(&session, "LOADSEG " + Seg("tenant") + "\nSEAL\n");
  }
}

void Ladder::SessionPass(const std::vector<Op>& ops, bool binary, bool pooled) {
  ServerSession session(registry_.get(), pooled ? &pool_ : nullptr);
  // A commit needs seal lineage: the session that commits must have
  // sealed the generation it derives from.
  if (workload_ == "durable_commit") {
    Script(&session, "LOADSEG " + Seg("tenant") + "\nSEAL\n");
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    double us = TimeSession(&session, binary ? BinaryBytes(ops[i]) : TextBytes(ops[i]));
    OpTimes& t = times_[i];
    (binary ? (pooled ? t.pool_binary : t.inline_binary)
            : (pooled ? t.pool_text : t.inline_text))
        .push_back(us);
  }
}

bagc::DeltaBatch Ladder::Batch(const Op& op, const bagc::EngineSnapshot& snap) const {
  bagc::DeltaBatch batch;
  for (const Command& cmd : ParseCommands(op)) {
    if (!cmd.block) continue;
    const RowBlock& b = *cmd.block;
    size_t index = Must(snap.ResolveBag(b.bag), "resolve bag");
    const bagc::Schema& schema = snap.engine()->collection().bag(index).schema();
    // Header column -> schema slot.
    std::vector<size_t> slot(b.attrs.size());
    for (size_t c = 0; c < b.attrs.size(); ++c) {
      bagc::AttrId id = Must(snap.catalog().Lookup(b.attrs[c]), "attr lookup");
      for (size_t s = 0; s < schema.arity(); ++s) {
        if (schema.at(s) == id) slot[c] = s;
      }
    }
    bagc::BagDeltas deltas;
    deltas.bag_index = index;
    for (size_t r = 0; r < b.rows.size(); ++r) {
      std::vector<bagc::ValueId> ids(schema.arity());
      for (size_t c = 0; c < b.attrs.size(); ++c) ids[slot[c]] = b.rows[r][c];
      int64_t count = static_cast<int64_t>(b.counts[r]);
      deltas.deltas.push_back({bagc::Tuple::OfIds(ids), b.insert ? count : -count});
    }
    batch.push_back(std::move(deltas));
  }
  return batch;
}

void Ladder::SnapshotPass(const std::vector<Op>& ops) {
  auto c = Must(registry_->Attach(bagc::kDefaultCollectionName), "attach default");
  for (size_t i = 0; i < ops.size(); ++i) {
    double total = 0;
    if (workload_ == "durable_commit") {
      std::shared_ptr<const bagc::EngineSnapshot> prev = registry_->Peek(c.get());
      bagc::DeltaBatch batch = Batch(ops[i], *prev);
      double t0 = NowUs();
      auto next = Must(bagc::EngineSnapshot::BuildDeltaBatch(prev, batch, c->NextSeq()),
                       "build delta batch");
      double t1 = NowUs();
      MustOk(registry_->PublishDelta(c.get(), next, batch), "publish delta");
      double t2 = NowUs();
      samples_["snapshot.build_delta_batch_us"].push_back(t1 - t0);
      samples_["registry.publish_delta_us"].push_back(t2 - t1);
      total = t2 - t0;
    } else {
      std::shared_ptr<const bagc::EngineSnapshot> snap;
      for (const Command& cmd : ParseCommands(ops[i])) {
        const std::vector<std::string>& t = cmd.tokens;
        double t0 = NowUs();
        if (t[0] == "ATTACH") {
          c = Must(registry_->Attach(t[1]), "attach");
          snap = nullptr;
          total += NowUs() - t0;
          continue;
        }
        if (snap == nullptr || workload_ == "serve_mixed") {
          // The session re-acquires per query; only the first acquire of
          // a tenant op pays the reload.
          bool reload = snap == nullptr && workload_ == "tenant_analyze";
          snap = Must(registry_->Acquire(c.get()), "acquire");
          samples_[reload ? "registry.acquire_reload_us" : "registry.acquire_hit_us"]
              .push_back(NowUs() - t0);
        }
        if (t[0] == "TWOBAG") {
          Must(snap->TwoBag(U32(t[1]), U32(t[2])), "twobag");
        } else if (t[0] == "PAIRWISE") {
          (void)snap->Pairwise();
        } else if (t[0] == "GLOBAL") {
          Must(snap->Global(), "global");
        } else if (t[0] == "KWISE") {
          std::optional<std::vector<size_t>> failing;
          Must(snap->KWise(U32(t[1]), &failing), "kwise");
        } else if (t[0] == "WITNESS") {
          Must(snap->Witness(U32(t[1]), U32(t[2]), t.size() > 3), "witness");
        }
        total += NowUs() - t0;
      }
    }
    times_[i].snapshot.push_back(total);
  }
}

void Ladder::EnginePass(const std::vector<Op>& ops) {
  if (workload_ == "durable_commit") {
    auto c = Must(registry_->Attach(bagc::kDefaultCollectionName), "attach default");
    std::shared_ptr<const bagc::EngineSnapshot> base = registry_->Peek(c.get());
    std::optional<bagc::ConsistencyEngine> current;
    for (size_t i = 0; i < ops.size(); ++i) {
      bagc::DeltaBatch batch = Batch(ops[i], *base);
      const bagc::ConsistencyEngine& prev = current ? *current : *base->engine();
      bagc::DeltaOutcome outcome;
      double t0 = NowUs();
      bagc::ConsistencyEngine next =
          Must(bagc::ConsistencyEngine::MakeDeltaBatch(prev, batch, &outcome),
               "make delta batch");
      double us = NowUs() - t0;
      samples_["engine.make_delta_batch_us"].push_back(us);
      samples_["engine.dirty_pairs_per_commit"].push_back(outcome.dirty_pairs.size());
      samples_["engine.marginal_fills_per_commit"].push_back(next.marginal_fills());
      current.emplace(std::move(next));
      times_[i].engine.push_back(us);
    }
    return;
  }
  if (workload_ == "serve_mixed") {
    auto snap = registry_->Peek(registry_->Default().get());
    const bagc::ConsistencyEngine* engine = snap->engine();
    for (size_t i = 0; i < ops.size(); ++i) {
      double total = 0;
      for (const Command& cmd : ParseCommands(ops[i])) {
        const std::vector<std::string>& t = cmd.tokens;
        double t0 = NowUs();
        if (t[0] == "TWOBAG") {
          Must(engine->TwoBagSealed(U32(t[1]), U32(t[2])), "twobag sealed");
          samples_["engine.twobag_sealed_us"].push_back(NowUs() - t0);
        } else if (t[0] == "KWISE") {
          std::optional<std::vector<size_t>> failing;
          Must(engine->KWiseConsistentSealed(U32(t[1]), &failing), "kwise sealed");
          samples_["engine.kwise3_sealed_us"].push_back(NowUs() - t0);
        } else if (t[0] == "PAIRWISE") {
          (void)engine->cached_pairwise_verdict();
        } else if (t[0] == "GLOBAL") {
          (void)engine->cached_global_verdict();
        }
        total += NowUs() - t0;
      }
      times_[i].engine.push_back(total);
    }
    return;
  }
  // tenant_analyze: a cold op maps the segment, seals a fresh engine and
  // answers the queries on it — what the registry reload and the
  // snapshot calls do beneath the session.
  for (size_t i = 0; i < ops.size(); ++i) {
    std::vector<Command> cmds = ParseCommands(ops[i]);
    double t0 = NowUs();
    SegmentInputs in = LoadSegment(Seg(cmds[0].tokens[1]));
    bagc::BagCollection coll = Must(bagc::BagCollection::Make(in.bags), "collection");
    bagc::EngineOptions options;
    options.dictionaries = in.dicts;
    double t1 = NowUs();
    bagc::ConsistencyEngine engine =
        Must(bagc::ConsistencyEngine::Make(coll, options), "engine make");
    samples_["engine.make_us"].push_back(NowUs() - t1);
    bool acyclic = bagc::IsAcyclic(coll.hypergraph());
    for (size_t k = 1; k < cmds.size(); ++k) {
      const std::vector<std::string>& t = cmds[k].tokens;
      double q0 = NowUs();
      if (t[0] == "GLOBAL") {
        Must(engine.Global(), "global");
        samples_[acyclic ? "engine.global_acyclic_us" : "engine.global_exact_us"]
            .push_back(NowUs() - q0);
      } else if (t[0] == "KWISE") {
        std::optional<std::vector<size_t>> failing;
        Must(engine.KWiseConsistentSealed(U32(t[1]), &failing), "kwise");
      } else if (t[0] == "WITNESS") {
        Must(engine.WitnessSealed(U32(t[1]), U32(t[2]), t.size() > 3), "witness");
        samples_["engine.witness_us"].push_back(NowUs() - q0);
      }
    }
    times_[i].engine.push_back(NowUs() - t0);

    // The snapshot build on the same inputs, outside the rung sum.
    SegmentInputs again = LoadSegment(Seg(cmds[0].tokens[1]));
    bagc::EngineSnapshot::BuildInputs build;
    build.names = std::move(again.names);
    build.bags = std::move(again.bags);
    build.catalog = std::move(again.catalog);
    build.dicts = std::move(again.dicts);
    double b0 = NowUs();
    Must(bagc::EngineSnapshot::Build(std::move(build), 1), "snapshot build");
    samples_["snapshot.build_us"].push_back(NowUs() - b0);
  }
}

void Ladder::LeafPass(const std::vector<Op>& ops) {
  if (workload_ == "serve_mixed") {
    // Sealed-cache lookups call nothing beneath the engine.
    for (OpTimes& t : times_) t.leaf.push_back(0.0);
    return;
  }
  if (workload_ == "durable_commit") {
    std::string path = scratch_ + "/leaf.wal";
    std::remove(path.c_str());
    bagc::WalWriter writer = Must(bagc::WalWriter::Open(path), "open wal");
    auto snap = registry_->Peek(registry_->Default().get());
    for (size_t i = 0; i < ops.size(); ++i) {
      bagc::WalRecord record;
      record.generation = ++wal_generation_;
      for (const bagc::BagDeltas& d : Batch(ops[i], *snap)) {
        bagc::WalBagBlock block;
        block.bag_index = static_cast<uint32_t>(d.bag_index);
        block.arity = static_cast<uint32_t>(d.deltas.front().row.arity());
        for (const bagc::BagDelta& row : d.deltas) {
          for (bagc::ValueId id : row.row.ids()) block.ids.push_back(id);
          block.deltas.push_back(row.delta);
        }
        record.bags.push_back(std::move(block));
      }
      double t0 = NowUs();
      std::string encoded = Must(bagc::EncodeWalRecord(record), "encode wal");
      double t1 = NowUs();
      MustOk(writer.AppendEncoded(record, encoded), "append wal");
      double t2 = NowUs();
      samples_["wal.encode_us"].push_back(t1 - t0);
      samples_["wal.append_us"].push_back(t2 - t1);
      times_[i].leaf.push_back(t2 - t0);
    }
    return;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    std::vector<Command> cmds = ParseCommands(ops[i]);
    std::string seg = Seg(cmds[0].tokens[1]);
    SegmentInputs in = LoadSegment(seg);
    bagc::BagCollection coll = Must(bagc::BagCollection::Make(in.bags), "collection");
    bool acyclic = bagc::IsAcyclic(coll.hypergraph());
    double total = 0;
    double t0 = NowUs();
    Must(bagc::SegmentReader::Map(seg), "map segment");
    double map_us = NowUs() - t0;
    samples_["segment.map_us"].push_back(map_us);
    total += map_us;
    if (!acyclic) {
      double l0 = NowUs();
      bagc::ConsistencyLp lp = Must(bagc::BuildConsistencyLp(in.bags), "build lp");
      double l1 = NowUs();
      bagc::SolveStats stats;
      Must(bagc::SolveIntegerFeasibility(lp, {}, &stats), "integer search");
      double l2 = NowUs();
      samples_["solver.lp_build_us"].push_back(l1 - l0);
      samples_["solver.integer_search_us"].push_back(l2 - l1);
      samples_["solver.search_nodes"].push_back(static_cast<double>(stats.nodes));
      total += l2 - l0;
    }
    bool minimal = false;
    for (const Command& cmd : cmds) {
      if (cmd.tokens[0] == "WITNESS") minimal = cmd.tokens.size() > 3;
    }
    bagc::TwoBagSolver solver;
    double w0 = NowUs();
    Must(solver.FindWitness(in.bags[0], in.bags[1]), "flow witness");
    double w1 = NowUs();
    samples_["flow.witness_us"].push_back(w1 - w0);
    if (minimal) {
      double m0 = NowUs();
      Must(solver.FindMinimalWitness(in.bags[0], in.bags[1]), "minimal witness");
      double m_us = NowUs() - m0;
      samples_["flow.minimal_witness_us"].push_back(m_us);
      total += m_us;
    } else {
      total += w1 - w0;
    }
    times_[i].leaf.push_back(total);
  }
}

// wal.replay_us_per_gen: journal kReplayGenerations commits through a
// session, then time a recovering registry folding them back over the
// base segment (ReadWalFile + apply), as bagcd does at startup.
void Ladder::ReplayProbe(const std::vector<Op>& ops) {
  std::string wal_dir = scratch_ + "/replay";
  {
    CollectionRegistry::Options options;
    options.wal_dir = wal_dir;
    CollectionRegistry writer_registry(options);
    ServerSession writer(&writer_registry, nullptr);
    Script(&writer, "LOADSEG " + Seg("tenant") + "\nSEAL\n");
    if (ops.size() % 2) Die("the replay journal needs an even op count");
    for (size_t g = 0; g < kReplayGenerations; ++g) {
      std::string out;
      writer.HandleData(TextBytes(ops[g % ops.size()]), &out);
      if (HasError(out)) Die("replay journal commit failed: " + out);
    }
  }
  for (int round = 0; round < 3; ++round) {
    CollectionRegistry::Options options;
    options.wal_dir = wal_dir;
    CollectionRegistry recovering(options);
    recovering.SetRecoveryMode(true);
    ServerSession loader(&recovering, nullptr);
    Script(&loader, "LOADSEG " + Seg("tenant") + "\nSEAL\n");
    double t0 = NowUs();
    uint64_t replayed = Must(recovering.ReplayWal(recovering.Default().get()), "replay");
    double us = NowUs() - t0;
    if (replayed != kReplayGenerations) Die("replay folded an unexpected count");
    samples_["wal.replay_us_per_gen"].push_back(us / static_cast<double>(replayed));
  }
}

void Ladder::Run(const std::vector<Op>& ops, size_t rounds) {
  std::filesystem::create_directories(scratch_ + "/wal");
  std::filesystem::create_directories(scratch_ + "/replay");
  registry_ = std::make_unique<CollectionRegistry>(RegistryOptions());
  SealAll(registry_.get());
  times_.assign(ops.size(), OpTimes());
  for (size_t r = 0; r < rounds; ++r) {
    SessionPass(ops, false, true);
    if (workload_ == "durable_commit") {
      // The pass sealed (resetting the WAL) and then committed every op.
      double user_bytes = 0;
      for (const Op& op : ops) user_bytes += static_cast<double>(TextBytes(op).size());
      samples_["wal.records_per_commit"].push_back(
          static_cast<double>(registry_->wal_records_total()) / static_cast<double>(ops.size()));
      samples_["wal.bytes_per_user_byte"].push_back(
          static_cast<double>(registry_->wal_bytes_total()) / user_bytes);
    }
    SessionPass(ops, false, false);
    SessionPass(ops, true, true);
    SessionPass(ops, true, false);
    if (workload_ == "durable_commit") {
      // Session passes leave the collection sealed by their own session;
      // re-seal once so the snapshot pass derives from a clean base.
      SealAll(registry_.get());
    }
    SnapshotPass(ops);
    EnginePass(ops);
    LeafPass(ops);
  }
  if (workload_ == "durable_commit") ReplayProbe(ops);
}

std::string Ladder::ToJson(const std::vector<Op>& ops) const {
  Json j;
  j.Raw("{").Key("ops").Raw("[");
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpTimes& t = times_[i];
    if (i) j.Raw(",");
    j.Raw("{").Key("id").Int(ops[i].id);
    j.Raw(",").Key("framing").Str(ops[i].framing);
    j.Raw(",").Key("pool_text_us").Num(Median(t.pool_text));
    j.Raw(",").Key("inline_text_us").Num(Median(t.inline_text));
    j.Raw(",").Key("pool_binary_us").Num(Median(t.pool_binary));
    j.Raw(",").Key("inline_binary_us").Num(Median(t.inline_binary));
    j.Raw(",").Key("snapshot_us").Num(Median(t.snapshot));
    j.Raw(",").Key("engine_us").Num(Median(t.engine));
    j.Raw(",").Key("leaf_us").Num(Median(t.leaf));
    j.Raw("}");
  }
  j.Raw("],").Key("functions").Raw("{");
  bool first = true;
  for (const auto& [name, values] : samples_) {
    if (!first) j.Raw(",");
    first = false;
    j.Key(name).Num(Median(values));
  }
  j.Raw("}}");
  return j.text();
}

}  // namespace

int RunLadder(const std::string& workload, const std::string& dir,
              const std::string& plan, const std::string& scratch, size_t rounds) {
  std::vector<Op> ops = ReadPlan(plan);
  if (ops.empty()) Die("empty plan " + plan);
  Ladder ladder(workload, dir, scratch);
  ladder.Run(ops, rounds);
  std::printf("%s\n", ladder.ToJson(ops).c_str());
  return 0;
}

}  // namespace perfbench
