// Result-store contracts (DESIGN.md §11): record codec round-trips and
// total decode, content-key shape, log persistence and first-write-wins,
// every corruption path degrading to recompute (torn tail, checksum
// flip, foreign file, unknown schema version), cross-process dedup via
// tail rescans, batched appends (put_many), the chunked scan and key
// index (a committed fixture log, frames across read chunks, a byte
// flipped after open, a map oracle over 20,000 keys), and the campaign-level
// story — the deterministic payload is byte-identical for disabled /
// cold / warm / mixed store state at any thread count, and a killed or
// cancelled campaign resumes recomputing only the missing cells.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "api/metrics.hpp"
#include "api/runner.hpp"
#include "core/csr_file.hpp"
#include "core/graph.hpp"
#include "store/key.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "run_cli.hpp"
#include "util/json.hpp"

namespace fne {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory under the test tmpdir.
[[nodiscard]] std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fne_store_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

[[nodiscard]] fs::path log_of(const std::string& dir) {
  return fs::path(dir) / "cells.log";
}

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

[[nodiscard]] Scenario small_scenario() {
  Scenario s;
  s.name = "store-unit";
  s.topology = {"mesh", Params{{"side", "10"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.2"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = 0.2;
  s.metrics.verify_trace = true;
  s.metrics.expansion = true;
  s.seed = 404;
  return s;
}

TEST(CellRecord, RoundTripsAComputedRunFieldForField) {
  ScenarioRunner runner(small_scenario());
  const ScenarioRun run = runner.run_isolated(runner.scenario().fault, 0);
  const std::string payload = encode_runs({&run, 1});
  const auto decoded = decode_runs(payload);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  const ScenarioRun& d = decoded->front();
  EXPECT_EQ(d.repetition, run.repetition);
  EXPECT_EQ(d.fault_seed, run.fault_seed);
  EXPECT_EQ(d.finder_seed, run.finder_seed);
  EXPECT_EQ(d.faults, run.faults);
  EXPECT_TRUE(d.alive == run.alive);
  EXPECT_TRUE(d.prune.survivors == run.prune.survivors);
  EXPECT_EQ(d.prune.total_culled, run.prune.total_culled);
  EXPECT_EQ(d.prune.iterations, run.prune.iterations);
  // Doubles round-trip by bit pattern, not by formatting.
  EXPECT_EQ(d.threshold, run.threshold);
  EXPECT_EQ(d.millis, run.millis);
  EXPECT_EQ(d.fragmentation.largest, run.fragmentation.largest);
  EXPECT_EQ(d.fragmentation.gamma, run.fragmentation.gamma);
  EXPECT_EQ(d.fragmentation.sizes_desc, run.fragmentation.sizes_desc);
  ASSERT_EQ(d.expansion.has_value(), run.expansion.has_value());
  if (run.expansion.has_value()) {
    EXPECT_EQ(d.expansion->lower, run.expansion->lower);
    EXPECT_EQ(d.expansion->upper, run.expansion->upper);
    EXPECT_EQ(d.expansion->exact, run.expansion->exact);
  }
  ASSERT_TRUE(d.trace.has_value());
  EXPECT_EQ(d.trace->valid, run.trace->valid);
  EXPECT_EQ(d.engine.runs, run.engine.runs);
  EXPECT_EQ(d.engine.iterations, run.engine.iterations);
  EXPECT_EQ(d.engine.eigensolves, run.engine.eigensolves);
}

TEST(CellRecord, DecodeIsTotalOnMalformedInput) {
  ScenarioRunner runner(small_scenario());
  const ScenarioRun run = runner.run_isolated(runner.scenario().fault, 0);
  const std::string payload = encode_runs({&run, 1});

  EXPECT_FALSE(decode_runs("").has_value());
  EXPECT_FALSE(decode_runs("garbage").has_value());
  // Every strict prefix is a short read somewhere, never a crash.
  for (std::size_t cut : {std::size_t{1}, std::size_t{7}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_FALSE(decode_runs(std::string_view(payload).substr(0, cut)).has_value())
        << "prefix of " << cut << " bytes must fail to decode";
  }
  // Trailing garbage is rejected too (the frame length said otherwise).
  EXPECT_FALSE(decode_runs(payload + "x").has_value());
  // Unknown format word.
  std::string wrong_format = payload;
  wrong_format[0] = static_cast<char>(0x7F);
  EXPECT_FALSE(decode_runs(wrong_format).has_value());
}

TEST(CellKey, NamesEveryInputAndSeparatesCells) {
  const Scenario s = small_scenario();
  const std::string key = store_cell_key(s, s.fault, 0);
  EXPECT_EQ(key.find("fne-cell|schema=4|"), 0u);
  EXPECT_NE(key.find("|topo=mesh|"), std::string::npos);
  EXPECT_NE(key.find("|fault=random|"), std::string::npos);
  EXPECT_NE(key.find("|rep=0"), std::string::npos);

  EXPECT_NE(key, store_cell_key(s, s.fault, 1)) << "rep is part of the cell identity";
  Scenario other_seed = s;
  other_seed.seed = 405;
  EXPECT_NE(key, store_cell_key(other_seed, other_seed.fault, 0));
  Scenario other_metrics = s;
  other_metrics.metrics.expansion = false;
  EXPECT_NE(key, store_cell_key(other_metrics, other_metrics.fault, 0));
  FaultSpec heavier = s.fault;
  heavier.params.set("p", 0.3);
  EXPECT_NE(key, store_cell_key(s, heavier, 0));

  const SweepSpec sweep{"p", {0.1, 0.2}, SweepMode::kMonotone};
  const std::string chain_key = store_cell_key(s, s.fault, 0, &sweep);
  EXPECT_NE(chain_key, key);
  EXPECT_NE(chain_key.find("|sweep=p:monotone:"), std::string::npos);
  EXPECT_EQ(chain_key, store_cell_key(s, s.fault, 0, &sweep)) << "keys are deterministic";

  // The bytes themselves are pinned: a stored cell is found only under
  // exactly the key that wrote it.
  EXPECT_EQ(store_cell_key(s, s.fault, 3),
            "fne-cell|schema=4|topo=mesh|topo_params=dims=2,side=10|"
            "build_seed=10555928141083241264|fault=random|fault_params=p=0.2|kind=edge|"
            "alpha=0x1.999999999999ap-3|epsilon=0x0p+0|fast=0|max_iter=100000|"
            "metrics=frag:1,exp:1,trace:1,bx:14|requests=|seed=404|rep=3");
  EXPECT_EQ(key.find("|finder="), std::string::npos)
      << "the cut finder runs its defaults; the key names no finder knobs";
  EXPECT_EQ(store_cell_key(store_key_prefix(s, s.fault), 3), store_cell_key(s, s.fault, 3));
}

// ---------------------------------------------------------------------------
// ResultStore file behavior
// ---------------------------------------------------------------------------

TEST(ResultStore, RoundTripsAndPersistsAcrossReopen) {
  const std::string dir = fresh_dir("roundtrip");
  {
    ResultStore store(dir);
    EXPECT_FALSE(store.load("k1").has_value());
    store.put("k1", "payload-one");
    store.put("k2", std::string("\x00\xff binary \n ok", 15));
    EXPECT_EQ(store.load("k1").value_or(""), "payload-one");
    const StoreStats st = store.stats();
    EXPECT_EQ(st.records, 2u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.bytes_committed, 11u + 15u);
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 2u);
  EXPECT_EQ(reopened.load("k1").value_or(""), "payload-one");
  EXPECT_EQ(reopened.load("k2").value_or(""), std::string("\x00\xff binary \n ok", 15));
  EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
  EXPECT_EQ(reopened.stats().corrupt_records, 0u);
}

TEST(ResultStore, FirstWriteWinsOnDuplicateKeys) {
  const std::string dir = fresh_dir("dupes");
  ResultStore store(dir);
  store.put("k", "first");
  const std::uint64_t committed = store.stats().bytes_committed;
  store.put("k", "second");
  EXPECT_EQ(store.stats().bytes_committed, committed) << "duplicate put must not append";
  EXPECT_EQ(store.load("k").value_or(""), "first");
}

TEST(ResultStore, TruncatedTailIsDroppedAndTheCellRecomputable) {
  const std::string dir = fresh_dir("torn");
  {
    ResultStore store(dir);
    store.put("k1", "intact-payload");
    store.put("k2", "doomed-payload");
  }
  // Simulate a process killed mid-append: cut into k2's frame.
  const std::string bytes = read_file(log_of(dir));
  write_file(log_of(dir), bytes.substr(0, bytes.size() - 5));

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 1u);
  EXPECT_GT(store.stats().truncated_bytes, 0u);
  EXPECT_EQ(store.load("k1").value_or(""), "intact-payload");
  EXPECT_FALSE(store.load("k2").has_value()) << "torn cell degrades to a miss";
  // The miss is recommittable, and the log is clean again afterwards.
  store.put("k2", "doomed-payload");
  EXPECT_EQ(store.load("k2").value_or(""), "doomed-payload");
  ResultStore again(dir);
  EXPECT_EQ(again.stats().records, 2u);
  EXPECT_EQ(again.stats().truncated_bytes, 0u);
}

TEST(ResultStore, ChecksumMismatchSkipsOnlyTheCorruptRecord) {
  const std::string dir = fresh_dir("checksum");
  std::uint64_t before_k2 = 0;
  {
    ResultStore store(dir);
    store.put("k1", "aaaa");
    before_k2 = fs::file_size(log_of(dir));
    store.put("k2", "bbbb");
    store.put("k3", "cccc");
  }
  // Flip one byte inside k2's payload (its frame starts at before_k2;
  // the payload's last byte is the last byte of the frame).
  std::string bytes = read_file(log_of(dir));
  const std::size_t flip = static_cast<std::size_t>(before_k2) + 24 + 2 + 4 - 1;
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5A);
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 2u);
  EXPECT_EQ(store.stats().corrupt_records, 1u);
  EXPECT_EQ(store.stats().truncated_bytes, 0u) << "framing intact: nothing to truncate";
  EXPECT_EQ(store.load("k1").value_or(""), "aaaa");
  EXPECT_FALSE(store.load("k2").has_value());
  EXPECT_EQ(store.load("k3").value_or(""), "cccc") << "records after the bad one survive";
  store.put("k2", "bbbb");
  EXPECT_EQ(store.load("k2").value_or(""), "bbbb");
}

TEST(ResultStore, UnknownSchemaVersionRotatesAsideAndStartsFresh) {
  const std::string dir = fresh_dir("schema");
  {
    ResultStore store(dir);
    store.put("k", "old-world");
  }
  // Bump the on-disk version to something this build does not read.
  std::string bytes = read_file(log_of(dir));
  bytes[8] = 99;
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 0u) << "unknown schema degrades to recompute";
  EXPECT_FALSE(store.load("k").has_value());
  store.put("k", "new-world");
  EXPECT_EQ(store.load("k").value_or(""), "new-world");
  EXPECT_TRUE(fs::exists(fs::path(dir) / "cells.log.v99"))
      << "the unreadable log is preserved, not destroyed";
}

TEST(ResultStore, ForeignFileRotatesToBadAndStartsFresh) {
  const std::string dir = fresh_dir("foreign");
  fs::create_directories(dir);
  write_file(log_of(dir), "this is not a store log at all");
  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 0u);
  store.put("k", "v");
  EXPECT_EQ(store.load("k").value_or(""), "v");
  EXPECT_TRUE(fs::exists(fs::path(dir) / "cells.log.bad"));
}

TEST(ResultStore, TwoStoresOnOneDirectoryDedupViaRefresh) {
  const std::string dir = fresh_dir("two-writers");
  ResultStore a(dir);
  ResultStore b(dir);
  a.put("ka", "from-a");
  EXPECT_FALSE(b.load("ka").has_value()) << "b has not rescanned yet";
  b.refresh();
  EXPECT_EQ(b.load("ka").value_or(""), "from-a");
  // b appends while a holds an older tail position; a's next put rescans
  // and picks b's record up without rewriting it.
  b.put("kb", "from-b");
  a.put("kc", "from-a-too");
  EXPECT_EQ(a.load("kb").value_or(""), "from-b");
  // Both race the same key: two frames may land, first wins everywhere.
  a.put("shared", "identical-bytes");
  b.put("shared", "identical-bytes");
  a.refresh();
  b.refresh();
  EXPECT_EQ(a.load("shared").value_or(""), "identical-bytes");
  EXPECT_EQ(b.load("shared").value_or(""), "identical-bytes");
  ResultStore fresh(dir);
  EXPECT_EQ(fresh.stats().records, 4u);
}

/// Bytes one frame of (key, payload) occupies in the log.
[[nodiscard]] std::uint64_t frame_size(const std::string& key, const std::string& payload) {
  return 24 + key.size() + payload.size();
}

TEST(ResultStore, PutManyWritesOneFramePerNewKeyFirstWriteWins) {
  const std::string dir = fresh_dir("put-many-dupes");
  ResultStore store(dir);
  store.put("old", "indexed-first");
  const std::uint64_t before = fs::file_size(log_of(dir));
  const std::vector<StoreRecord> batch = {{"a", "a-first"},
                                          {"old", "indexed-second"},
                                          {"a", "a-second"},
                                          {"b", "b-only"}};
  store.put_many(batch);
  EXPECT_EQ(store.load("a").value_or(""), "a-first") << "first write wins inside a batch";
  EXPECT_EQ(store.load("old").value_or(""), "indexed-first") << "and against the index";
  EXPECT_EQ(store.load("b").value_or(""), "b-only");
  EXPECT_EQ(fs::file_size(log_of(dir)),
            before + frame_size("a", "a-first") + frame_size("b", "b-only"))
      << "exactly one frame per new key";
  EXPECT_EQ(store.stats().bytes_committed,
            std::string("indexed-first").size() + std::string("a-firstb-only").size());
  store.put_many(batch);  // nothing new: no append at all
  EXPECT_EQ(fs::file_size(log_of(dir)),
            before + frame_size("a", "a-first") + frame_size("b", "b-only"));

  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 3u);
  EXPECT_EQ(reopened.stats().corrupt_records, 0u);
  EXPECT_EQ(reopened.load("a").value_or(""), "a-first");
}

TEST(ResultStore, PutManyInterleavedWithAnotherStoreRescansTheTail) {
  // Each store's batch lands after frames the other appended since its
  // last scan, so neither can index its batch from memory: every put_many
  // below takes the rescan path, and both stores still serve every key.
  const std::string dir = fresh_dir("put-many-interleave");
  ResultStore a(dir);
  ResultStore b(dir);
  a.put_many(std::vector<StoreRecord>{{"a1", "from-a"}, {"a2", "from-a"}});
  b.put_many(std::vector<StoreRecord>{{"b1", "from-b"}, {"b2", "from-b"}});
  EXPECT_EQ(b.load("a1").value_or(""), "from-a") << "b's rescan picked a's batch up";
  // a has not seen b1 yet, so it appends its own copy; b's frame is
  // earlier in the log and wins everywhere.
  a.put_many(std::vector<StoreRecord>{{"a3", "from-a"}, {"b1", "from-b"}});
  b.put_many(std::vector<StoreRecord>{{"b3", "from-b"}});
  a.refresh();
  for (ResultStore* store : {&a, &b}) {
    for (const char* key : {"a1", "a2", "a3"}) {
      EXPECT_EQ(store->load(key).value_or(""), "from-a") << key;
    }
    for (const char* key : {"b1", "b2", "b3"}) {
      EXPECT_EQ(store->load(key).value_or(""), "from-b") << key;
    }
    EXPECT_EQ(store->stats().records, 6u);
    EXPECT_EQ(store->stats().corrupt_records, 0u);
  }
  ResultStore fresh(dir);
  EXPECT_EQ(fresh.stats().records, 6u);
  EXPECT_EQ(fresh.stats().truncated_bytes, 0u);
}

TEST(ResultStore, TornMultiFrameBatchKeepsTheFramesBeforeTheTear) {
  const std::string dir = fresh_dir("put-many-torn");
  const std::vector<StoreRecord> batch = {
      {"k1", "payload-1"}, {"k2", "payload-2"}, {"k3", "payload-3"}, {"k4", "payload-4"}};
  std::uint64_t k3_frame = 0;
  {
    ResultStore store(dir);
    k3_frame = fs::file_size(log_of(dir)) + frame_size("k1", "payload-1") +
               frame_size("k2", "payload-2");
    store.put_many(batch);
  }
  // A kill inside the batch's write(): the log ends 10 bytes into k3.
  const std::string bytes = read_file(log_of(dir));
  write_file(log_of(dir), bytes.substr(0, static_cast<std::size_t>(k3_frame) + 10));

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 2u);
  EXPECT_EQ(store.stats().truncated_bytes, 10u);
  EXPECT_EQ(store.load("k1").value_or(""), "payload-1");
  EXPECT_EQ(store.load("k2").value_or(""), "payload-2");
  EXPECT_FALSE(store.load("k3").has_value()) << "the torn frame degrades to a miss";
  EXPECT_FALSE(store.load("k4").has_value()) << "and so does everything after it";
  store.put_many(batch);  // the resume recommits only the two missing cells
  EXPECT_EQ(fs::file_size(log_of(dir)),
            k3_frame + frame_size("k3", "payload-3") + frame_size("k4", "payload-4"));
  ResultStore again(dir);
  EXPECT_EQ(again.stats().records, 4u);
  EXPECT_EQ(again.stats().truncated_bytes, 0u);
  EXPECT_EQ(again.load("k4").value_or(""), "payload-4");
}

// ---------------------------------------------------------------------------
// The chunked scan and the key index
// ---------------------------------------------------------------------------

/// The scan reads the log in 64 KiB chunks.
constexpr std::uint64_t kChunk = 64 * 1024;

/// A deterministic payload of `n` bytes (every byte value occurs).
[[nodiscard]] std::string pattern_payload(std::size_t n, unsigned mul = 131, unsigned add = 7) {
  std::string p(n, '\0');
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<char>((i * mul + add) & 0xFF);
  return p;
}

/// Flip one byte of the log in place (the inode stays, so an open store's
/// fd sees the change).
void flip_byte_in_place(const fs::path& path, std::uint64_t off) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(off));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(off));
  f.write(&c, 1);
}

TEST(ResultStore, ReplaysTheCommittedFixtureLogExactly) {
  // tests/data/store_fixture.log was written by the per-frame pread
  // reader this scan replaced: "fixture|small-0", "fixture|big" (a
  // 65,600-byte payload, so its frame crosses the first 64 KiB chunk),
  // "fixture|bad" with a flipped checksum bit, "fixture|small-1", then a
  // good copy of "fixture|bad" and "fixture|small-2" appended on reopen.
  const std::string dir = fresh_dir("fixture");
  fs::create_directories(dir);
  const fs::path fixture = fs::path(FNE_REPO_DIR) / "tests/data/store_fixture.log";
  fs::copy_file(fixture, log_of(dir));
  ResultStore store(dir);
  const StoreStats st = store.stats();
  EXPECT_EQ(st.records, 5u);
  EXPECT_EQ(st.corrupt_records, 1u);
  EXPECT_EQ(st.truncated_bytes, 0u);
  EXPECT_EQ(st.rotated_files, 0u);
  EXPECT_EQ(store.load("fixture|small-0").value_or(""), "payload-small-0");
  EXPECT_EQ(store.load("fixture|big").value_or(""), pattern_payload(65600));
  EXPECT_EQ(store.load("fixture|bad").value_or(""), "payload-bad")
      << "the corrupt frame is skipped and the later good copy served";
  EXPECT_EQ(store.load("fixture|small-1").value_or(""), "payload-small-1");
  EXPECT_EQ(store.load("fixture|small-2").value_or(""), "payload-small-2");
  EXPECT_EQ(store.stats().hits, 5u);
  EXPECT_EQ(store.stats().corrupt_records, 1u);
  EXPECT_EQ(read_file(log_of(dir)), read_file(fixture)) << "open() rewrote nothing";
}

TEST(ResultStore, FramesStraddlingReadChunksRoundTrip) {
  // "fill" ends its frame 10 bytes before the first chunk edge, so the
  // next frame's header straddles it; "huge" (200 KiB) is longer than a
  // chunk, so the scan grows its read buffer for it.
  const std::string dir = fresh_dir("chunk-straddle");
  const std::string fill_key = "fill";
  const std::uint64_t fill_frame = kChunk - 10 - 16;
  const std::vector<StoreRecord> records = {
      {fill_key, pattern_payload(fill_frame - 24 - fill_key.size())},
      {"straddle", "header-across-the-edge"},
      {"huge", pattern_payload(200 * 1024, 29, 3)},
      {"after", "tail"}};
  {
    ResultStore store(dir);
    store.put_many(records);
  }
  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, records.size());
  EXPECT_EQ(store.stats().corrupt_records, 0u);
  EXPECT_EQ(store.stats().truncated_bytes, 0u);
  for (const StoreRecord& r : records) {
    EXPECT_EQ(store.load(r.key).value_or(""), r.payload) << r.key;
  }
}

TEST(ResultStore, TornFrameAcrossAChunkEdgeIsTruncated) {
  // 1,033-byte frames: frame 63 spans [65095, 66128), across the edge.
  const std::string dir = fresh_dir("chunk-torn");
  std::vector<StoreRecord> records;
  for (int i = 0; i < 80; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "edge-%04d", i);
    records.push_back({key, pattern_payload(1000, 131, static_cast<unsigned>(i))});
  }
  const std::uint64_t frame = frame_size(records[0].key, records[0].payload);
  const std::uint64_t straddler = (kChunk - 16) / frame;
  const std::uint64_t start = 16 + straddler * frame;
  ASSERT_LT(start, kChunk);
  ASSERT_GT(start + frame, kChunk + 10);
  {
    ResultStore store(dir);
    store.put_many(records);
  }
  const std::string bytes = read_file(log_of(dir));
  write_file(log_of(dir), bytes.substr(0, static_cast<std::size_t>(kChunk + 10)));

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, straddler);
  EXPECT_EQ(store.stats().truncated_bytes, kChunk + 10 - start);
  EXPECT_EQ(fs::file_size(log_of(dir)), start);
  for (std::uint64_t i = 0; i < straddler; ++i) {
    EXPECT_EQ(store.load(records[i].key).value_or(""), records[i].payload);
  }
  EXPECT_FALSE(store.load(records[straddler].key).has_value());
  store.put_many(records);  // recommits the torn frame and the rest
  ResultStore again(dir);
  EXPECT_EQ(again.stats().records, records.size());
  EXPECT_EQ(again.load(records.back().key).value_or(""), records.back().payload);
}

TEST(ResultStore, CorruptFrameAtAChunkEdgeIsSkipped) {
  // Flip the last byte of the first chunk (inside frame 63's payload) and
  // the first byte of the second chunk of a later frame's payload.
  const std::string dir = fresh_dir("chunk-corrupt");
  std::vector<StoreRecord> records;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "edge-%04d", i);
    records.push_back({key, pattern_payload(1000, 131, static_cast<unsigned>(i))});
  }
  const std::uint64_t frame = frame_size(records[0].key, records[0].payload);
  const std::uint64_t header = 24 + records[0].key.size();
  {
    ResultStore store(dir);
    store.put_many(records);
  }
  std::set<std::uint64_t> bad;
  for (const std::uint64_t off : {kChunk - 1, 2 * kChunk}) {
    const std::uint64_t i = (off - 16) / frame;
    ASSERT_GE(off - 16 - i * frame, header) << "the flip must land in a payload";
    bad.insert(i);
    flip_byte_in_place(log_of(dir), off);
  }
  ResultStore store(dir);
  EXPECT_EQ(store.stats().corrupt_records, 2u);
  EXPECT_EQ(store.stats().truncated_bytes, 0u);
  EXPECT_EQ(store.stats().records, records.size() - 2);
  for (std::uint64_t i = 0; i < records.size(); ++i) {
    const auto got = store.load(records[i].key);
    if (bad.contains(i)) {
      EXPECT_FALSE(got.has_value()) << i;
    } else {
      EXPECT_EQ(got.value_or(""), records[i].payload) << i;
    }
  }
}

TEST(ResultStore, PayloadFlippedAfterOpenMissesThenRecommits) {
  const std::string dir = fresh_dir("flip-after-open");
  std::uint64_t k2_frame = 0;
  {
    ResultStore store(dir);
    store.put("k1", "aaaa");
    k2_frame = fs::file_size(log_of(dir));
    store.put("k2", "bbbb");
    store.put("k3", "cccc");
  }
  ResultStore store(dir);
  ASSERT_EQ(store.stats().records, 3u);
  flip_byte_in_place(log_of(dir), k2_frame + 24 + 2 + 1);  // a payload byte of k2
  const StoreStats before = store.stats();
  EXPECT_FALSE(store.load("k2").has_value()) << "load() re-verifies what it reads";
  EXPECT_EQ(store.stats().corrupt_records, before.corrupt_records + 1);
  EXPECT_EQ(store.stats().misses, before.misses + 1);
  EXPECT_EQ(store.stats().records, 2u);
  EXPECT_FALSE(store.contains("k2"));
  EXPECT_FALSE(store.load("k2").has_value()) << "the dropped entry stays a miss";
  EXPECT_EQ(store.stats().corrupt_records, before.corrupt_records + 1) << "counted once";
  const std::uint64_t size = fs::file_size(log_of(dir));
  store.put("k2", "bbbb");
  EXPECT_EQ(fs::file_size(log_of(dir)), size + frame_size("k2", "bbbb")) << "a good copy";
  EXPECT_EQ(store.load("k2").value_or(""), "bbbb");
  EXPECT_EQ(store.load("k1").value_or(""), "aaaa");
  EXPECT_EQ(store.stats().records, 3u);

  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 3u);
  EXPECT_EQ(reopened.stats().corrupt_records, 1u) << "the flipped frame, skipped";
  EXPECT_EQ(reopened.load("k2").value_or(""), "bbbb");
}

TEST(ResultStore, KeyFlippedAfterOpenIsCaughtByTheNextOpen) {
  // load() reads only the payload: the key was verified at open and is
  // compared in memory, so a key byte changed on disk afterwards still
  // serves the payload the open verified.  The next open rescans the
  // frame, finds its checksum wrong, and skips it.
  const std::string dir = fresh_dir("key-flip-after-open");
  std::uint64_t k2_frame = 0;
  {
    ResultStore store(dir);
    store.put("k1", "aaaa");
    k2_frame = fs::file_size(log_of(dir));
    store.put("k2", "bbbb");
  }
  ResultStore store(dir);
  flip_byte_in_place(log_of(dir), k2_frame + 24 + 1);  // the second key byte of k2
  EXPECT_EQ(store.load("k2").value_or(""), "bbbb");
  EXPECT_EQ(store.stats().corrupt_records, 0u);

  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 1u);
  EXPECT_EQ(reopened.stats().corrupt_records, 1u);
  EXPECT_FALSE(reopened.load("k2").has_value());
  EXPECT_EQ(reopened.load("k1").value_or(""), "aaaa");
}

TEST(ResultStore, IndexAgreesWithAMapOracleOverManyKeys) {
  // 20,000 keys sharing long prefixes, put in batches of varied size with
  // repeats (first write wins), so every rehash of the index is
  // exercised; checked live, after each batch's keys, and on reopen.
  const std::string dir = fresh_dir("oracle");
  std::map<std::string, std::string> oracle;
  std::uint64_t state = 2026;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const std::string prefix(300, 'p');
  const auto key_of = [&](std::uint64_t i) {
    return prefix.substr(0, i % 300) + "|cell=" + std::to_string(i);
  };
  constexpr std::uint64_t kKeys = 20000;
  {
    ResultStore store(dir);
    std::uint64_t made = 0;
    while (made < kKeys) {
      std::vector<StoreRecord> batch;
      const std::uint64_t size = 1 + next() % 64;
      for (std::uint64_t b = 0; b < size && made < kKeys; ++b) {
        // One record in eight repeats an earlier key with other bytes.
        const bool repeat = made > 0 && next() % 8 == 0;
        const std::uint64_t id = repeat ? next() % made : made++;
        batch.push_back({key_of(id), std::string("v") + std::to_string(next() % 100000) +
                                         "/" + std::to_string(id)});
      }
      store.put_many(batch);
      for (const StoreRecord& r : batch) oracle.try_emplace(r.key, r.payload);
      for (const StoreRecord& r : batch) {
        ASSERT_EQ(store.load(r.key).value_or(""), oracle.at(r.key));
      }
    }
    EXPECT_EQ(store.stats().records, oracle.size());
    EXPECT_FALSE(store.load(key_of(kKeys)).has_value());
    EXPECT_FALSE(store.contains(key_of(kKeys) + "x"));
  }
  ASSERT_EQ(oracle.size(), kKeys);
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, kKeys);
  EXPECT_EQ(reopened.stats().corrupt_records, 0u);
  for (const auto& [key, payload] : oracle) {
    ASSERT_EQ(reopened.load(key).value_or(""), payload) << key;
  }
  EXPECT_FALSE(reopened.load(key_of(kKeys + 1)).has_value());
  EXPECT_EQ(reopened.stats().hits, kKeys);
}

// ---------------------------------------------------------------------------
// Campaign through the store
// ---------------------------------------------------------------------------

/// Small campaign covering all three job kinds: independent repetitions,
/// a monotone chain (one cell), and independent sweep points.  6 jobs.
[[nodiscard]] Campaign store_campaign() {
  Campaign campaign;
  campaign.name = "store-determinism";
  {
    Scenario s;
    s.name = "reps";
    s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.25"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.fast = true;
    s.repetitions = 3;
    s.seed = 81;
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "chain";
    s.topology = {"mesh", Params{{"side", "16"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.1"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.alpha = 0.125;
    s.metrics.verify_trace = true;
    s.seed = 82;
    campaign.entries.push_back({s, SweepSpec{"p", {0.1, 0.2, 0.3}, SweepMode::kMonotone}});
  }
  {
    Scenario s;
    s.name = "points";
    s.topology = {"hypercube", Params{{"dims", "6"}}};
    s.fault = {"high_degree", Params{{"frac", "0.1"}}};
    s.prune.kind = ExpansionKind::Node;
    s.seed = 83;
    campaign.entries.push_back(
        {s, SweepSpec{"frac", {0.05, 0.15}, SweepMode::kIndependent}});
  }
  return campaign;
}

constexpr std::uint64_t kStoreCampaignJobs = 6;  // 3 reps + 1 chain + 2 points

TEST(CellKey, PlanKeysEqualDirectKeys) {
  // CampaignPlan builds one key prefix per entry and appends each cell's
  // suffix; every job must still carry exactly the direct key.
  const std::string dir = fresh_dir("plan-keys");
  fs::create_directories(dir);
  const std::string csr = (fs::path(dir) / "g.csr").string();
  CsrFile::write(csr, Graph::from_edges(8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}}));

  Campaign campaign = store_campaign();  // repetitions, a monotone chain, sweep points
  Scenario metered = small_scenario();
  metered.name = "metered";
  metered.repetitions = 2;
  metered.metrics.requests = {{"fragmentation", Params{}},
                              {"span_estimate", Params{{"samples", "2"}}}};
  campaign.entries.push_back({metered, std::nullopt});
  Scenario file = small_scenario();
  file.name = "file";
  file.topology = {"file", Params{{"path", csr}}};
  file.repetitions = 2;
  campaign.entries.push_back({file, std::nullopt});

  const CampaignPlan plan(campaign, 1);
  std::size_t metric_jobs = 0;
  std::set<std::string> cell_keys;
  for (std::size_t i = 0; i < plan.num_jobs(); ++i) {
    const CampaignJob& job = plan.job(i);
    const CampaignEntry& entry = campaign.entries[job.entry];
    const Scenario& s = entry.scenario;
    std::string expected;
    switch (job.kind) {
      case CampaignJob::Kind::kRep:
        expected = store_cell_key(s, s.fault, job.rep);
        break;
      case CampaignJob::Kind::kSweepPoint: {
        FaultSpec fault = s.fault;
        fault.params.set(entry.sweep->param,
                         entry.sweep->values[static_cast<std::size_t>(job.sweep_point)]);
        expected = store_cell_key(s, fault, 0);
        break;
      }
      case CampaignJob::Kind::kChain:
        expected = store_cell_key(s, s.fault, 0, &*entry.sweep);
        break;
      case CampaignJob::Kind::kMetric:
        ++metric_jobs;
        expected = plan.job(job.parent).key;
        break;
    }
    EXPECT_EQ(job.key, expected) << "job " << i;
    if (job.kind != CampaignJob::Kind::kMetric) cell_keys.insert(job.key);
  }
  EXPECT_EQ(plan.num_cells(), kStoreCampaignJobs + 4);
  EXPECT_EQ(cell_keys.size(), plan.num_cells()) << "every cell has its own key";
  EXPECT_EQ(metric_jobs, 2u) << "one split span_estimate job per metered repetition";
  EXPECT_NE(plan.job(plan.num_jobs() - 1).key.find("|topo_salt=" + csr + "#"),
            std::string::npos);
}

TEST(CampaignStore, PayloadIsByteIdenticalDisabledColdWarmAtAnyThreadCount) {
  const std::string dir = fresh_dir("campaign-payload");
  CampaignRunner runner(store_campaign());
  const std::string reference = runner.run(2).to_json(/*include_timing=*/false);

  ResultStore store(dir);
  const CampaignReport cold = runner.run(2, &store);
  EXPECT_TRUE(cold.store_enabled);
  EXPECT_EQ(cold.store.hits, 0u);
  EXPECT_EQ(cold.store.misses, kStoreCampaignJobs);
  EXPECT_GT(cold.store.bytes_committed, 0u);
  EXPECT_EQ(cold.to_json(false), reference)
      << "store commits must not perturb the deterministic payload";

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const CampaignReport warm = runner.run(threads, &store);
    EXPECT_EQ(warm.store.hits, kStoreCampaignJobs);
    EXPECT_EQ(warm.store.misses, 0u);
    EXPECT_EQ(warm.to_json(false), reference)
        << "a fully store-served run must reproduce the payload byte for byte";
  }
  // Hit/miss telemetry lives in the timing payload only.
  EXPECT_EQ(cold.to_json(false).find("\"store\""), std::string::npos);
  EXPECT_NE(cold.to_json(true).find("\"store\""), std::string::npos);
}

TEST(CampaignStore, TimingPayloadParsesAsJson) {
  // The timing payload nests cache and store objects and registered-metric
  // payloads; all of it must stay one well-formed document.
  Campaign campaign = store_campaign();
  campaign.entries[0].scenario.metrics.requests = {{"fragmentation", Params{}}};
  ResultStore store(fresh_dir("timing-json"));
  const CampaignReport report = CampaignRunner(campaign).run(2, &store);
  const JsonValue doc = JsonValue::parse(report.to_json(/*include_timing=*/true));
  EXPECT_EQ(doc.at("kind").as_string(), "campaign_report");
  const std::vector<JsonValue>& scenarios = doc.at("scenarios").items();
  ASSERT_EQ(scenarios.size(), campaign.entries.size());
  const JsonValue& reps = scenarios[0];
  ASSERT_EQ(reps.at("runs").items().size(), 3u);
  const JsonValue& run = reps.at("runs").items()[1];
  EXPECT_EQ(run.at("rep").as_int(), 1);
  EXPECT_TRUE(run.at("metrics").at("fragmentation").at("gamma").kind() ==
              JsonValue::Kind::kNumber);
  EXPECT_GE(run.at("millis").as_number(), 0.0);
  EXPECT_EQ(scenarios[1].at("sweep_values").items().size(), 3u);
  EXPECT_EQ(doc.at("engine_total").at("runs").as_int(),
            static_cast<std::int64_t>(report.total_engine_stats().runs));
  EXPECT_EQ(doc.at("threads").as_int(), 2);
  EXPECT_TRUE(doc.at("cache").has("peak_bytes"));
  EXPECT_EQ(doc.at("store").at("misses").as_int(), static_cast<std::int64_t>(kStoreCampaignJobs));
  EXPECT_FALSE(JsonValue::parse(report.to_json(false)).has("store"));
}

TEST(CampaignStore, WarmRunPersistsAcrossProcessReopen) {
  const std::string dir = fresh_dir("campaign-reopen");
  CampaignRunner runner(store_campaign());
  std::string cold_payload;
  {
    ResultStore store(dir);
    cold_payload = runner.run(2, &store).to_json(false);
  }
  ResultStore reopened(dir);
  const CampaignReport warm = runner.run(2, &reopened);
  EXPECT_EQ(warm.store.hits, kStoreCampaignJobs);
  EXPECT_EQ(warm.store.misses, 0u);
  EXPECT_EQ(warm.to_json(false), cold_payload);
}

TEST(CampaignStore, MixedHitMissSplitStillReproducesThePayload) {
  const std::string dir = fresh_dir("campaign-mixed");
  Campaign full = store_campaign();
  Campaign first_only;
  first_only.name = full.name;
  first_only.entries.push_back(full.entries[0]);

  ResultStore store(dir);
  // Pre-commit only entry 0's cells (3 rep jobs)...
  (void)CampaignRunner(first_only).run(1, &store);
  // ...then the full campaign: those 3 hit, the other 3 compute.
  CampaignRunner runner(full);
  const CampaignReport mixed = runner.run(4, &store);
  EXPECT_EQ(mixed.store.hits, 3u);
  EXPECT_EQ(mixed.store.misses, kStoreCampaignJobs - 3u);
  EXPECT_EQ(mixed.to_json(false), runner.run(4).to_json(false));
}

TEST(CampaignStore, KilledCampaignResumesRecomputingOnlyMissingCells) {
  const std::string dir = fresh_dir("campaign-resume");
  CampaignRunner runner(store_campaign());
  std::string payload;
  {
    ResultStore store(dir);
    payload = runner.run(1, &store).to_json(false);
  }
  // Simulate a kill during the last commit: tear the final frame.
  const std::string bytes = read_file(log_of(dir));
  write_file(log_of(dir), bytes.substr(0, bytes.size() - 7));

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, kStoreCampaignJobs - 1u);
  const CampaignReport resumed = runner.run(2, &store);
  EXPECT_EQ(resumed.store.hits, kStoreCampaignJobs - 1u)
      << "every previously committed cell must be served from the store";
  EXPECT_EQ(resumed.store.misses, 1u) << "only the torn cell recomputes";
  EXPECT_EQ(resumed.to_json(false), payload);
  // The store is whole again: a third run is all hits.
  const CampaignReport healed = runner.run(2, &store);
  EXPECT_EQ(healed.store.misses, 0u);
}

TEST(CampaignStore, SchemaOneTwoAndThreeCellsAreMissesUnderSchemaFour) {
  // Schema-1 cells ran the old default solver and, with fast=1, the old
  // staged schedule: a fast cell that named spectral_mode:filtered kept
  // its key string then but not its result, so only the schema field
  // keeps such cells from being replayed as current results.  Schema-2
  // and schema-3 cells are the same results as today under longer keys
  // (the retired spectral_mode/filter_degree knobs, then the retired
  // |finder= segment); they too are misses, never corrupt records.  Each
  // old key is built the way its schema wrote it.  This cell is fast=1
  // and runs the default (filtered) solve; the old finder segment named
  // the Scenario's finder knobs, whose switches stayed 0 under fast=1.
  Campaign reps;
  reps.name = "schema";
  reps.entries.push_back(store_campaign().entries[0]);
  const Scenario& s = reps.entries[0].scenario;
  ScenarioRunner scenario_runner(s);
  const std::string fresh_payload = CampaignRunner(reps).run(1).to_json(false);

  ASSERT_TRUE(s.prune.fast);
  for (const int version : {1, 2, 3}) {
    const std::string schema = "fne-cell|schema=" + std::to_string(version);
    SCOPED_TRACE(schema);
    ResultStore store(fresh_dir("campaign-schema" + std::to_string(version)));
    for (int rep = 0; rep < s.repetitions; ++rep) {
      std::string old_key = store_cell_key(s, s.fault, rep);
      ASSERT_EQ(old_key.find("fne-cell|schema=4|"), 0u);
      old_key.replace(0, std::string("fne-cell|schema=4").size(), schema);
      const std::size_t metrics_at = old_key.find("|metrics=");
      ASSERT_NE(metrics_at, std::string::npos);
      old_key.insert(metrics_at,
                     std::string("|finder=exact_limit:20,ball_sources:12,refine_passes:6,"
                                 "use_spectral:1,use_balls:1,use_exact:1,warm:0,stale:0,early:0") +
                         (version < 3 ? ",spectral_mode:filtered,filter_degree:0" : ""));
      const ScenarioRun run = scenario_runner.run_isolated(s.fault, rep);
      store.put(old_key, encode_runs({&run, 1}));
      EXPECT_TRUE(store.contains(old_key));
      EXPECT_FALSE(store.contains(store_cell_key(s, s.fault, rep)));
    }

    const CampaignReport report = CampaignRunner(reps).run(1, &store);
    EXPECT_EQ(report.store.hits, 0u) << "an older-schema cell must never be served";
    EXPECT_EQ(report.store.misses, static_cast<std::uint64_t>(s.repetitions));
    EXPECT_EQ(store.stats().corrupt_records, 0u);
    EXPECT_EQ(report.to_json(false), fresh_payload);
  }
}

TEST(CampaignStore, OutOfRangePruneNumbersFailBeforeAnyCellIsCommitted) {
  // A bad prune number behind a good entry used to fail only inside the
  // job loop (ε >= 1, at PruneEngine::run) after the good entry's cells
  // had committed, or not at all (α = 1e999 parsed to inf and reached the
  // payload as the invalid JSON token `inf`).  Now the JSON parser or
  // CampaignRunner construction rejects it, so the store stays empty.
  const std::string good = R"({"preset": "mesh-random", "repetitions": 3})";
  for (const char* bad_prune : {R"({"epsilon": 1.5})", R"({"epsilon": 1})",
                                R"({"alpha": 1e999})", R"({"alpha": -1e999})"}) {
    SCOPED_TRACE(bad_prune);
    const std::string json = R"({"scenarios": [)" + good +
                             R"(, {"preset": "mesh-random", "prune": )" + bad_prune + "}]}";
    EXPECT_THROW((void)CampaignRunner(campaign_from_json(json)), PreconditionError);

    const std::string dir = fresh_dir("bad-prune-number");
    fs::create_directories(dir);
    const fs::path file = fs::path(dir) / "campaign.json";
    write_file(file, json);
    const testing::CliRun run =
        testing::run_scenario_runner("--campaign='" + file.string() + "' --store='" + dir + "'");
    EXPECT_EQ(run.exit_code, 1) << run.output;
    // ε fails after the CLI opened the store (a 16-byte header), the
    // overflow while parsing the file, before any store exists.
    const fs::path log = log_of(dir);
    EXPECT_TRUE(!fs::exists(log) || fs::file_size(log) == 16u) << "no cell may be committed";
  }
}

// A test-only metric that cancels `g_probe_token` in the cell that runs it
// the kProbeCancelAfter-th time.  Each pool job computes a cell and then
// accepts it, so once the run has drained, g_probe_cells is exactly the
// number of cells the plan accepted.
constexpr int kProbeCancelAfter = 5;
std::atomic<int> g_probe_cells{0};
CancelToken g_probe_token;

void register_cancel_probe() {
  MetricsRegistry& registry = MetricsRegistry::instance();
  if (registry.contains("test_cancel_probe")) return;
  registry.add({"test_cancel_probe",
                "test only: cancels g_probe_token in its kProbeCancelAfter-th cell",
                {},
                [](const MetricContext&, const Params&) {
                  if (g_probe_cells.fetch_add(1) + 1 == kProbeCancelAfter) g_probe_token.cancel();
                  return MetricRecord{"test_cancel_probe", "{}", "probe"};
                },
                {}});
}

TEST(CampaignStore, CancelledRunCommitsEveryAcceptedCell) {
  register_cancel_probe();
  Campaign campaign;
  campaign.name = "cancel-commit";
  Scenario s;
  s.name = "probed-reps";
  s.topology = {"mesh", Params{{"side", "6"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.2"}}};
  s.prune.kind = ExpansionKind::Node;
  s.repetitions = 40;
  s.seed = 91;
  s.metrics.requests.push_back({"test_cancel_probe", Params{}});
  campaign.entries.push_back({s, std::nullopt});
  CampaignRunner runner(campaign);

  const std::string dir = fresh_dir("campaign-cancel");
  g_probe_token = CancelToken{};
  g_probe_cells = 0;
  {
    ResultStore store(dir);
    EXPECT_THROW((void)runner.run(2, &store, &g_probe_token), CancelledError);
  }
  const int accepted = g_probe_cells.load();
  ASSERT_GE(accepted, kProbeCancelAfter);
  ASSERT_LT(accepted, s.repetitions) << "the cancel must land mid-run";

  // Far fewer than a batch's worth of cells were accepted, so only the
  // unwinding plan's flush can have committed them.
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, static_cast<std::uint64_t>(accepted));
  const CampaignReport resumed = runner.run(2, &reopened);
  EXPECT_EQ(resumed.store.hits, static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(resumed.store.misses, static_cast<std::uint64_t>(s.repetitions - accepted));
  EXPECT_EQ(resumed.to_json(false), runner.run(1).to_json(false));
}

TEST(CampaignStore, CorruptRecordDegradesToRecomputeNotCrash) {
  const std::string dir = fresh_dir("campaign-corrupt");
  CampaignRunner runner(store_campaign());
  std::string payload;
  {
    ResultStore store(dir);
    payload = runner.run(1, &store).to_json(false);
  }
  // Flip a byte in the middle of the log: ONE record's checksum breaks.
  std::string bytes = read_file(log_of(dir));
  const std::size_t flip = bytes.size() / 2;
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5A);
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  const CampaignReport report = runner.run(2, &store);
  EXPECT_EQ(report.store.misses, 1u);
  EXPECT_EQ(report.store.hits, kStoreCampaignJobs - 1u);
  EXPECT_EQ(report.to_json(false), payload);
}

TEST(CampaignStore, TwoRunnersOnOneStoreDirDedup) {
  // Two campaign runs sharing one directory through separate store
  // objects (the two-process picture): the second store picks the first
  // run's cells up at refresh() and computes nothing.
  const std::string dir = fresh_dir("campaign-dedup");
  CampaignRunner runner(store_campaign());
  ResultStore a(dir);
  ResultStore b(dir);  // opened before a committed anything
  const std::string payload = runner.run(2, &a).to_json(false);
  const CampaignReport via_b = runner.run(2, &b);
  EXPECT_EQ(via_b.store.hits, kStoreCampaignJobs);
  EXPECT_EQ(via_b.store.misses, 0u);
  EXPECT_EQ(via_b.to_json(false), payload);
}

}  // namespace
}  // namespace fne
