// fne::ResultStore — a persistent content-addressable store for campaign
// cell results (DESIGN.md §11).
//
// The store maps a canonical cell key (store/key.hpp) to the encoded
// result payload (store/record.hpp) through ONE append-only log file,
// `<dir>/cells.log`.  Layout:
//
//   header   "FNESTORE" (8) | u32 schema version | u32 reserved
//   frame*   u32 'FNEC' | u32 key_len | u32 payload_len | u32 format
//            | u64 fnv1a(key ‖ payload) | key bytes | payload bytes
//
// all integers little-endian.  The full key is stored in every frame and
// kept in the index, which compares it on every lookup, so a hash
// collision can never serve another key's payload.
//
// Crash safety: the header is created via write-temp + rename (a crash
// mid-create leaves no half-header file); each append is ONE O_APPEND
// write() of a whole batch of fully framed records (put_many; put() is a
// batch of one), so a killed process leaves at worst a torn tail — the
// frames of a batch before the tear survive, the torn frame and those
// after it are gone and recompute.  open() truncates a torn tail (frame
// incomplete, bad frame magic, or absurd lengths) and skips — without
// dropping the rest of the file — any framed record whose checksum does
// not verify.  A file with a foreign magic rotates to cells.log.bad and
// a file with an unknown schema version rotates to cells.log.v<N>; both
// then start fresh.  Every degradation path ends in "miss -> recompute",
// never in an exception or a wrong payload.
//
// Reading: open() and refresh() scan the log in 64 KiB sequential reads
// and verify each frame's checksum ONCE.  A verified frame enters an
// unordered_map whose string_view keys point into 64 KiB key arenas; the
// payload stays on disk, so the index costs the keys plus a hash node
// per record, never the log.  The key bytes were verified at open and
// are compared in memory on every lookup.  Each entry keeps the FNV-1a
// state after its key bytes, so load() reads only the payload (one
// pread) and re-checks it by continuing the same key ‖ payload checksum
// from that state: a PAYLOAD byte that changed on disk after open
// degrades to a miss.  A key or frame-header byte changed after open is
// not re-read, so it goes unnoticed until the next open() rescans.
//
// Concurrency: one ResultStore is internally synchronized (the campaign
// commits from pool threads).  Across processes the contract is one
// writer + many readers, but the append path is defensive enough that
// two concurrent runners on one directory stay consistent: appends are
// single atomic write()s.  After its write, put_many() asks the fd where
// the write ended (lseek SEEK_CUR).  If that is exactly the indexed end
// plus the batch, nobody interleaved and the new frames are indexed from
// memory; otherwise it rescans the tail, so records appended by the
// other process enter the index too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fne {

/// Bump whenever the record codec (store/record.hpp) or the frame layout
/// changes.  Old logs rotate aside and the campaign recomputes.
inline constexpr std::uint32_t kStoreSchemaVersion = 1;

/// Counters for --store-stats and the robustness tests.  hits/misses and
/// byte counters accumulate over the store's lifetime; corrupt_records /
/// truncated_bytes / rotated_files describe what open()/load() had to
/// discard or move aside.  Every corruption path HEALS silently (miss ->
/// recompute), so these counters are the only place disk trouble shows
/// up — campaign reports surface them in the timing payload.
struct StoreStats {
  std::uint64_t records = 0;          ///< distinct keys currently indexed
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_committed = 0;  ///< payload bytes appended by this store
  std::uint64_t bytes_loaded = 0;     ///< payload bytes served from the log
  std::uint64_t corrupt_records = 0;  ///< checksum/key-verify failures skipped
  std::uint64_t truncated_bytes = 0;  ///< torn tail dropped at open
  std::uint64_t rotated_files = 0;    ///< foreign/versioned logs moved aside at open
};

/// One (key -> payload) record of a put_many() batch.
struct StoreRecord {
  std::string key;
  std::string payload;
};

class ResultStore {
 public:
  /// Open (creating the directory and log as needed) the store at `dir`.
  /// Filesystem errors that cannot be degraded — directory uncreatable,
  /// log unopenable — REQUIRE-fail; corrupt CONTENT never does.
  explicit ResultStore(std::string dir);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

  /// Serve `key`'s payload, or nullopt (counted as a miss).  Re-verifies
  /// the frame checksum on every hit (the payload read from disk, the key
  /// compared in memory); a record that fails is dropped from the index
  /// and counted corrupt, so the next put() appends a good copy.
  [[nodiscard]] std::optional<std::string> load(const std::string& key);

  /// Append (key -> payload): put_many() of one record.
  void put(const std::string& key, const std::string& payload);

  /// Append every record whose key is not yet indexed, as ONE write().  A
  /// key already present — or earlier in the same batch — is NOT written
  /// again: first write wins, matching the determinism contract (any two
  /// writers of one key computed the same bytes).
  void put_many(std::span<const StoreRecord> records);

  /// Re-scan the log tail for records appended by other processes since
  /// open()/the last refresh.  Never truncates: an incomplete tail is
  /// left for the writer to finish.
  void refresh();

  [[nodiscard]] bool contains(const std::string& key);

  [[nodiscard]] StoreStats stats() const;

 private:
  /// One indexed frame.  `live` is false once load() found the frame
  /// changed on disk: the entry then misses, and the next put() of its
  /// key (or a rescan that meets a later copy) revives it in place.
  struct Entry {
    std::uint64_t frame_off = 0;  ///< offset of the frame header
    std::uint64_t checksum = 0;   ///< the frame's fnv1a(key ‖ payload)
    std::uint64_t key_state = 0;  ///< FNV-1a state after the key bytes
    std::uint32_t payload_len = 0;
    bool live = true;
  };

  void open_log();
  void create_fresh_log();
  /// Scan frames from scan_end_.  `allow_truncate` controls the torn-tail
  /// policy: open() truncates, refresh() leaves it for the writer.
  void scan_tail(bool allow_truncate);

  /// Index `entry` under `key` unless a live entry holds it (first write
  /// wins: returns nullptr).  A dead entry of the key is revived in
  /// place; a new key is copied into the arenas.  The returned entry
  /// stays put while the map grows.
  Entry* add(std::string_view key, const Entry& entry);
  /// Mark `entry` dead (it misses until add() revives it).
  void drop(Entry& entry);
  /// Copy `key` into the arenas: 64 KiB each, a longer key gets its own.
  [[nodiscard]] std::string_view intern(std::string_view key);

  std::string dir_;
  std::string log_path_;
  int fd_ = -1;
  std::uint64_t scan_end_ = 0;  ///< log offset up to which frames are indexed
  std::unordered_map<std::string_view, Entry> index_;  ///< keys point into keys_
  std::vector<std::unique_ptr<char[]>> keys_;          ///< key arenas
  char* arena_next_ = nullptr;
  std::size_t arena_left_ = 0;
  std::uint64_t live_ = 0;
  StoreStats stats_;
  mutable std::mutex mutex_;
};

}  // namespace fne
