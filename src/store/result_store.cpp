#include "store/result_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <vector>

#include "util/hash.hpp"
#include "util/require.hpp"

namespace fne {

namespace {

constexpr char kFileMagic[8] = {'F', 'N', 'E', 'S', 'T', 'O', 'R', 'E'};
constexpr std::size_t kHeaderSize = 16;  // magic + u32 version + u32 reserved
constexpr std::uint32_t kFrameMagic = 0x43454E46;  // "FNEC" little-endian
constexpr std::size_t kFrameHeaderSize = 24;
constexpr std::uint32_t kFrameFormat = 1;
// Corruption ceilings: a frame claiming more than this is a torn/garbage
// tail, not a big record.
constexpr std::uint32_t kMaxKeyLen = 1u << 20;
constexpr std::uint32_t kMaxPayloadLen = 1u << 30;
// Read size of the log scan, and the size of one key arena.
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kArenaBytes = 64 * 1024;

void put_u32(std::string& buf, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) buf.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) buf.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

/// pread exactly `len` bytes at `off`; returns bytes actually read (short
/// only at EOF).
std::size_t read_at(int fd, std::uint64_t off, void* out, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, static_cast<char*>(out) + done, len - done,
                              static_cast<off_t>(off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      FNE_REQUIRE(false, "result store: pread failed");
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

/// Reads the log sequentially from `off` up to `limit` (the size the
/// scan started from), kChunkBytes per read.
class LogReader {
 public:
  LogReader(int fd, std::uint64_t off, std::uint64_t limit)
      : fd_(fd), next_(off), limit_(limit), buf_(kChunkBytes) {}

  /// The next `n` bytes, contiguous and valid until the next call;
  /// nullptr when the log ends first.  A frame longer than one read
  /// grows the buffer to fit it.
  const unsigned char* take(std::size_t n) {
    if (end_ - pos_ < n && !refill(n)) return nullptr;
    const unsigned char* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }

 private:
  /// Keep the unread bytes, move them to the front and read behind them
  /// until at least `need` bytes are buffered (or the log ends).
  bool refill(std::size_t need) {
    const std::size_t keep = end_ - pos_;
    if (need > buf_.size()) {
      std::vector<unsigned char> bigger(need);
      std::memcpy(bigger.data(), buf_.data() + pos_, keep);
      buf_.swap(bigger);
    } else {
      std::memmove(buf_.data(), buf_.data() + pos_, keep);
    }
    pos_ = 0;
    end_ = keep;
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(buf_.size() - keep, limit_ - next_));
    const std::size_t got = read_at(fd_, next_, buf_.data() + keep, want);
    next_ += got;
    end_ += got;
    return end_ >= need;
  }

  int fd_;
  std::uint64_t next_;  ///< log offset of the byte after the buffer
  std::uint64_t limit_;
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

std::uint64_t file_size_of(int fd) {
  struct stat st {};
  FNE_REQUIRE(::fstat(fd, &st) == 0, "result store: fstat failed");
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  FNE_REQUIRE(!ec, "result store: cannot create directory " + dir_);
  log_path_ = (fs::path(dir_) / "cells.log").string();
  open_log();
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

void ResultStore::create_fresh_log() {
  namespace fs = std::filesystem;
  // Temp + rename: a crash mid-create leaves a stray .tmp, never a
  // half-written cells.log.
  const std::string tmp = log_path_ + ".tmp." + std::to_string(::getpid());
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  FNE_REQUIRE(tfd >= 0, "result store: cannot create " + tmp);
  std::string header(kFileMagic, sizeof(kFileMagic));
  put_u32(header, kStoreSchemaVersion);
  put_u32(header, 0);  // reserved
  const ssize_t n = ::write(tfd, header.data(), header.size());
  ::fsync(tfd);
  ::close(tfd);
  FNE_REQUIRE(n == static_cast<ssize_t>(header.size()),
              "result store: cannot write header of " + tmp);
  std::error_code ec;
  fs::rename(tmp, log_path_, ec);
  FNE_REQUIRE(!ec, "result store: cannot install " + log_path_);
}

void ResultStore::open_log() {
  namespace fs = std::filesystem;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!fs::exists(log_path_)) create_fresh_log();
    fd_ = ::open(log_path_.c_str(), O_RDWR | O_APPEND);
    FNE_REQUIRE(fd_ >= 0, "result store: cannot open " + log_path_);

    unsigned char header[kHeaderSize];
    const std::size_t got = read_at(fd_, 0, header, kHeaderSize);
    const bool magic_ok =
        got == kHeaderSize && std::memcmp(header, kFileMagic, sizeof(kFileMagic)) == 0;
    const std::uint32_t version = magic_ok ? get_u32(header + 8) : 0;
    if (magic_ok && version == kStoreSchemaVersion) {
      scan_end_ = kHeaderSize;
      scan_tail(/*allow_truncate=*/true);
      return;
    }

    // Not ours (or a schema we no longer read): rotate it aside and
    // start fresh.  The campaign then recomputes — degrade, never crash.
    ::close(fd_);
    fd_ = -1;
    const std::string aside =
        magic_ok ? log_path_ + ".v" + std::to_string(version) : log_path_ + ".bad";
    std::error_code ec;
    fs::rename(log_path_, aside, ec);
    FNE_REQUIRE(!ec, "result store: cannot rotate " + log_path_ + " to " + aside);
    ++stats_.rotated_files;
  }
  FNE_REQUIRE(false, "result store: could not establish a readable log at " + log_path_);
}

void ResultStore::scan_tail(bool allow_truncate) {
  const std::uint64_t size = file_size_of(fd_);
  LogReader in(fd_, scan_end_, size);
  while (scan_end_ < size) {
    const unsigned char* fh = in.take(kFrameHeaderSize);
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t format = 0;
    std::uint64_t checksum = 0;
    bool torn = fh == nullptr;
    if (!torn) {
      key_len = get_u32(fh + 4);
      payload_len = get_u32(fh + 8);
      format = get_u32(fh + 12);
      checksum = get_u64(fh + 16);
      torn = get_u32(fh) != kFrameMagic || key_len == 0 || key_len > kMaxKeyLen ||
             payload_len > kMaxPayloadLen ||
             scan_end_ + kFrameHeaderSize + key_len + payload_len > size;
    }
    const unsigned char* body = nullptr;
    if (!torn) {
      body = in.take(static_cast<std::size_t>(key_len) + payload_len);
      torn = body == nullptr;
    }
    if (torn) {
      // A torn or garbage tail.  open() drops it (the writer died
      // mid-append); refresh() leaves it — a live writer may still be
      // completing the frame.
      if (allow_truncate) {
        stats_.truncated_bytes += size - scan_end_;
        FNE_REQUIRE(::ftruncate(fd_, static_cast<off_t>(scan_end_)) == 0,
                    "result store: cannot truncate torn tail of " + log_path_);
      }
      return;
    }
    const std::string_view key(reinterpret_cast<const char*>(body), key_len);
    Entry entry;
    entry.frame_off = scan_end_;
    entry.checksum = checksum;
    entry.payload_len = payload_len;
    scan_end_ += kFrameHeaderSize + key_len + payload_len;

    Fnv1a h;
    entry.key_state = h.text(key).value();
    h.bytes(body + key_len, payload_len);
    if (format != kFrameFormat || h.value() != checksum) {
      // Framing intact, content bad: skip just this record.  It is not
      // indexed, so a later put() of the same key appends a good copy.
      ++stats_.corrupt_records;
      continue;
    }
    // First write wins; a duplicate frame (two processes racing the same
    // key) carries identical bytes by the determinism contract anyway.
    (void)add(key, entry);
  }
}

ResultStore::Entry* ResultStore::add(std::string_view key, const Entry& entry) {
  // Copy the key into the arena first, so a new key is hashed once; a
  // known key gives the bytes back at once.
  const std::string_view stored = intern(key);
  const auto [it, inserted] = index_.try_emplace(stored, entry);
  if (!inserted) {
    arena_next_ -= stored.size();
    arena_left_ += stored.size();
    if (it->second.live) return nullptr;
    it->second = entry;
  }
  ++live_;
  return &it->second;
}

void ResultStore::drop(Entry& entry) {
  if (!entry.live) return;
  entry.live = false;
  --live_;
}

std::string_view ResultStore::intern(std::string_view key) {
  if (arena_left_ < key.size()) {
    const std::size_t bytes = std::max(kArenaBytes, key.size());
    keys_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    arena_next_ = keys_.back().get();
    arena_left_ = bytes;
  }
  char* out = arena_next_;
  std::memcpy(out, key.data(), key.size());
  arena_next_ += key.size();
  arena_left_ -= key.size();
  return {out, key.size()};
}

std::optional<std::string> ResultStore::load(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || !it->second.live) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& entry = it->second;
  std::string payload(entry.payload_len, '\0');
  const bool read_ok = read_at(fd_, entry.frame_off + kFrameHeaderSize + key.size(),
                               payload.data(), payload.size()) == payload.size();
  if (!read_ok || Fnv1a(entry.key_state).text(payload).value() != entry.checksum) {
    // The log changed under us: drop the entry and miss.
    drop(entry);
    ++stats_.corrupt_records;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  stats_.bytes_loaded += entry.payload_len;
  return payload;
}

void ResultStore::put(const std::string& key, const std::string& payload) {
  const StoreRecord one[] = {{key, payload}};
  put_many(one);
}

void ResultStore::put_many(std::span<const StoreRecord> records) {
  // Checksum every record before taking the lock.
  std::size_t frame_bytes = 0;
  std::vector<Entry> framed(records.size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StoreRecord& rec = records[r];
    FNE_REQUIRE(!rec.key.empty() && rec.key.size() <= kMaxKeyLen,
                "result store: key size out of range");
    FNE_REQUIRE(rec.payload.size() <= kMaxPayloadLen, "result store: payload too large");
    frame_bytes += kFrameHeaderSize + rec.key.size() + rec.payload.size();
    Entry& entry = framed[r];
    Fnv1a h;
    entry.key_state = h.text(rec.key).value();
    entry.checksum = h.text(rec.payload).value();
    entry.payload_len = static_cast<std::uint32_t>(rec.payload.size());
  }
  const std::lock_guard<std::mutex> lock(mutex_);

  // Frame every record whose key is new.  Indexing it right away (offset
  // relative to the batch for now) is what drops a duplicate later in the
  // same batch: first write wins.
  std::string frames;
  frames.reserve(frame_bytes);
  std::vector<Entry*> fresh;
  std::uint64_t payload_bytes = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StoreRecord& rec = records[r];
    Entry entry = framed[r];
    entry.frame_off = frames.size();
    Entry* const added = add(rec.key, entry);
    if (added == nullptr) continue;
    fresh.push_back(added);
    put_u32(frames, kFrameMagic);
    put_u32(frames, static_cast<std::uint32_t>(rec.key.size()));
    put_u32(frames, entry.payload_len);
    put_u32(frames, kFrameFormat);
    put_u64(frames, entry.checksum);
    frames += rec.key;
    frames += rec.payload;
    payload_bytes += rec.payload.size();
  }
  if (fresh.empty()) return;

  // ONE write() on an O_APPEND fd: atomic placement at the end even with
  // a concurrent writer, and a kill mid-call leaves only a torn tail.
  const ssize_t n = ::write(fd_, frames.data(), frames.size());
  if (n != static_cast<ssize_t>(frames.size())) {
    for (Entry* const e : fresh) drop(*e);
    FNE_REQUIRE(false, "result store: append failed on " + log_path_);
  }
  stats_.bytes_committed += payload_bytes;
  const off_t end = ::lseek(fd_, 0, SEEK_CUR);
  if (end >= 0 && static_cast<std::uint64_t>(end) == scan_end_ + frames.size()) {
    // The batch landed right at the indexed end: no other writer
    // interleaved, so its frames are indexed from memory.
    for (Entry* const e : fresh) e->frame_off += scan_end_;
    scan_end_ = static_cast<std::uint64_t>(end);
    return;
  }
  // Another writer appended since the last indexed offset: index from the
  // log instead, picking up its frames and ours in log order.
  for (Entry* const e : fresh) drop(*e);
  scan_tail(/*allow_truncate=*/false);
}

void ResultStore::refresh() {
  const std::lock_guard<std::mutex> lock(mutex_);
  scan_tail(/*allow_truncate=*/false);
}

bool ResultStore::contains(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it != index_.end() && it->second.live;
}

StoreStats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  StoreStats out = stats_;
  out.records = live_;
  return out;
}

}  // namespace fne
