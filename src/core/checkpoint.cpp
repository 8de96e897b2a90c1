#include "core/checkpoint.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/logging.hpp"
#include "util/serialization.hpp"

namespace photon {
namespace {

// The magic and the section tags are four ASCII bytes read as a
// little-endian u32, so they show up as text in a hex dump.
constexpr std::uint32_t kCkptMagic = 0x334B4350;  // "PCK3"
constexpr std::uint32_t kMeta = 0x4154454D;       // "META"
constexpr std::uint32_t kParams = 0x4D524150;     // "PARM"
constexpr std::uint32_t kResiduals = 0x53524645;  // "EFRS"
constexpr std::uint32_t kAsync = 0x4E595341;      // "ASYN"
constexpr std::uint32_t kTuner = 0x454E5554;      // "TUNE"
constexpr std::uint32_t kPrivacy = 0x56495250;    // "PRIV"

constexpr const char* kJournalFile = "round.journal";

/// Where a disk save publishes round `round`: <dir>/ckpt_<round>.bin.
std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      std::uint32_t round) {
  return dir / ("ckpt_" + std::to_string(round) + ".bin");
}

/// The round in a file name "ckpt_<round><suffix>"; nullopt for any other
/// name.
std::optional<std::uint32_t> round_in(std::string_view name,
                                      std::string_view suffix) {
  constexpr std::string_view kPrefix = "ckpt_";
  if (name.size() <= kPrefix.size() + suffix.size() ||
      !name.starts_with(kPrefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  const char* first = name.data() + kPrefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  std::uint32_t round = 0;
  const auto [end, err] = std::from_chars(first, last, round);
  if (err != std::errc{} || end != last) return std::nullopt;
  return round;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("decode_checkpoint: " + what);
}

/// A sink that only counts: a section's length comes from running its fill
/// into one of these, so the length prefix and the body cannot disagree.
class ByteCounter {
 public:
  template <typename T>
  void write(const T&) {
    n_ += sizeof(T);
  }
  template <typename T>
  void write_span(std::span<const T> data) {
    n_ += sizeof(std::uint64_t) + data.size_bytes();
  }
  std::uint64_t size() const { return n_; }

 private:
  std::uint64_t n_ = 0;
};

[[noreturn]] void io_failure(const std::filesystem::path& path) {
  const int err = errno;
  throw std::runtime_error("CheckpointStore: I/O error on " + path.string() +
                           ": " + std::strerror(err) + " (errno " +
                           std::to_string(err) + ")");
}

/// A file descriptor, closed on scope exit; close() reports its failure.
class Fd {
 public:
  Fd(const std::filesystem::path& path, int flags)
      : fd_(::open(path.c_str(), flags | O_CLOEXEC, 0644)) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  int get() const { return fd_; }
  bool close() { return ::close(std::exchange(fd_, -1)) == 0; }

 private:
  int fd_;
};

/// Writes a file through a buffer: small pieces gather in it, spans of at
/// least kCheckpointWriteBuffer bytes go straight to write(2), and a running
/// CRC32 covers every byte taken (crc32 per piece handed to the kernel,
/// folded with crc32_combine).  Every failure throws std::runtime_error
/// naming the file and errno.
class FileSink {
 public:
  /// Opens `path` for writing, creating it; `flags` adds O_TRUNC or
  /// O_APPEND.
  FileSink(const std::filesystem::path& path, int flags)
      : path_(path), fd_(path, O_WRONLY | O_CREAT | flags) {
    if (fd_.get() < 0) io_failure(path_);
    buf_.reserve(kCheckpointWriteBuffer);
  }

  template <typename T>
  void write(const T& value) {
    write_raw({reinterpret_cast<const std::uint8_t*>(&value), sizeof(T)});
  }
  template <typename T>
  void write_span(std::span<const T> data) {
    write(static_cast<std::uint64_t>(data.size()));
    write_raw({reinterpret_cast<const std::uint8_t*>(data.data()),
               data.size_bytes()});
  }
  void write_raw(std::span<const std::uint8_t> bytes) {
    if (bytes.size() >= kCheckpointWriteBuffer) {
      flush();
      send(bytes);
      return;
    }
    if (bytes.size() > kCheckpointWriteBuffer - buf_.size()) flush();
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// CRC32 of every byte taken so far.
  std::uint32_t crc() {
    flush();
    return crc_;
  }

  /// Sends what is buffered, fsyncs when `sync`, and closes the file; a
  /// failing close() fails the write too.
  void commit(bool sync) {
    flush();
    if ((sync && ::fsync(fd_.get()) != 0) || !fd_.close()) io_failure(path_);
  }

 private:
  void flush() {
    send(buf_);
    buf_.clear();
  }

  void send(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    crc_ = crc32_combine(crc_, crc32(bytes), bytes.size());
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd_.get(), bytes.data(), bytes.size());
      if (n > 0) {
        bytes = bytes.subspan(static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        if (n == 0) errno = EIO;  // no progress: fail, never spin
        io_failure(path_);
      }
    }
  }

  const std::filesystem::path path_;
  Fd fd_;
  std::vector<std::uint8_t> buf_;  // never grows past kCheckpointWriteBuffer
  std::uint32_t crc_ = 0;
};

/// The CRC32 of every byte a sink has taken, for the image's trailer.
std::uint32_t crc_of(const BinaryWriter& w) { return crc32(w.bytes()); }

std::uint32_t crc_of(FileSink& f) { return f.crc(); }

/// Appends one section: its tag, its body's length, then the body `fill`
/// writes.  `fill` runs twice, first into a ByteCounter for the length.
template <typename Sink, typename Fill>
void write_section(Sink& out, std::uint32_t tag, const Fill& fill) {
  ByteCounter body;
  fill(body);
  out.write(tag);
  out.write(body.size());
  fill(out);
}

template <typename Sink>
void write_link_stats(Sink& w, const LinkStats& l) {
  w.write(l.messages);
  w.write(l.payload_bytes);
  w.write(l.wire_bytes);
  w.write(l.transfer_seconds);
  w.write(l.retries);
  w.write(l.send_failures);
  w.write(l.corrupt_chunks);
  w.write(l.aborted_messages);
  w.write(l.deadline_misses);
  w.write(l.backoff_seconds);
}

template <typename Sink>
void write_async_state(Sink& w, const AsyncStateView& s) {
  w.write_span(s.defer_counts);
  w.write_span(s.next_eligible);
  w.write(static_cast<std::uint64_t>(s.in_flight.size()));
  for (const AsyncInFlightView& u : s.in_flight) {
    w.write(u.client);
    w.write(u.arrive_time);
    w.write(u.dispatch_version);
    w.write(u.wave_id);
    w.write(u.failure_kind);
    w.write(u.train_sim_seconds);
    w.write_span(u.wire);
  }
}

/// The one definition of the checkpoint layout (see encode_checkpoint),
/// run into any sink with BinaryWriter's write and write_span whose
/// crc_of(sink) is the CRC32 of every byte it has taken.
template <typename Sink>
void write_image(Sink& out, const CheckpointView& v) {
  out.write(kCkptMagic);
  write_section(out, kMeta, [&](auto& s) {
    s.write(v.round);
    s.write(v.sim_now);
    s.write_span(v.client_trained_rounds);
    s.write_span(v.membership);
    s.write(static_cast<std::uint64_t>(v.link_stats.size()));
    for (const LinkStats& l : v.link_stats) write_link_stats(s, l);
    s.write_span(v.server_opt_state);
  });
  write_section(out, kParams, [&](auto& s) { s.write_span(v.params); });
  if (!v.client_ef_residuals.empty()) {
    write_section(out, kResiduals, [&](auto& s) {
      s.write(static_cast<std::uint64_t>(v.client_ef_residuals.size()));
      for (const std::span<const float> residual : v.client_ef_residuals) {
        s.write_span(residual);
      }
    });
  }
  if (v.async_state) {
    write_section(out, kAsync,
                  [&](auto& s) { write_async_state(s, *v.async_state); });
  }
  if (!v.tuner_state.empty()) {
    write_section(out, kTuner, [&](auto& s) { s.write_span(v.tuner_state); });
  }
  if (v.privacy_state) {
    write_section(out, kPrivacy, [&](auto& s) {
      const PrivacyCheckpointState& p = *v.privacy_state;
      s.write(p.accounted_rounds);
      s.write(p.noise_multiplier);
      s.write(p.delta);
      s.write(p.wave_counter);
      s.write(p.shares_reconstructed_total);
    });
  }
  out.write(crc_of(out));
}

AsyncAggregatorState read_async_state(BinaryReader& r) {
  AsyncAggregatorState s;
  s.defer_counts = r.read_vector<std::uint32_t>();
  s.next_eligible = r.read_vector<double>();
  // Grown one record at a time: a count the bytes cannot back fails on a
  // truncated read, never on a huge allocation.
  const auto n = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    AsyncInFlightSnapshot& u = s.in_flight.emplace_back();
    u.client = r.read<int>();
    u.arrive_time = r.read<double>();
    u.dispatch_version = r.read<std::uint32_t>();
    u.wave_id = r.read<std::uint64_t>();
    u.failure_kind = r.read<std::uint8_t>();
    u.train_sim_seconds = r.read<double>();
    u.wire = r.read_vector<std::uint8_t>();
  }
  return s;
}

LinkStats read_link_stats(BinaryReader& r) {
  LinkStats l;
  l.messages = r.read<std::uint64_t>();
  l.payload_bytes = r.read<std::uint64_t>();
  l.wire_bytes = r.read<std::uint64_t>();
  l.transfer_seconds = r.read<double>();
  l.retries = r.read<std::uint64_t>();
  l.send_failures = r.read<std::uint64_t>();
  l.corrupt_chunks = r.read<std::uint64_t>();
  l.aborted_messages = r.read<std::uint64_t>();
  l.deadline_misses = r.read<std::uint64_t>();
  l.backoff_seconds = r.read<double>();
  return l;
}

/// fsync directory `dir`, making a rename inside it durable.
void sync_dir(const std::filesystem::path& dir) {
  const std::unique_ptr<DIR, int (*)(DIR*)> d(::opendir(dir.c_str()),
                                              &::closedir);
  if (!d || ::fsync(::dirfd(d.get())) != 0) io_failure(dir);
}

/// Unlinks every ckpt_<q>.bin and ckpt_<q>.bin.tmp in `dir` with q < round.
/// The commit of `round` is durable by then, so a failure must not fail the
/// round: it leaves the file for the next commit's scan and logs a warning.
/// A file already gone is no failure.
void remove_older(const std::filesystem::path& dir, std::uint32_t round) {
  std::vector<std::filesystem::path> older;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    std::optional<std::uint32_t> q = round_in(name, ".bin");
    if (!q) q = round_in(name, ".bin.tmp");
    if (q && *q < round) older.push_back(it->path());
  }
  if (ec) {
    PHOTON_LOG_WARN("checkpoint", "cannot list %s: %s", dir.c_str(),
                    ec.message().c_str());
  }
  for (const std::filesystem::path& path : older) {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      const int err = errno;
      PHOTON_LOG_WARN("checkpoint", "cannot remove %s: %s (errno %d)",
                      path.c_str(), std::strerror(err), err);
    }
  }
}

/// Overwrites `to` with the state `v` views, reusing `to`'s buffers.
void assign(Checkpoint& to, const CheckpointView& v) {
  const auto copy = [](auto& dst, auto src) {
    dst.assign(src.begin(), src.end());
  };
  to.round = v.round;
  copy(to.params, v.params);
  to.sim_now = v.sim_now;
  copy(to.client_trained_rounds, v.client_trained_rounds);
  copy(to.membership, v.membership);
  copy(to.link_stats, v.link_stats);
  copy(to.server_opt_state, v.server_opt_state);
  to.client_ef_residuals.resize(v.client_ef_residuals.size());
  for (std::size_t c = 0; c < v.client_ef_residuals.size(); ++c) {
    copy(to.client_ef_residuals[c], v.client_ef_residuals[c]);
  }
  if (v.async_state) {
    AsyncAggregatorState& a =
        to.async_state ? *to.async_state : to.async_state.emplace();
    copy(a.defer_counts, v.async_state->defer_counts);
    copy(a.next_eligible, v.async_state->next_eligible);
    a.in_flight.resize(v.async_state->in_flight.size());
    for (std::size_t i = 0; i < a.in_flight.size(); ++i) {
      const AsyncInFlightView& u = v.async_state->in_flight[i];
      static_cast<AsyncInFlightRecord&>(a.in_flight[i]) = u;
      copy(a.in_flight[i].wire, u.wire);
    }
  } else {
    to.async_state.reset();
  }
  copy(to.tuner_state, v.tuner_state);
  to.privacy_state = v.privacy_state;
}

}  // namespace

CheckpointView::CheckpointView(const Checkpoint& ckpt)
    : round(ckpt.round),
      params(ckpt.params),
      sim_now(ckpt.sim_now),
      client_trained_rounds(ckpt.client_trained_rounds),
      membership(ckpt.membership),
      link_stats(ckpt.link_stats),
      server_opt_state(ckpt.server_opt_state),
      client_ef_residuals(ckpt.client_ef_residuals.begin(),
                          ckpt.client_ef_residuals.end()),
      tuner_state(ckpt.tuner_state),
      privacy_state(ckpt.privacy_state) {
  if (ckpt.async_state) {
    AsyncStateView& a = async_state.emplace();
    a.defer_counts = ckpt.async_state->defer_counts;
    a.next_eligible = ckpt.async_state->next_eligible;
    for (const AsyncInFlightSnapshot& u : ckpt.async_state->in_flight) {
      AsyncInFlightView& v = a.in_flight.emplace_back();
      static_cast<AsyncInFlightRecord&>(v) = u;
      v.wire = u.wire;
    }
  }
}

std::vector<std::uint8_t> encode_checkpoint(const CheckpointView& ckpt) {
  BinaryWriter w;
  write_image(w, ckpt);
  return w.take();
}

Checkpoint decode_checkpoint(std::span<const std::uint8_t> image) {
  constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);
  if (image.size() < sizeof(kCkptMagic) + kCrcBytes) corrupt("truncated image");
  const auto body = image.first(image.size() - kCrcBytes);
  const auto crc = BinaryReader(image.last(kCrcBytes)).read<std::uint32_t>();
  BinaryReader r(body);
  if (r.read<std::uint32_t>() != kCkptMagic) corrupt("bad magic");
  if (crc32(body) != crc) corrupt("CRC mismatch");

  Checkpoint ckpt;
  std::set<std::uint32_t> seen;
  while (!r.exhausted()) {
    const auto tag = r.read<std::uint32_t>();
    BinaryReader s(r.view_raw(r.read<std::uint64_t>()));
    if (!seen.insert(tag).second) corrupt("repeated section");
    if (tag == kMeta) {
      ckpt.round = s.read<std::uint32_t>();
      ckpt.sim_now = s.read<double>();
      ckpt.client_trained_rounds = s.read_vector<std::uint32_t>();
      for (const auto m : s.read_vector<std::uint8_t>()) {
        if (m > static_cast<std::uint8_t>(MembershipState::kLeft)) {
          corrupt("bad membership state");
        }
        ckpt.membership.push_back(static_cast<MembershipState>(m));
      }
      for (auto n = s.read<std::uint64_t>(); n > 0; --n) {
        ckpt.link_stats.push_back(read_link_stats(s));
      }
      ckpt.server_opt_state = s.read_vector<std::uint8_t>();
    } else if (tag == kParams) {
      ckpt.params = s.read_vector<float>();
    } else if (tag == kResiduals) {
      const auto n = s.read<std::uint64_t>();
      for (std::uint64_t i = 0; i < n; ++i) {
        ckpt.client_ef_residuals.push_back(s.read_vector<float>());
      }
    } else if (tag == kAsync) {
      ckpt.async_state = read_async_state(s);
    } else if (tag == kTuner) {
      ckpt.tuner_state = s.read_vector<std::uint8_t>();
    } else if (tag == kPrivacy) {
      PrivacyCheckpointState& p = ckpt.privacy_state.emplace();
      p.accounted_rounds = s.read<std::uint64_t>();
      p.noise_multiplier = s.read<double>();
      p.delta = s.read<double>();
      p.wave_counter = s.read<std::uint64_t>();
      p.shares_reconstructed_total = s.read<std::uint64_t>();
    } else {
      corrupt("unknown section");
    }
    if (!s.exhausted()) corrupt("section body not consumed exactly");
  }
  if (!seen.contains(kMeta) || !seen.contains(kParams)) {
    corrupt("missing metadata or params section");
  }
  return ckpt;
}

CheckpointStore::CheckpointStore(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::filesystem::create_directories(dir_);
    replay_journal();
  }
}

void CheckpointStore::save(const CheckpointView& ckpt) {
  if (dir_.empty()) {
    assign(memory_ ? *memory_ : memory_.emplace(), ckpt);
    return;
  }
  // tmp -> fsync -> rename -> fsync(dir).  latest() skips the .tmp that a
  // crash mid-write leaves behind; a write that fails removes its own.
  const auto path = checkpoint_path(dir_, ckpt.round);
  auto tmp = path;
  tmp += ".tmp";
  try {
    FileSink file(tmp, O_TRUNC);
    write_image(file, ckpt);
    file.commit(true);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  sync_dir(dir_);
}

std::optional<Checkpoint> CheckpointStore::latest() const {
  if (dir_.empty() || !std::filesystem::exists(dir_)) return memory_;
  std::optional<std::uint32_t> best;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const auto round = round_in(entry.path().filename().string(), ".bin");
    if (round && (!best || *round > *best)) best = round;
  }
  if (!best) return std::nullopt;
  return read_from_disk(*best);
}

std::optional<Checkpoint> CheckpointStore::at_round(std::uint32_t round) const {
  if (!dir_.empty()) return read_from_disk(round);
  if (memory_ && memory_->round == round) return memory_;
  return std::nullopt;
}

void CheckpointStore::journal_append(char tag, std::uint32_t round) {
  std::string entry;
  entry += tag;
  entry += ' ';
  entry += std::to_string(round);
  journal_.push_back(entry);
  if (!dir_.empty()) {
    entry += '\n';
    FileSink file(dir_ / kJournalFile, O_APPEND);
    file.write_raw({reinterpret_cast<const std::uint8_t*>(entry.data()),
                    entry.size()});
    // A commit vouches for a durable checkpoint, so it must be durable too.
    file.commit(tag == 'C');
  }
}

void CheckpointStore::journal_begin(std::uint32_t round) {
  journal_append('B', round);
  last_begun_ = std::max<std::int64_t>(last_begun_, round);
}

void CheckpointStore::journal_commit(std::uint32_t round) {
  journal_append('C', round);
  last_committed_ = std::max<std::int64_t>(last_committed_, round);
  // With `C round` durable, no older file is a restore point.  Deleting
  // them lets the next save's write(2) reuse their page-cache pages.
  if (!dir_.empty()) remove_older(dir_, round);
}

void CheckpointStore::journal_recovered(std::uint32_t round) {
  journal_append('R', round);
}

void CheckpointStore::replay_journal() {
  std::ifstream is(dir_ / kJournalFile);
  if (!is) return;
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() < 3 || line[1] != ' ') continue;  // torn tail line
    std::int64_t round = -1;
    try {
      round = std::stoll(line.substr(2));
    } catch (const std::exception&) {
      continue;
    }
    if (round < 0) continue;
    journal_.push_back(line);
    if (line[0] == 'B') last_begun_ = std::max(last_begun_, round);
    if (line[0] == 'C') last_committed_ = std::max(last_committed_, round);
  }
}

std::optional<Checkpoint> CheckpointStore::read_from_disk(
    std::uint32_t round) const {
  const auto path = checkpoint_path(dir_, round);
  const Fd file(path, O_RDONLY);
  if (file.get() < 0) return std::nullopt;
  struct stat st {};
  if (::fstat(file.get(), &st) != 0) io_failure(path);
  const auto size = static_cast<std::size_t>(st.st_size);
  const auto bytes = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(file.get(), bytes.get() + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;  // shorter than its size said: decode rejects the truncation
    } else if (errno != EINTR) {
      io_failure(path);
    }
  }
  return decode_checkpoint({bytes.get(), got});
}

}  // namespace photon
