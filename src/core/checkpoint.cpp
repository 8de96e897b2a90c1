#include "core/checkpoint.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>

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

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("decode_checkpoint: " + what);
}

/// Appends one section: its tag, its body's length, then the body `fill`
/// writes into `w`.
template <typename Fill>
void write_section(BinaryWriter& w, std::uint32_t tag, Fill&& fill) {
  w.write(tag);
  const std::size_t len_at = w.size();
  w.write(std::uint64_t{0});  // patched once the body is written
  fill();
  w.write_at(len_at, static_cast<std::uint64_t>(w.size() - len_at -
                                                sizeof(std::uint64_t)));
}

void write_async_state(BinaryWriter& w, const AsyncAggregatorState& s) {
  w.write_vector(s.defer_counts);
  w.write_vector(s.next_eligible);
  w.write(static_cast<std::uint64_t>(s.in_flight.size()));
  for (const AsyncInFlightSnapshot& u : s.in_flight) {
    w.write(u.client);
    w.write(u.arrive_time);
    w.write(u.dispatch_version);
    w.write(u.wave_id);
    w.write(u.failure_kind);
    w.write(u.tokens);
    w.write(u.mean_train_loss);
    w.write(u.train_sim_seconds);
    w.write_vector(u.wire);
  }
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
    u.tokens = r.read<std::uint64_t>();
    u.mean_train_loss = r.read<double>();
    u.train_sim_seconds = r.read<double>();
    u.wire = r.read_vector<std::uint8_t>();
  }
  return s;
}

void write_link_stats(BinaryWriter& w, const LinkStats& l) {
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

[[noreturn]] void io_failure(const std::filesystem::path& path) {
  throw std::runtime_error("CheckpointStore: I/O error on " + path.string() +
                           ": " + std::strerror(errno));
}

using FilePtr =
    std::unique_ptr<std::FILE, decltype([](std::FILE* f) { std::fclose(f); })>;

/// Write `bytes` to `path` opened with fopen `mode`, then fsync it when
/// `sync`; throws std::runtime_error on any failure.
void write_file(const std::filesystem::path& path, const char* mode,
                std::span<const std::uint8_t> bytes, bool sync) {
  const FilePtr f(std::fopen(path.c_str(), mode));
  if (!f ||
      std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size() ||
      std::fflush(f.get()) != 0 || (sync && ::fsync(::fileno(f.get())) != 0)) {
    io_failure(path);
  }
}

/// fsync directory `dir`, making a rename inside it durable.
void sync_dir(const std::filesystem::path& dir) {
  const std::unique_ptr<DIR, int (*)(DIR*)> d(::opendir(dir.c_str()),
                                              &::closedir);
  if (!d || ::fsync(::dirfd(d.get())) != 0) io_failure(dir);
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& ckpt) {
  BinaryWriter w;
  w.write(kCkptMagic);
  write_section(w, kMeta, [&] {
    w.write(ckpt.round);
    w.write(ckpt.sim_now);
    w.write_vector(ckpt.client_trained_rounds);
    w.write_vector(ckpt.membership);
    w.write(static_cast<std::uint64_t>(ckpt.link_stats.size()));
    for (const LinkStats& l : ckpt.link_stats) write_link_stats(w, l);
    w.write_vector(ckpt.server_opt_state);
  });
  write_section(w, kParams, [&] { w.write_vector(ckpt.params); });
  if (!ckpt.client_ef_residuals.empty()) {
    write_section(w, kResiduals, [&] {
      w.write(static_cast<std::uint64_t>(ckpt.client_ef_residuals.size()));
      for (const auto& residual : ckpt.client_ef_residuals) {
        w.write_vector(residual);
      }
    });
  }
  if (ckpt.async_state) {
    write_section(w, kAsync, [&] { write_async_state(w, *ckpt.async_state); });
  }
  if (!ckpt.tuner_state.empty()) {
    write_section(w, kTuner, [&] { w.write_vector(ckpt.tuner_state); });
  }
  if (ckpt.privacy_state) {
    write_section(w, kPrivacy, [&] {
      const PrivacyCheckpointState& p = *ckpt.privacy_state;
      w.write(p.accounted_rounds);
      w.write(p.noise_multiplier);
      w.write(p.delta);
      w.write(p.wave_counter);
      w.write(p.shares_reconstructed_total);
    });
  }
  w.write(crc32(w.bytes()));
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

void CheckpointStore::save(Checkpoint ckpt) {
  if (dir_.empty()) {
    memory_ = std::move(ckpt);
    return;
  }
  // tmp -> fsync -> rename -> fsync(dir).  latest() skips the .tmp that a
  // crash mid-write leaves behind.
  const auto path = dir_ / ("ckpt_" + std::to_string(ckpt.round) + ".bin");
  auto tmp = path;
  tmp += ".tmp";
  write_file(tmp, "wb", encode_checkpoint(ckpt), true);
  std::filesystem::rename(tmp, path);
  sync_dir(dir_);
}

std::optional<Checkpoint> CheckpointStore::latest() const {
  if (dir_.empty() || !std::filesystem::exists(dir_)) return memory_;
  std::int64_t best = -1;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_", 0) != 0 || entry.path().extension() != ".bin") {
      continue;
    }
    try {
      best = std::max<std::int64_t>(best, std::stoll(name.substr(5)));
    } catch (const std::exception&) {
      continue;  // not one of ours
    }
  }
  if (best < 0) return std::nullopt;
  return read_from_disk(static_cast<std::uint32_t>(best));
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
    // A commit vouches for a durable checkpoint, so it must be durable too.
    write_file(dir_ / kJournalFile, "ab",
               {reinterpret_cast<const std::uint8_t*>(entry.data()),
                entry.size()},
               tag == 'C');
  }
}

void CheckpointStore::journal_begin(std::uint32_t round) {
  journal_append('B', round);
  last_begun_ = std::max<std::int64_t>(last_begun_, round);
}

void CheckpointStore::journal_commit(std::uint32_t round) {
  journal_append('C', round);
  last_committed_ = std::max<std::int64_t>(last_committed_, round);
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
  const auto path = dir_ / ("ckpt_" + std::to_string(round) + ".bin");
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                        std::istreambuf_iterator<char>());
  return decode_checkpoint(bytes);
}

}  // namespace photon
