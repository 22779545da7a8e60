#include "recovery/snapshot.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "codec/frame.hpp"
#include "codec/null_codec.hpp"

namespace swallow::recovery {

namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'W', 'S', 'N'};
constexpr std::size_t kHeaderSize = 4 + 8 + 4 + 8;  // magic|seq|version|fpr

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    throw RecoveryError("snapshot: cannot open '" + path +
                        "': " + std::strerror(errno));
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[64 * 1024];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    data.insert(data.end(), chunk, chunk + n);
  std::fclose(f);
  return data;
}

}  // namespace

Fingerprint& Fingerprint::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
  return *this;
}

Fingerprint& Fingerprint::mix(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix(const std::string& s) {
  mix(static_cast<std::uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  return *this;
}

std::string snapshot_path(const std::string& dir, std::uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof name, "snap-%012llu.swsnap",
                static_cast<unsigned long long>(seq));
  return (fs::path(dir) / name).string();
}

void write_snapshot(const std::string& dir, const SnapshotMeta& meta,
                    std::span<const std::uint8_t> payload,
                    SnapshotCrashHook* crash_hook) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw RecoveryError("snapshot: cannot create directory '" + dir +
                        "': " + ec.message());

  StateWriter header;
  header.bytes(std::span<const std::uint8_t>(kMagic, 4));
  header.u64(meta.seq);
  header.u32(meta.version);
  header.u64(meta.fingerprint);
  // Stored (null-codec) framing: the frame's per-block checksums are the
  // corruption guard. LZ does not pay here — by the Eq. 3 test, R(1 - xi)
  // of swlz-fast on engine state (~318 MB/s at xi ~0.49, so ~160 MB/s) is
  // far below the GB/s a stored frame and a buffered write sustain.
  const codec::Buffer frame =
      codec::frame_compress(codec::NullCodec(), payload);

  const std::string final_path = snapshot_path(dir, meta.seq);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (!f)
    throw RecoveryError("snapshot: cannot create '" + tmp_path +
                        "': " + std::strerror(errno));
  const auto& head = header.buffer();
  const bool wrote =
      std::fwrite(head.data(), 1, head.size(), f) == head.size() &&
      std::fwrite(frame.data(), 1, frame.size(), f) == frame.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed)
    throw RecoveryError("snapshot: short write to '" + tmp_path +
                        "': " + std::strerror(errno));

  if (crash_hook) crash_hook->on_tmp_written(tmp_path);

  fs::rename(tmp_path, final_path, ec);
  if (ec)
    throw RecoveryError("snapshot: cannot publish '" + final_path +
                        "': " + ec.message());
}

LoadedSnapshot read_snapshot(const std::string& path,
                             std::uint64_t expected_fingerprint) {
  const std::vector<std::uint8_t> data = read_file(path);
  if (data.size() < kHeaderSize)
    throw RecoveryError("snapshot: '" + path + "' truncated before header",
                        data.size());
  StateReader r(data);
  for (int i = 0; i < 4; ++i)
    if (r.u8() != kMagic[i])
      throw RecoveryError("snapshot: '" + path + "' has bad magic", 0);

  LoadedSnapshot snap;
  snap.meta.seq = r.u64();
  snap.meta.version = r.u32();
  snap.meta.fingerprint = r.u64();
  if (snap.meta.version != kSnapshotVersion)
    throw RecoveryError("snapshot: '" + path + "' is format version " +
                            std::to_string(snap.meta.version) +
                            ", this build reads version " +
                            std::to_string(kSnapshotVersion),
                        4 + 8);
  if (expected_fingerprint != 0 &&
      snap.meta.fingerprint != expected_fingerprint)
    throw RecoveryError(
        "snapshot: '" + path +
            "' was taken under a different configuration/trace "
            "(fingerprint mismatch)",
        4 + 8 + 4);

  std::span<const std::uint8_t> frame(data.data() + r.offset(),
                                      data.size() - r.offset());
  try {
    snap.payload = codec::frame_decompress(frame);
  } catch (const codec::CodecError& e) {
    throw RecoveryError("snapshot: '" + path +
                            "' payload frame is corrupt: " + e.what(),
                        r.offset());
  }
  return snap;
}

std::optional<LoadedSnapshot> load_latest_snapshot(
    const std::string& dir, std::uint64_t expected_fingerprint) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return std::nullopt;

  std::vector<std::string> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.starts_with("snap-") && name.ends_with(".swsnap"))
      candidates.push_back(entry.path().string());
  }
  // Names embed zero-padded seq, so lexicographic descending = newest
  // first.
  std::sort(candidates.rbegin(), candidates.rend());
  for (const std::string& path : candidates) {
    try {
      return read_snapshot(path, expected_fingerprint);
    } catch (const RecoveryError&) {
      // Torn/corrupt/mismatched snapshot: fall back to the next-newest.
      continue;
    }
  }
  return std::nullopt;
}

}  // namespace swallow::recovery
