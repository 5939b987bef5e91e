/// \file
/// CellCache: a content-addressed, on-disk store of finished suite cells.
///
/// The key is FNV-1a 64 over the three facts that fully determine a cell's
/// output bytes (determinism rule 9 in docs/ARCHITECTURE.md):
///
///     key = fnv1a(config_hash \x1f cell_id \x1f source_digest \x1f quick)
///
///   * `config_hash` — the suite's FNV-1a over the FULL expansion (every
///     cell's bench, flags and seed), so any parameter change anywhere in
///     the suite re-keys every cell it could have influenced;
///   * `cell_id` — which cell within that expansion;
///   * `source_digest` — the running binary's digest (common/source_digest),
///     so a code change is a cache miss, never a silently-stale hit;
///   * the --quick mode, which changes cell output but is a run option
///     outside the config hash.
///
/// Thread count is deliberately NOT in the key: results are thread-count
/// invariant (determinism rule 2), so a 1-thread and an 8-thread run of the
/// same cell produce the same bytes and may share an entry.
///
/// On-disk layout (all writes are tmp-dir + rename, so readers never see a
/// partial entry):
///
///     <cache_dir>/<16-hex key>/meta.json   provenance + csv_fnv checksum
///     <cache_dir>/<16-hex key>/cell.csv    the cell's exact output bytes
///
/// A hit is served only after the stored provenance fields are compared
/// verbatim against the probe (an FNV key collision therefore degrades to a
/// miss, never a wrong answer) and the CSV bytes re-hash to the recorded
/// csv_fnv. Any mismatch is a named diagnostic and a miss — a corrupted
/// cache can cost recomputation, never correctness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cr {

/// Process-unique tmp-name suffix, ".tmp-<pid>-<16 hex>": concurrent
/// processes sharing one directory (shards writing one out_dir, stores
/// racing into one cache) — or one process writing the same path twice —
/// never collide on a tmp path, so nobody renames someone else's partial
/// write into place.
std::string unique_tmp_suffix();

/// The probe: everything that determines a cell's output bytes.
struct CellKey {
  std::string config_hash;    ///< suite_config_hash of the full expansion
  std::string cell_id;        ///< expanded cell id (CSV filename stem)
  std::string source_digest;  ///< common/source_digest of the producer
  bool quick = false;
};

/// Lookup outcome. `hit` implies `csv` holds the exact stored bytes and the
/// entry passed provenance + checksum validation. A non-empty `diagnostic`
/// with hit == false names why an EXISTING entry was rejected (corruption,
/// provenance mismatch); a clean miss has both empty.
struct CacheLookup {
  bool hit = false;
  std::string csv;
  std::string diagnostic;
};

/// Aggregate numbers for `cr cache stats`.
struct CacheStats {
  std::size_t entries = 0;
  std::uint64_t csv_bytes = 0;    ///< payload bytes (cell.csv files)
  std::uint64_t total_bytes = 0;  ///< payload + metadata
  std::size_t corrupt = 0;        ///< entries that fail validation
  std::size_t stray = 0;          ///< abandoned tmp dirs / foreign files
};

class CellCache {
 public:
  /// Opens (and lazily creates on first store) the cache at `dir`.
  explicit CellCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// 16-hex FNV-1a key for a probe — exposed for tests and diagnostics.
  static std::string key_of(const CellKey& key);

  /// Validated lookup; see CacheLookup.
  CacheLookup lookup(const CellKey& key) const;

  /// Store a finished cell's CSV bytes under `key`. `git_sha` and `seconds`
  /// are audit metadata (where the bytes came from, what they cost to
  /// compute). Losing a race to another process storing the same key is a
  /// success (the entries are byte-identical by rule 9). Returns false only
  /// on I/O failure, with a message in `*error`.
  bool store(const CellKey& key, const std::string& csv, const std::string& git_sha,
             double seconds, std::string* error) const;

  /// Walk the cache and count entries/bytes; validates each entry so
  /// `corrupt` is populated.
  CacheStats stats() const;

  /// Evict entries, oldest (by meta.json mtime) first, until the total
  /// on-disk bytes (cell.csv + meta.json per entry) are <= max_bytes.
  /// Corrupt entries and abandoned tmp dirs are always removed. Returns the
  /// number of entries removed.
  std::size_t gc(std::uint64_t max_bytes);

 private:
  std::string entry_dir(const std::string& hex_key) const { return dir_ + "/" + hex_key; }

  std::string dir_;
};

}  // namespace cr
