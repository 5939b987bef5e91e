#include "dist/cell_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "common/json.hpp"
#include "common/snapshot.hpp"
#include "common/table.hpp"

namespace cr {

namespace fs = std::filesystem;

namespace {

std::string hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fnv1a_text(const std::string& text) {
  return fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

bool is_hex16_name(const std::string& name) {
  if (name.size() != 16) return false;
  for (const char c : name)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string utc_now_stamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Process-unique scratch name: PID + random suffix, so two processes (or
/// two stores within one process) racing the same cache never collide on a
/// tmp path.
std::string unique_suffix() {
  static thread_local std::mt19937_64 gen(
      std::random_device{}() ^
      (static_cast<std::uint64_t>(::getpid()) << 32) ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()));
  return std::to_string(::getpid()) + "-" + hex16(gen());
}

/// Validate one entry directory against an optional probe. Returns true on
/// a clean, provenance-matching entry; otherwise fills `*diagnostic` with a
/// named reason. `csv_out` (optional) receives the verified bytes.
bool validate_entry(const std::string& entry_dir, const CellKey* probe,
                    std::string* csv_out, std::string* diagnostic) {
  const std::string meta_path = entry_dir + "/meta.json";
  const JsonParseResult meta = JsonValue::parse_file(meta_path);
  if (!meta.ok() || !meta.value->is_object()) {
    *diagnostic = "unreadable meta.json (" + (meta.ok() ? "not an object" : meta.error) + ")";
    return false;
  }
  const auto field = [&](const char* name) -> std::string {
    const JsonValue* v = meta.value->find(name);
    return v != nullptr && v->is_string() ? v->as_string() : std::string();
  };
  const JsonValue* quick = meta.value->find("quick");
  if (field("schema") != "cr-cellcache/1") {
    *diagnostic = "meta.json schema is not cr-cellcache/1";
    return false;
  }
  if (quick == nullptr || !quick->is_bool()) {
    *diagnostic = "meta.json missing boolean \"quick\"";
    return false;
  }
  if (probe != nullptr) {
    // Full provenance comparison: an FNV key collision (or a hand-edited
    // entry) must degrade to a named miss, never serve foreign bytes.
    if (field("config_hash") != probe->config_hash || field("cell_id") != probe->cell_id ||
        field("source_digest") != probe->source_digest || quick->as_bool() != probe->quick) {
      *diagnostic = "provenance mismatch (stored entry was produced by a different "
                    "config/cell/source/quick combination)";
      return false;
    }
  }
  const std::string expected_fnv = field("csv_fnv");
  if (expected_fnv.empty()) {
    *diagnostic = "meta.json missing \"csv_fnv\"";
    return false;
  }
  std::ifstream csv_in(entry_dir + "/cell.csv", std::ios::binary);
  if (!csv_in) {
    *diagnostic = "cell.csv is missing";
    return false;
  }
  std::ostringstream buf;
  buf << csv_in.rdbuf();
  std::string csv = buf.str();
  if (hex16(fnv1a_text(csv)) != expected_fnv) {
    *diagnostic = "cell.csv checksum mismatch (expected csv_fnv " + expected_fnv + ")";
    return false;
  }
  if (csv_out != nullptr) *csv_out = std::move(csv);
  return true;
}

}  // namespace

CellCache::CellCache(std::string dir) : dir_(std::move(dir)) {}

std::string CellCache::key_of(const CellKey& key) {
  // \x1f separators mirror suite_config_hash's field framing: "ab"+"c"
  // never collides with "a"+"bc".
  const std::string text = key.config_hash + '\x1f' + key.cell_id + '\x1f' +
                           key.source_digest + '\x1f' + (key.quick ? '1' : '0');
  return hex16(fnv1a_text(text));
}

CacheLookup CellCache::lookup(const CellKey& key) const {
  CacheLookup out;
  const std::string entry = entry_dir(key_of(key));
  std::error_code ec;
  if (!fs::exists(entry, ec)) return out;  // clean miss
  std::string diagnostic;
  if (validate_entry(entry, &key, &out.csv, &diagnostic)) {
    out.hit = true;
    return out;
  }
  out.diagnostic = "cache entry " + key_of(key) + " rejected: " + diagnostic;
  return out;
}

bool CellCache::store(const CellKey& key, const std::string& csv, const std::string& git_sha,
                      double seconds, std::string* error) const {
  const std::string hex_key = key_of(key);
  const std::string final_dir = entry_dir(hex_key);
  std::error_code ec;
  if (fs::exists(final_dir, ec)) return true;  // already stored (rule 9: identical)
  fs::create_directories(dir_, ec);
  if (ec) {
    *error = "cannot create cache dir " + dir_ + ": " + ec.message();
    return false;
  }
  const std::string tmp_dir = dir_ + "/tmp-" + unique_suffix();
  fs::create_directory(tmp_dir, ec);
  if (ec) {
    *error = "cannot create " + tmp_dir + ": " + ec.message();
    return false;
  }
  {
    std::ofstream csv_out(tmp_dir + "/cell.csv", std::ios::binary | std::ios::trunc);
    csv_out << csv;
    csv_out.flush();
    if (!csv_out) {
      *error = "cannot write " + tmp_dir + "/cell.csv";
      fs::remove_all(tmp_dir, ec);
      return false;
    }
  }
  {
    std::ofstream meta(tmp_dir + "/meta.json", std::ios::binary | std::ios::trunc);
    meta << "{\n"
         << "  \"schema\": \"cr-cellcache/1\",\n"
         << "  \"key\": " << json_quote(hex_key) << ",\n"
         << "  \"config_hash\": " << json_quote(key.config_hash) << ",\n"
         << "  \"cell_id\": " << json_quote(key.cell_id) << ",\n"
         << "  \"source_digest\": " << json_quote(key.source_digest) << ",\n"
         << "  \"quick\": " << (key.quick ? "true" : "false") << ",\n"
         << "  \"git_sha\": " << json_quote(git_sha) << ",\n"
         << "  \"created_utc\": " << json_quote(utc_now_stamp()) << ",\n"
         << "  \"csv_fnv\": " << json_quote(hex16(fnv1a_text(csv))) << ",\n"
         << "  \"csv_bytes\": " << csv.size() << ",\n"
         << "  \"compute_seconds\": " << format_double(seconds, 3) << "\n"
         << "}\n";
    meta.flush();
    if (!meta) {
      *error = "cannot write " + tmp_dir + "/meta.json";
      fs::remove_all(tmp_dir, ec);
      return false;
    }
  }
  fs::rename(tmp_dir, final_dir, ec);
  if (ec) {
    // Racing store of the same key: someone else's rename landed first.
    // Their bytes are ours by rule 9, so losing the race is success.
    fs::remove_all(tmp_dir, ec);
    std::error_code exists_ec;
    if (fs::exists(final_dir, exists_ec)) return true;
    *error = "cannot publish cache entry " + final_dir;
    return false;
  }
  return true;
}

CacheStats CellCache::stats() const {
  CacheStats out;
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return out;
  for (const auto& item : fs::directory_iterator(dir_, ec)) {
    const std::string name = item.path().filename().string();
    if (!item.is_directory() || !is_hex16_name(name)) {
      ++out.stray;
      continue;
    }
    std::string diagnostic;
    if (!validate_entry(item.path().string(), nullptr, nullptr, &diagnostic)) {
      ++out.corrupt;
      continue;
    }
    ++out.entries;
    for (const auto& file : fs::directory_iterator(item.path(), ec)) {
      const std::uint64_t size = file.is_regular_file() ? file.file_size(ec) : 0;
      out.total_bytes += size;
      if (file.path().filename() == "cell.csv") out.csv_bytes += size;
    }
  }
  return out;
}

std::size_t CellCache::gc(std::uint64_t max_bytes) {
  std::size_t removed = 0;
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return 0;
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t bytes = 0;
  };
  std::vector<Entry> keepable;
  for (const auto& item : fs::directory_iterator(dir_, ec)) {
    const std::string name = item.path().filename().string();
    const bool is_entry = item.is_directory() && is_hex16_name(name);
    std::string diagnostic;
    if (!is_entry || !validate_entry(item.path().string(), nullptr, nullptr, &diagnostic)) {
      // Corrupt entries and abandoned tmp dirs are dead weight either way.
      fs::remove_all(item.path(), ec);
      ++removed;
      continue;
    }
    Entry entry{item.path(), fs::last_write_time(item.path() / "meta.json", ec), 0};
    for (const auto& file : fs::directory_iterator(item.path(), ec))
      if (file.is_regular_file()) entry.bytes += file.file_size(ec);
    keepable.push_back(std::move(entry));
  }
  // Newest first; evict from the tail until under budget.
  std::sort(keepable.begin(), keepable.end(),
            [](const Entry& a, const Entry& b) { return a.mtime > b.mtime; });
  std::uint64_t kept_bytes = 0;
  for (const Entry& entry : keepable) {
    if (kept_bytes + entry.bytes <= max_bytes) {
      kept_bytes += entry.bytes;
    } else {
      fs::remove_all(entry.path, ec);
      ++removed;
    }
  }
  return removed;
}

}  // namespace cr
