#include "cli/suite.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "cli/bench_registry.hpp"
#include "common/cli.hpp"
#include "common/snapshot.hpp"
#include "common/source_digest.hpp"
#include "common/table.hpp"
#include "dist/cell_cache.hpp"

namespace cr {

namespace {

/// Flags the runner itself controls; a manifest naming one is a mistake.
/// --quick is reserved too: it is a run option (`cr suite run --quick`) and
/// the stale-resume guard tracks it, so a per-cell override would record
/// wrong provenance.
const std::set<std::string>& reserved_flags() {
  static const std::set<std::string> reserved = {"seed",    "csv",  "quiet",
                                                 "threads", "help", "quick"};
  return reserved;
}

/// A flag a manifest may set on `bench`: one the bench accepts
/// (BenchSpec::accepts_flag, the rule `cr bench` enforces) that is not
/// runner-reserved.
bool flag_allowed(const BenchSpec& spec, const std::string& name) {
  return reserved_flags().count(name) == 0 && spec.accepts_flag(name);
}

/// Manifest scalars become flag text: numbers keep their raw source bytes,
/// strings their decoded text, booleans "true"/"false".
bool scalar_flag_text(const JsonValue& value, std::string* out) {
  if (value.is_number() || value.is_string()) {
    *out = value.scalar_text();
    return true;
  }
  if (value.is_bool()) {
    *out = value.as_bool() ? "true" : "false";
    return true;
  }
  return false;
}

/// Strict decimal seed parse: digits only, capped at INT64_MAX — the seed
/// travels through Cli::get_int (strtoll) in the bench, so anything larger
/// would pass validation here only to abort at run time.
bool parse_seed(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t value = 0;
  const std::uint64_t max = static_cast<std::uint64_t>(INT64_MAX);
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

std::string sanitize_for_path(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
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
  return out;
}

}  // namespace

std::string git_head_sha(const std::string& dir) {
  if (dir.empty()) return "unknown";
  // Shell-quote the directory: close the single-quoted span, emit an
  // escaped quote, reopen ('\'' idiom).
  std::string quoted = "'";
  for (const char c : dir)
    if (c == '\'')
      quoted += "'\\''";
    else
      quoted += c;
  quoted += "'";
  std::string out;
  const std::string cmd = "git -C " + quoted + " rev-parse --short HEAD 2>/dev/null";
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) out = buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

namespace {

/// Start one cell in a forked child so a bench that exits or aborts (bad
/// flag value hitting CR_CHECK, std::exit in a driver, a crash) becomes a
/// "failed" status for THAT cell instead of killing the whole suite run.
/// Several cells may be in flight at once, but only as child processes: the
/// parent starts no threads, so no other threads are live at fork time.
/// Returns the child's pid, or -1 when fork itself fails.
pid_t run_cell_isolated(const std::string& bench, const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int rc = BenchRegistry::instance().run(bench, args);
    // _Exit: BenchDriver::write_csv has already closed the CSV, and the
    // child must not flush stdio buffers it inherited from the parent.
    std::_Exit(rc);
  }
  return pid;
}

std::string utc_now() {
  const std::time_t now = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

bool read_file_bytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// 16-hex FNV-1a 64 of `bytes`.
std::string bytes_fnv16(const std::string& bytes) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(
                    reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size())));
  return buf;
}

/// How run_suite executes each cell.
struct CellRunOptions {
  std::string out_dir;  ///< where <cell id>.csv lands
  bool quick = false;
  std::int64_t threads = 0;     ///< 0 = bench default
  CellCache* cache = nullptr;   ///< optional content-addressed result cache
  std::string config_hash;      ///< suite_config_hash; required when cache set
  std::string git_sha;          ///< audit metadata for cache stores
};

/// Outcome of one cell.
struct CellRunResult {
  std::string status;      ///< "ok" (computed) | "hit" (cache) | "failed"
  double seconds = 0.0;
  std::string csv_fnv;     ///< 16-hex FNV-1a of the CSV bytes; empty on failure
  std::string cache_note;  ///< non-empty when a corrupt cache entry was rejected
};

/// One cell between its start and its publication. start_cell either
/// restores it from the cache (no child) or forks it; reap_cell collects a
/// forked child's CSV; publish_cell renames the CSV into place and stores a
/// fresh result in the cache. Splitting the cell this way lets run_suite
/// keep several cells in flight and record each checksum in its manifest
/// before the CSV lands. A cache hit restores the CSV byte-identically to
/// recomputation (determinism rule 9), and every CSV reaches its final path
/// only by renaming a process-unique tmp file, so concurrent shards sharing
/// one out_dir never observe each other's partial writes.
struct CellJob {
  const SuiteCell* cell = nullptr;
  pid_t pid = -1;  ///< forked child still to reap; -1 when the result is final
  std::string csv_path;
  std::string tmp_path;  ///< process-unique; holds the CSV until publish_cell
  CellKey key;           ///< cache key, when a cache is configured
  std::chrono::steady_clock::time_point t0;
  std::string csv_bytes;  ///< the finished CSV, for the cache store
  CellRunResult result;

  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
};

CellJob start_cell(const SuiteCell& cell, const CellRunOptions& opts) {
  CellJob job;
  job.cell = &cell;
  job.csv_path = opts.out_dir + "/" + cell.id + ".csv";
  job.tmp_path = job.csv_path + unique_tmp_suffix();
  job.t0 = std::chrono::steady_clock::now();

  if (opts.cache != nullptr) {
    job.key.config_hash = opts.config_hash;
    job.key.cell_id = cell.id;
    job.key.source_digest = source_digest();
    job.key.quick = opts.quick;
    CacheLookup found = opts.cache->lookup(job.key);
    job.result.cache_note = found.diagnostic;
    if (found.hit) {
      // Restore through the same tmp+rename protocol as a computed cell so
      // a concurrent reader never sees a partial CSV.
      std::ofstream out(job.tmp_path, std::ios::binary | std::ios::trunc);
      out << found.csv;
      out.flush();
      if (out) {
        job.result.status = "hit";
        job.result.seconds = job.elapsed();
        job.result.csv_fnv = bytes_fnv16(found.csv);
        return job;
      }
      std::error_code ec;
      std::filesystem::remove(job.tmp_path, ec);
      // Restore failed (I/O): fall through and recompute.
    }
  }

  std::vector<std::string> args;
  for (const auto& [flag, value] : cell.flags) args.push_back("--" + flag + "=" + value);
  if (cell.has_seed) args.push_back("--seed=" + std::to_string(cell.seed));
  if (opts.quick) args.push_back("--quick");
  if (opts.threads > 0) args.push_back("--threads=" + std::to_string(opts.threads));
  args.push_back("--quiet");
  args.push_back("--csv=" + job.tmp_path);
  job.pid = run_cell_isolated(cell.bench, args);
  // fork failure (EAGAIN/ENOMEM under CI pressure): report the CELL as
  // failed rather than falling back to an in-process run, where a bench
  // abort would kill the whole suite — the exact failure mode the child
  // exists to contain.
  if (job.pid < 0) job.result.status = "failed";
  return job;
}

/// Collect a forked cell whose child exited with `wait_status`: a clean exit
/// that left a readable CSV is "ok" with its checksum, anything else is
/// "failed".
void reap_cell(CellJob& job, int wait_status) {
  job.pid = -1;
  job.result.seconds = job.elapsed();
  const bool exited_ok = WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
  if (exited_ok && read_file_bytes(job.tmp_path, &job.csv_bytes)) {
    job.result.status = "ok";
    job.result.csv_fnv = bytes_fnv16(job.csv_bytes);
    return;
  }
  std::error_code ec;
  std::filesystem::remove(job.tmp_path, ec);
  job.result.status = "failed";
}

/// Rename a finished cell's CSV into place (a failed rename fails the cell)
/// and store a freshly computed one in the cache.
void publish_cell(CellJob& job, const CellRunOptions& opts) {
  if (job.result.status == "failed") return;
  std::error_code ec;
  std::filesystem::rename(job.tmp_path, job.csv_path, ec);
  if (ec) {
    std::filesystem::remove(job.tmp_path, ec);
    job.result.status = "failed";
    job.result.csv_fnv.clear();
    return;
  }
  if (job.result.status == "ok" && opts.cache != nullptr) {
    std::string store_error;
    if (!opts.cache->store(job.key, job.csv_bytes, opts.git_sha, job.result.seconds,
                           &store_error) &&
        job.result.cache_note.empty())
      job.result.cache_note = store_error;
  }
}

}  // namespace

std::string file_fnv16(const std::string& path) {
  std::string bytes;
  if (!read_file_bytes(path, &bytes)) return "";
  return bytes_fnv16(bytes);
}

PriorOutputs scan_prior_outputs(const std::string& out_dir, const std::string& config_hash,
                                bool quick) {
  namespace fs = std::filesystem;
  PriorOutputs out;
  std::error_code ec;
  if (!fs::exists(out_dir, ec)) return out;
  for (const auto& entry : fs::directory_iterator(out_dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("manifest", 0) != 0 || entry.path().extension() != ".json") continue;
    const JsonParseResult prior = JsonValue::parse_file(entry.path().string());
    if (!prior.ok() || !prior.value->is_object()) continue;
    const JsonValue* hash = prior.value->find("config_hash");
    const JsonValue* prior_quick = prior.value->find("quick");
    const bool same_hash =
        hash != nullptr && hash->is_string() && hash->as_string() == config_hash;
    const bool same_quick = prior_quick != nullptr && prior_quick->is_bool() &&
                            prior_quick->as_bool() == quick;
    if (!same_hash || !same_quick) {
      out.compatible = false;
      out.message = fname + std::string(" records a different configuration") +
                    (same_hash ? " (--quick mode differs)" : " (config hash differs)");
      return out;
    }
    const JsonValue* cells = prior.value->find("cells");
    if (cells == nullptr || !cells->is_array()) continue;
    for (const auto& cell : cells->items()) {
      if (!cell->is_object()) continue;
      const JsonValue* id = cell->find("id");
      const JsonValue* fnv = cell->find("csv_fnv");
      if (id != nullptr && id->is_string() && fnv != nullptr && fnv->is_string() &&
          !fnv->as_string().empty())
        out.cell_csv_fnv.emplace(id->as_string(), fnv->as_string());
    }
  }
  return out;
}

SuiteLoadResult parse_suite(const JsonValue& root, const std::string& source) {
  SuiteLoadResult out;
  auto fail = [&](const std::string& msg) {
    out.error = source + ": " + msg;
    return out;
  };
  if (!root.is_object()) return fail("manifest must be a JSON object");

  const JsonValue* name = root.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty())
    return fail("\"name\" (non-empty string) is required");
  out.spec.name = name->as_string();

  if (const JsonValue* desc = root.find("description")) {
    if (!desc->is_string()) return fail("\"description\" must be a string");
    out.spec.description = desc->as_string();
  }
  if (const JsonValue* dir = root.find("output_dir")) {
    if (!dir->is_string()) return fail("\"output_dir\" must be a string");
    out.spec.output_dir = dir->as_string();
  }
  if (out.spec.output_dir.empty()) out.spec.output_dir = "out/" + out.spec.name;

  const BenchRegistry& registry = BenchRegistry::instance();

  if (const JsonValue* defaults = root.find("defaults")) {
    if (!defaults->is_object()) return fail("\"defaults\" must be an object");
    for (const auto& [key, value] : defaults->members()) {
      if (reserved_flags().count(key))
        return fail("defaults: --" + key + " is controlled by the suite runner");
      std::string text;
      if (!scalar_flag_text(*value, &text))
        return fail("defaults: \"" + key + "\" must be a scalar");
      out.spec.defaults.emplace_back(key, std::move(text));
    }
  }

  const JsonValue* cells = root.find("cells");
  if (cells == nullptr || !cells->is_array() || cells->items().empty())
    return fail("\"cells\" (non-empty array) is required");
  for (const auto& item : cells->items()) {
    if (!item->is_object()) return fail("cells: every entry must be an object");
    SuiteSpec::Block block;
    const JsonValue* bench = item->find("bench");
    if (bench == nullptr || !bench->is_string())
      return fail("cells: \"bench\" (string) is required in every entry");
    block.bench = bench->as_string();
    const BenchSpec* bench_spec = registry.find(block.bench);
    if (bench_spec == nullptr) {
      std::string known;
      for (const auto& n : registry.names()) known += " " + n;
      std::string error = "unknown bench \"" + block.bench + "\"";
      const std::string hint = closest_match(block.bench, registry.names());
      if (!hint.empty()) error += " (did you mean \"" + hint + "\"?)";
      return fail(error + "; known benches:" + known);
    }
    if (const JsonValue* grid = item->find("grid")) {
      if (!grid->is_object()) return fail(block.bench + ": \"grid\" must be an object");
      for (const auto& [axis, values] : grid->members()) {
        if (!flag_allowed(*bench_spec, axis))
          return fail(block.bench + ": grid axis \"" + axis +
                      "\" is not a flag of this bench (seeds have their own \"seeds\" key; "
                      "--seed/--csv/--quiet/--threads/--quick are runner-controlled)");
        std::vector<std::string> texts;
        if (values->is_array()) {
          if (values->items().empty())
            return fail(block.bench + ": grid axis \"" + axis + "\" must not be empty");
          for (const auto& v : values->items()) {
            std::string text;
            if (!scalar_flag_text(*v, &text))
              return fail(block.bench + ": grid axis \"" + axis + "\" has a non-scalar value");
            texts.push_back(std::move(text));
          }
        } else {
          std::string text;
          if (!scalar_flag_text(*values, &text))
            return fail(block.bench + ": grid axis \"" + axis + "\" has a non-scalar value");
          texts.push_back(std::move(text));
        }
        block.grid.emplace_back(axis, std::move(texts));
      }
    }
    if (const JsonValue* seeds = item->find("seeds")) {
      if (!seeds->is_array() || seeds->items().empty())
        return fail(block.bench + ": \"seeds\" must be a non-empty array of integers");
      for (const auto& s : seeds->items()) {
        // Parse the RAW literal so 1.9 (fractional), -1, and values the
        // bench-side --seed parse could not hold are rejected here instead
        // of truncating through double or failing the cell at run time.
        std::uint64_t seed = 0;
        if (!s->is_number() || !parse_seed(s->raw_number(), &seed))
          return fail(block.bench + ": \"seeds\" must contain integers in [0, 2^63), got " +
                      (s->is_number() ? s->raw_number() : "a non-number"));
        block.seeds.push_back(seed);
      }
    }
    // No "seeds" key: the block runs at the bench's own canonical base
    // seeds (no --seed is passed), reproducing the default tables exactly.
    out.spec.blocks.push_back(std::move(block));
  }

  // Every suite-wide default must mean something somewhere, or it is a typo.
  for (const auto& [key, value] : out.spec.defaults) {
    bool used = false;
    for (const auto& block : out.spec.blocks)
      used = used || registry.find(block.bench)->accepts_flag(key);
    if (!used) return fail("defaults: \"" + key + "\" is not a flag of any bench in this suite");
  }

  // Expansion must be collision-free: two cells with one CSV path would
  // silently halve the intended coverage. Distinguish true duplicates from
  // distinct cells whose values merely sanitize to the same id, so the
  // error points at the actual problem.
  const std::vector<SuiteCell> expanded = expand_suite(out.spec);
  std::map<std::string, std::string> seen;  // id -> canonical cell text
  for (const SuiteCell& cell : expanded) {
    std::string canonical = cell.bench;
    for (const auto& [key, value] : cell.flags) canonical += "\x1f" + key + "=" + value;
    canonical += "\x1f" + (cell.has_seed ? std::to_string(cell.seed) : "default");
    const auto [it, inserted] = seen.emplace(cell.id, canonical);
    if (!inserted)
      return fail(it->second == canonical
                      ? "duplicate cell \"" + cell.id +
                            "\" — two blocks expand to the same (bench, params, seed)"
                      : "cell id collision: two DIFFERENT cells sanitize to \"" + cell.id +
                            "\" (values differing only in non-[A-Za-z0-9._-] characters); "
                            "rename the values to differ in filesystem-safe characters");
  }

  // Benches with semantic cell validation (the scenario preset's
  // consumed-param rule, the workload bench's component schemas) veto bad
  // cells last — an unconsumed parameter or unknown component in a manifest
  // axis fails the whole load with a message naming the key, BEFORE anything
  // runs.
  for (const SuiteCell& cell : expanded) {
    const BenchSpec& bench_spec = *registry.find(cell.bench);
    if (bench_spec.validate_cell == nullptr) continue;
    const std::string cell_error = bench_spec.validate_cell(cell.flags);
    if (!cell_error.empty()) return fail("cell \"" + cell.id + "\": " + cell_error);
  }
  return out;
}

SuiteLoadResult load_suite(const std::string& path) {
  const JsonParseResult parsed = JsonValue::parse_file(path);
  if (!parsed.ok()) {
    SuiteLoadResult out;
    out.error = parsed.error;
    return out;
  }
  SuiteLoadResult out = parse_suite(*parsed.value, path);
  if (out.ok()) {
    const std::string dir = std::filesystem::path(path).parent_path().string();
    out.spec.source_dir = dir.empty() ? "." : dir;  // bare filename = CWD
  }
  return out;
}

std::vector<SuiteCell> expand_suite(const SuiteSpec& spec) {
  const BenchRegistry& registry = BenchRegistry::instance();
  std::vector<SuiteCell> cells;
  for (const auto& block : spec.blocks) {
    const BenchSpec& bench_spec = registry.at(block.bench);
    // Suite-wide defaults apply where they mean something for this bench.
    std::vector<std::pair<std::string, std::string>> base;
    for (const auto& def : spec.defaults)
      if (flag_allowed(bench_spec, def.first)) base.push_back(def);

    // Row-major over the axes as written (rightmost fastest), like nested
    // loops in the manifest's own order.
    std::vector<std::size_t> cursor(block.grid.size(), 0);
    while (true) {
      std::vector<std::pair<std::string, std::string>> flags = base;
      std::string id = sanitize_for_path(block.bench);
      for (std::size_t a = 0; a < block.grid.size(); ++a) {
        const auto& [axis, values] = block.grid[a];
        flags.emplace_back(axis, values[cursor[a]]);
        id += "__" + sanitize_for_path(axis) + "-" + sanitize_for_path(values[cursor[a]]);
      }
      const auto emit = [&](bool has_seed, std::uint64_t seed) {
        SuiteCell cell;
        cell.index = cells.size();
        cell.bench = block.bench;
        cell.flags = flags;
        cell.has_seed = has_seed;
        cell.seed = seed;
        cell.id = id + "__seed-" + (has_seed ? std::to_string(seed) : "default");
        cells.push_back(std::move(cell));
      };
      if (block.seeds.empty())
        emit(false, 0);
      else
        for (const std::uint64_t seed : block.seeds) emit(true, seed);
      // Advance the rightmost axis; carry leftwards; done when all wrap.
      bool wrapped = true;
      for (std::size_t a = block.grid.size(); a-- > 0;) {
        if (++cursor[a] < block.grid[a].second.size()) {
          wrapped = false;
          break;
        }
        cursor[a] = 0;
      }
      if (wrapped) break;
    }
  }
  return cells;
}

bool parse_shard(const std::string& text, ShardSpec* out) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (i != slash && (text[i] < '0' || text[i] > '9')) return false;
  // Bound the digit count before converting so absurd inputs (including
  // anything that would overflow long long or truncate in the int cast)
  // are rejected instead of silently running the wrong cell subset.
  if (slash > 9 || text.size() - slash - 1 > 9) return false;
  const long index = std::strtol(text.substr(0, slash).c_str(), nullptr, 10);
  const long count = std::strtol(text.substr(slash + 1).c_str(), nullptr, 10);
  if (index < 1 || count < 1 || index > count) return false;
  out->index = static_cast<int>(index);
  out->count = static_cast<int>(count);
  return true;
}

bool cell_in_shard(std::size_t cell_index, const ShardSpec& shard) {
  return cell_index % static_cast<std::size_t>(shard.count) ==
         static_cast<std::size_t>(shard.index - 1);
}

std::string suite_config_hash(const std::vector<SuiteCell>& cells) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&hash](const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;  // FNV-1a prime
    }
    hash ^= 0xFFu;  // field separator
    hash *= 1099511628211ull;
  };
  for (const SuiteCell& cell : cells) {
    mix(cell.bench);
    for (const auto& [key, value] : cell.flags) {
      mix(key);
      mix(value);
    }
    mix(cell.has_seed ? std::to_string(cell.seed) : "default");
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

int run_suite(const SuiteSpec& spec, const SuiteRunOptions& opts, std::ostream& log) {
  namespace fs = std::filesystem;
  const std::vector<SuiteCell> cells = expand_suite(spec);
  const std::string outdir = opts.output_dir.empty() ? spec.output_dir : opts.output_dir;
  const std::string config_hash = suite_config_hash(cells);

  log << "suite " << spec.name << ": " << cells.size() << " cells";
  if (opts.shard.count > 1)
    log << " (shard " << opts.shard.index << "/" << opts.shard.count << ")";
  log << " -> " << outdir << "  [config " << config_hash << "]\n";

  struct CellOutcome {
    const SuiteCell* cell;
    /// "pending" | "ok" | "hit" (cache) | "cached" (resume) | "failed" |
    /// "shard" | "planned"
    std::string status;
    double seconds = 0.0;
    std::string csv_fnv;  ///< 16-hex checksum of the cell's CSV, when known
  };
  std::vector<CellOutcome> outcomes;
  outcomes.reserve(cells.size());
  for (const SuiteCell& cell : cells)
    outcomes.push_back(
        {&cell, cell_in_shard(cell.index, opts.shard) ? "pending" : "shard", 0.0, ""});

  std::string manifest_path = outdir + "/manifest.json";
  if (opts.shard.count > 1)
    manifest_path = outdir + "/manifest." + std::to_string(opts.shard.index) + "of" +
                    std::to_string(opts.shard.count) + ".json";
  const std::string started = utc_now();
  const std::string git_sha = git_head_sha(spec.source_dir);
  const auto suite_t0 = std::chrono::steady_clock::now();
  const auto suite_seconds = [&suite_t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - suite_t0).count();
  };
  // Run manifest: provenance for the CSVs sitting next to it. Written up
  // front (in-shard cells "pending", resumed ones "cached") so even a killed
  // run leaves a record of what configuration produced the outputs, then
  // rewritten atomically (tmp + rename) as each cell finishes — BEFORE its
  // CSV is renamed into place, so at every instant each CSV on disk has its
  // checksum (csv_fnv) recorded and resume and `cr suite merge` can validate
  // it instead of trusting any same-named file. Sharded runs write distinct
  // manifests (the CSV set is the part that must be bit-identical to an
  // unsharded run; manifests record each shard's view). Cells are listed in
  // expansion order whatever order they finish in.
  const auto write_manifest = [&](double wall) {
    const std::string tmp_path = manifest_path + unique_tmp_suffix();
    std::ofstream manifest(tmp_path);
    manifest << "{\n"
             << "  \"suite\": \"" << json_escape(spec.name) << "\",\n"
             << "  \"description\": \"" << json_escape(spec.description) << "\",\n"
             << "  \"git_sha\": \"" << json_escape(git_sha) << "\",\n"
             << "  \"config_hash\": \"" << config_hash << "\",\n"
             << "  \"shard\": \"" << opts.shard.index << "/" << opts.shard.count << "\",\n"
             << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
             << "  \"started_utc\": \"" << started << "\",\n"
             << "  \"finished_utc\": \"" << utc_now() << "\",\n"
             << "  \"wall_seconds\": " << format_double(wall, 3) << ",\n"
             << "  \"cells\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const CellOutcome& outcome = outcomes[i];
      manifest << "    {\"id\": \"" << json_escape(outcome.cell->id) << "\", \"bench\": \""
               << json_escape(outcome.cell->bench) << "\", \"seed\": "
               << (outcome.cell->has_seed ? std::to_string(outcome.cell->seed) : "null")
               << ", \"status\": \"" << outcome.status << "\", \"seconds\": "
               << format_double(outcome.seconds, 3) << ", \"csv_fnv\": "
               << (outcome.csv_fnv.empty() ? "null" : "\"" + outcome.csv_fnv + "\"") << "}"
               << (i + 1 < outcomes.size() ? "," : "") << "\n";
    }
    manifest << "  ]\n}\n";
    manifest.close();
    // A failed write keeps the previous manifest rather than a torn one.
    std::error_code ec;
    if (manifest) fs::rename(tmp_path, manifest_path, ec);
    if (!manifest || ec) fs::remove(tmp_path, ec);
  };
  const auto log_cell = [&](const SuiteCell& cell) -> std::ostream& {
    return log << "  [" << cell.index + 1 << "/" << cells.size() << "] " << cell.id << ": ";
  };

  int failures = 0;
  std::size_t ran = 0, resumed = 0, hits = 0;
  PriorOutputs prior;
  if (!opts.dry_run) {
    fs::create_directories(outdir);
    // Stale-output guard: any manifest already in outdir must describe the
    // same expansion (config_hash) and the same --quick mode. Otherwise the
    // CSVs sitting there came from a DIFFERENT configuration — resuming
    // over them would silently mix old and new results (and restamp the
    // new config_hash over the old data). --force reruns every cell, so it
    // may proceed regardless.
    if (!opts.force) {
      prior = scan_prior_outputs(outdir, config_hash, opts.quick);
      if (!prior.compatible) {
        log << "suite " << spec.name << ": " << outdir << "/" << prior.message
            << " — refusing to resume over stale outputs; rerun with --force or a fresh "
               "--out\n";
        return 1;
      }
    }
    // Resume path, settled before the first manifest write so that write
    // already records every CSV left on disk. Do not trust a same-named CSV
    // blindly: when a prior manifest recorded this cell's checksum, the
    // bytes on disk must still match it — a truncated or hand-edited file
    // reruns instead of poisoning the result set. Under --force every
    // in-shard CSV goes, since each of those cells reruns anyway.
    for (CellOutcome& outcome : outcomes) {
      const std::string csv_path = outdir + "/" + outcome.cell->id + ".csv";
      if (outcome.status != "pending" || !fs::exists(csv_path)) continue;
      if (!opts.force) {
        const std::string on_disk = file_fnv16(csv_path);
        const auto recorded = prior.cell_csv_fnv.find(outcome.cell->id);
        if (!on_disk.empty() &&
            (recorded == prior.cell_csv_fnv.end() || recorded->second == on_disk)) {
          outcome.status = "cached";
          outcome.csv_fnv = on_disk;
          ++resumed;
          log_cell(*outcome.cell) << "cached\n";
          continue;
        }
        log_cell(*outcome.cell) << "existing CSV fails its recorded checksum — rerunning\n";
      }
      std::error_code ec;
      fs::remove(csv_path, ec);
    }
    write_manifest(0.0);
  }
  CellCache cache(opts.cache_dir);
  const bool use_cache = !opts.cache_dir.empty() && !opts.dry_run;
  CellRunOptions cell_opts;
  cell_opts.out_dir = outdir;
  cell_opts.quick = opts.quick;
  cell_opts.threads = opts.threads;
  cell_opts.cache = use_cache ? &cache : nullptr;
  cell_opts.config_hash = config_hash;
  cell_opts.git_sha = git_sha;

  // Record a finished cell in the manifest, then publish its CSV. A cell
  // whose publication fails is recorded again as failed.
  const auto finish = [&](CellJob& job) {
    CellOutcome& outcome = outcomes[job.cell->index];
    const auto record = [&] {
      outcome.status = job.result.status;
      outcome.seconds = job.result.seconds;
      outcome.csv_fnv = job.result.csv_fnv;
      write_manifest(suite_seconds());
    };
    record();
    publish_cell(job, cell_opts);
    if (job.result.status != outcome.status) record();
    if (!job.result.cache_note.empty()) log << "  [cache] " << job.result.cache_note << "\n";
    if (outcome.status == "failed") {
      ++failures;
    } else if (outcome.status == "hit") {
      ++hits;
    } else {
      ++ran;
    }
    log_cell(*job.cell) << outcome.status << " (" << format_double(outcome.seconds, 2)
                        << "s)\n";
  };

  // Core budget: up to `threads` cells in flight (all cores when 0), each
  // still passed the same --threads. Rule 2 makes the CSVs independent of
  // how cells overlap; the parent reaps whichever child exits first.
  const std::size_t max_in_flight =
      opts.threads > 0 ? static_cast<std::size_t>(opts.threads)
                       : std::max(1u, std::thread::hardware_concurrency());
  std::map<pid_t, CellJob> in_flight;
  const auto reap_one = [&] {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) return;
      // No child left to wait for (SIGCHLD ignored: the kernel reaped them),
      // so no exit status is known: every cell still in flight failed.
      for (auto& [child, job] : in_flight) {
        reap_cell(job, /*wait_status=*/-1);
        finish(job);
      }
      in_flight.clear();
      return;
    }
    const auto it = in_flight.find(pid);
    if (it == in_flight.end()) return;  // not one of this run's cells
    reap_cell(it->second, status);
    finish(it->second);
    in_flight.erase(it);
  };

  for (const SuiteCell& cell : cells) {
    CellOutcome& outcome = outcomes[cell.index];
    if (outcome.status != "pending") continue;  // other shard, or resumed

    if (opts.dry_run) {
      outcome.status = "planned";
      log_cell(cell) << cell.bench;
      for (const auto& [key, value] : cell.flags) log << " --" << key << "=" << value;
      if (cell.has_seed) log << " --seed=" << cell.seed;
      if (opts.quick) log << " --quick";
      if (opts.threads > 0) log << " --threads=" << opts.threads;
      log << " --quiet --csv=" << outdir << "/" << cell.id << ".csv\n";
      continue;
    }

    while (in_flight.size() >= max_in_flight) reap_one();
    CellJob job = start_cell(cell, cell_opts);
    if (job.pid > 0)
      in_flight.emplace(job.pid, std::move(job));
    else
      finish(job);
  }
  while (!in_flight.empty()) reap_one();

  const double wall = suite_seconds();
  if (opts.dry_run) {
    log << "dry run: nothing executed\n";
    return 0;
  }
  write_manifest(wall);

  log << "suite " << spec.name << ": " << ran << " ran, " << resumed << " cached, " << hits
      << " cache hits, " << failures << " failed in " << format_double(wall, 2) << "s"
      << "; manifest " << manifest_path << "\n";
  if (use_cache)
    log << "cache " << opts.cache_dir << ": " << hits << " hits, " << ran + failures
        << " misses\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace cr
