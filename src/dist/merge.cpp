#include "dist/merge.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

#include "cli/suite.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace cr {

namespace fs = std::filesystem;

namespace {

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

/// One input manifest, decoded into the fields the merge needs.
struct Input {
  std::string path;
  std::string suite;
  std::string description;
  std::string git_sha;
  std::string config_hash;
  bool quick = false;
  std::string started_utc;
  std::string finished_utc;
  double wall_seconds = 0.0;
  struct Cell {
    std::string id;
    std::string bench;
    std::string seed_raw;  ///< raw number text, or "null"
    std::string status;
    double seconds = 0.0;
    std::string csv_fnv;  ///< empty when recorded as null
  };
  std::vector<Cell> cells;
};

bool is_success_status(const std::string& status) {
  return status == "ok" || status == "hit" || status == "cached";
}

bool load_input(const std::string& path, Input* out, std::string* error) {
  const JsonParseResult parsed = JsonValue::parse_file(path);
  if (!parsed.ok()) {
    *error = parsed.error;
    return false;
  }
  const JsonValue& root = *parsed.value;
  if (!root.is_object()) {
    *error = path + ": manifest must be a JSON object";
    return false;
  }
  const auto str_field = [&](const char* name, std::string* dst) {
    const JsonValue* v = root.find(name);
    if (v == nullptr || !v->is_string()) return false;
    *dst = v->as_string();
    return true;
  };
  out->path = path;
  if (!str_field("suite", &out->suite) || !str_field("config_hash", &out->config_hash)) {
    *error = path + ": not a run manifest (missing \"suite\" or \"config_hash\")";
    return false;
  }
  str_field("description", &out->description);
  str_field("git_sha", &out->git_sha);
  str_field("started_utc", &out->started_utc);
  str_field("finished_utc", &out->finished_utc);
  const JsonValue* quick = root.find("quick");
  if (quick == nullptr || !quick->is_bool()) {
    *error = path + ": missing boolean \"quick\"";
    return false;
  }
  out->quick = quick->as_bool();
  if (const JsonValue* wall = root.find("wall_seconds"); wall != nullptr && wall->is_number())
    out->wall_seconds = wall->as_number();
  const JsonValue* cells = root.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    *error = path + ": missing \"cells\" array";
    return false;
  }
  for (const auto& item : cells->items()) {
    if (!item->is_object()) {
      *error = path + ": every cells[] entry must be an object";
      return false;
    }
    Input::Cell cell;
    const JsonValue* id = item->find("id");
    const JsonValue* status = item->find("status");
    if (id == nullptr || !id->is_string() || status == nullptr || !status->is_string()) {
      *error = path + ": every cells[] entry needs string \"id\" and \"status\"";
      return false;
    }
    cell.id = id->as_string();
    cell.status = status->as_string();
    if (const JsonValue* bench = item->find("bench"); bench != nullptr && bench->is_string())
      cell.bench = bench->as_string();
    const JsonValue* seed = item->find("seed");
    cell.seed_raw = seed != nullptr && seed->is_number() ? seed->raw_number() : "null";
    if (const JsonValue* secs = item->find("seconds"); secs != nullptr && secs->is_number())
      cell.seconds = secs->as_number();
    if (const JsonValue* fnv = item->find("csv_fnv"); fnv != nullptr && fnv->is_string())
      cell.csv_fnv = fnv->as_string();
    if (is_success_status(cell.status) && cell.csv_fnv.empty()) {
      // A pre-merge-era manifest (no checksums) cannot be safely unioned:
      // conflicts would be undetectable.
      *error = path + ": cell \"" + cell.id + "\" has status \"" + cell.status +
               "\" but no csv_fnv — regenerate the manifest with this cr version";
      return false;
    }
    out->cells.push_back(std::move(cell));
  }
  return true;
}

}  // namespace

int merge_manifests(const MergeOptions& opts, std::ostream& log) {
  if (opts.manifest_paths.empty()) {
    log << "cr suite merge: at least one manifest path is required\n";
    return 2;
  }
  std::vector<Input> inputs;
  for (const std::string& path : opts.manifest_paths) {
    Input input;
    std::string error;
    if (!load_input(path, &input, &error)) {
      log << "cr suite merge: " << error << "\n";
      return 2;
    }
    inputs.push_back(std::move(input));
  }

  const Input& first = inputs.front();
  for (const Input& input : inputs) {
    if (input.suite != first.suite || input.config_hash != first.config_hash ||
        input.quick != first.quick) {
      log << "cr suite merge: " << input.path << " records a different configuration than "
          << first.path << " (suite \"" << input.suite << "\" vs \"" << first.suite
          << "\", config " << input.config_hash << " vs " << first.config_hash << ", quick "
          << (input.quick ? "true" : "false") << " vs " << (first.quick ? "true" : "false")
          << ") — shards of different suites cannot be unioned\n";
      return 1;
    }
  }
  // Same configuration implies the same expansion; verify the cell id sets
  // anyway so a hand-edited manifest fails loudly.
  std::set<std::string> first_ids;
  for (const Input::Cell& cell : first.cells) first_ids.insert(cell.id);
  for (const Input& input : inputs) {
    std::set<std::string> ids;
    for (const Input::Cell& cell : input.cells) ids.insert(cell.id);
    if (ids != first_ids) {
      log << "cr suite merge: " << input.path << " describes a different cell set than "
          << first.path << " despite matching config_hash — manifest is corrupt\n";
      return 1;
    }
  }

  const std::string out_path =
      !opts.out_path.empty()
          ? opts.out_path
          : (fs::path(first.path).parent_path() / "manifest.json").string();
  const std::string out_dir = fs::path(out_path).parent_path().string();

  // Union cell by cell, in the first manifest's (= expansion) order.
  struct Merged {
    const Input::Cell* winner = nullptr;  ///< first success entry
    bool any_failed = false;
  };
  std::map<std::string, Merged> merged;
  int conflicts = 0;
  for (const Input& input : inputs) {
    for (const Input::Cell& cell : input.cells) {
      Merged& slot = merged[cell.id];
      if (cell.status == "failed") slot.any_failed = true;
      if (!is_success_status(cell.status)) continue;
      if (slot.winner == nullptr) {
        slot.winner = &cell;
        continue;
      }
      if (slot.winner->csv_fnv != cell.csv_fnv) {
        log << "cr suite merge: CONFLICT on cell \"" << cell.id << "\": csv_fnv "
            << slot.winner->csv_fnv << " vs " << cell.csv_fnv
            << " — two manifests claim different bytes for the same cell (rule 9 "
               "violation: mismatched binaries or corrupted outputs)\n";
        ++conflicts;
      }
    }
  }
  if (conflicts > 0) return 1;

  std::size_t missing = 0, failed = 0, ok = 0;
  for (const Input::Cell& cell : first.cells) {
    const Merged& slot = merged.at(cell.id);
    if (slot.winner != nullptr) {
      ++ok;
      if (opts.check_files) {
        const std::string on_disk = file_fnv16(out_dir + "/" + cell.id + ".csv");
        if (on_disk != slot.winner->csv_fnv) {
          log << "cr suite merge: cell \"" << cell.id << "\": CSV on disk "
              << (on_disk.empty() ? "is missing" : "hashes to " + on_disk)
              << " but the manifests record " << slot.winner->csv_fnv
              << " — outputs do not match the evidence being merged\n";
          ++conflicts;
        }
      }
    } else if (slot.any_failed) {
      ++failed;
      log << "cr suite merge: cell \"" << cell.id << "\" failed in every manifest that ran "
          << "it\n";
    } else {
      ++missing;
      log << "cr suite merge: cell \"" << cell.id << "\" was not completed by any input "
          << "manifest\n";
    }
  }
  if (conflicts > 0 || failed > 0 || missing > 0) {
    log << "cr suite merge: refusing to write an incomplete/conflicted manifest (" << ok
        << " ok, " << failed << " failed, " << missing << " missing, " << conflicts
        << " conflicts)\n";
    return 1;
  }

  std::string started = first.started_utc, finished = first.finished_utc;
  std::string git_sha = first.git_sha;
  double wall = 0.0;
  for (const Input& input : inputs) {
    // ISO-8601 UTC stamps compare correctly as strings.
    if (!input.started_utc.empty() && (started.empty() || input.started_utc < started))
      started = input.started_utc;
    if (input.finished_utc > finished) finished = input.finished_utc;
    if (input.git_sha != git_sha) git_sha = "mixed";
    wall += input.wall_seconds;
  }

  // tmp + rename, like every other output in the run directory.
  const std::string tmp_path = out_path + ".tmp-" + std::to_string(::getpid());
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out << "{\n"
        << "  \"suite\": \"" << json_escape(first.suite) << "\",\n"
        << "  \"description\": \"" << json_escape(first.description) << "\",\n"
        << "  \"git_sha\": \"" << json_escape(git_sha) << "\",\n"
        << "  \"config_hash\": \"" << first.config_hash << "\",\n"
        << "  \"shard\": \"1/1\",\n"
        << "  \"quick\": " << (first.quick ? "true" : "false") << ",\n"
        << "  \"started_utc\": \"" << json_escape(started) << "\",\n"
        << "  \"finished_utc\": \"" << json_escape(finished) << "\",\n"
        << "  \"wall_seconds\": " << format_double(wall, 3) << ",\n"
        << "  \"merged_from\": [";
    for (std::size_t i = 0; i < inputs.size(); ++i)
      out << (i ? ", " : "") << "\"" << json_escape(fs::path(inputs[i].path).filename().string())
          << "\"";
    out << "],\n"
        << "  \"cells\": [\n";
    for (std::size_t i = 0; i < first.cells.size(); ++i) {
      const Input::Cell& winner = *merged.at(first.cells[i].id).winner;
      out << "    {\"id\": \"" << json_escape(winner.id) << "\", \"bench\": \""
          << json_escape(winner.bench) << "\", \"seed\": " << winner.seed_raw
          << ", \"status\": \"" << winner.status << "\", \"seconds\": "
          << format_double(winner.seconds, 3) << ", \"csv_fnv\": \"" << winner.csv_fnv
          << "\"}" << (i + 1 < first.cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.flush();
    if (!out) {
      log << "cr suite merge: cannot write " << tmp_path << "\n";
      return 2;
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, out_path, ec);
  if (ec) {
    log << "cr suite merge: cannot rename " << tmp_path << " -> " << out_path << ": "
        << ec.message() << "\n";
    fs::remove(tmp_path, ec);
    return 2;
  }
  log << "cr suite merge: " << inputs.size() << " manifests, " << ok
      << " cells unioned -> " << out_path << "\n";
  return 0;
}

}  // namespace cr
