// Tests for the distributed execution fabric (src/dist +
// common/source_digest): CellCache hit/miss/corruption semantics,
// `cr suite merge`'s strict union rules, the cold/warm cache contract of
// run_suite (determinism rule 9: a hit is byte-identical to recomputation),
// and concurrent shards sharing one output directory whose merged output
// must equal a single-process run byte for byte.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/suite.hpp"
#include "common/json.hpp"
#include "common/source_digest.hpp"
#include "dist/cell_cache.hpp"
#include "dist/merge.hpp"

namespace cr {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("cr_test_dist_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// CellCache

class CellCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = fresh_dir("cache"); }
  void TearDown() override { fs::remove_all(dir_); }

  CellKey key(const std::string& cell = "cell_a") const {
    CellKey k;
    k.config_hash = "deadbeefdeadbeef";
    k.cell_id = cell;
    k.source_digest = "0123456789abcdef";
    k.quick = false;
    return k;
  }

  fs::path dir_;
};

TEST_F(CellCacheTest, HitReturnsStoredBytesExactly) {
  CellCache cache(dir_.string());
  // Bytes with every hazard a naive round-trip could mangle: CRLF, NUL-free
  // high bytes, a trailing newline.
  const std::string csv = "a,b\r\n1,\xC3\xA9\n2,3\n";
  std::string error;
  ASSERT_TRUE(cache.store(key(), csv, "abc1234", 0.5, &error)) << error;
  const CacheLookup hit = cache.lookup(key());
  ASSERT_TRUE(hit.hit) << hit.diagnostic;
  EXPECT_EQ(hit.csv, csv);
  EXPECT_TRUE(hit.diagnostic.empty());
}

TEST_F(CellCacheTest, CleanMissHasNoDiagnostic) {
  CellCache cache(dir_.string());
  const CacheLookup miss = cache.lookup(key());
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.diagnostic.empty());  // nothing existed, nothing is wrong
}

TEST_F(CellCacheTest, KeyIsSensitiveToEveryComponent) {
  const std::string base = CellCache::key_of(key());
  EXPECT_EQ(base.size(), 16u);
  CellKey other = key();
  other.config_hash = "deadbeefdeadbee0";
  EXPECT_NE(CellCache::key_of(other), base);
  other = key();
  other.cell_id = "cell_b";
  EXPECT_NE(CellCache::key_of(other), base);
  other = key();
  other.source_digest = "fedcba9876543210";
  EXPECT_NE(CellCache::key_of(other), base);
  other = key();
  other.quick = true;
  EXPECT_NE(CellCache::key_of(other), base);
  // Field contents must not be able to masquerade as each other across the
  // separator: (config="a", cell="b") != (config="ab", cell="").
  CellKey ab = key();
  ab.config_hash = "a";
  ab.cell_id = "b";
  CellKey ab2 = key();
  ab2.config_hash = "ab";
  ab2.cell_id = "";
  EXPECT_NE(CellCache::key_of(ab), CellCache::key_of(ab2));
}

TEST_F(CellCacheTest, StoreIsIdempotentAndRaceLosingStoreSucceeds) {
  CellCache cache(dir_.string());
  std::string error;
  ASSERT_TRUE(cache.store(key(), "x\n", "sha", 0.1, &error)) << error;
  // Determinism rule 9: a second producer of the same key computed the same
  // bytes, so "the entry already exists" is success, not conflict.
  ASSERT_TRUE(cache.store(key(), "x\n", "sha", 0.1, &error)) << error;
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(CellCacheTest, CorruptedCsvIsRejectedWithNamedDiagnostic) {
  CellCache cache(dir_.string());
  std::string error;
  ASSERT_TRUE(cache.store(key(), "a,b\n1,2\n", "sha", 0.1, &error)) << error;
  const fs::path entry = dir_ / CellCache::key_of(key());
  spit(entry / "cell.csv", "a,b\n1,TAMPERED\n");
  const CacheLookup miss = cache.lookup(key());
  EXPECT_FALSE(miss.hit);
  EXPECT_NE(miss.diagnostic.find("checksum"), std::string::npos) << miss.diagnostic;
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(CellCacheTest, MissingCsvAndMangledMetaAreRejected) {
  CellCache cache(dir_.string());
  std::string error;
  ASSERT_TRUE(cache.store(key(), "a\n", "sha", 0.1, &error)) << error;
  const fs::path entry = dir_ / CellCache::key_of(key());
  fs::remove(entry / "cell.csv");
  CacheLookup miss = cache.lookup(key());
  EXPECT_FALSE(miss.hit);
  EXPECT_NE(miss.diagnostic.find("cell.csv"), std::string::npos) << miss.diagnostic;

  ASSERT_TRUE(cache.store(key("cell_m"), "a\n", "sha", 0.1, &error)) << error;
  spit(dir_ / CellCache::key_of(key("cell_m")) / "meta.json", "{not json");
  miss = cache.lookup(key("cell_m"));
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.diagnostic.empty());
}

TEST_F(CellCacheTest, KeyCollisionDegradesToMissNotWrongBytes) {
  CellCache cache(dir_.string());
  std::string error;
  ASSERT_TRUE(cache.store(key(), "a\n", "sha", 0.1, &error)) << error;
  // Simulate an FNV collision: an entry stored under OUR key whose recorded
  // provenance belongs to a different probe. Rewriting meta.json's cell_id
  // (keeping everything else valid) is exactly what a collision looks like
  // at lookup time.
  const fs::path meta = dir_ / CellCache::key_of(key()) / "meta.json";
  std::string text = slurp(meta);
  const std::size_t at = text.find("cell_a");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "cell_x");
  spit(meta, text);
  const CacheLookup miss = cache.lookup(key());
  EXPECT_FALSE(miss.hit);
  EXPECT_NE(miss.diagnostic.find("provenance"), std::string::npos) << miss.diagnostic;
}

TEST_F(CellCacheTest, StatsAndGcEvictOldestPastBudgetAndPurgeJunk) {
  CellCache cache(dir_.string());
  std::string error;
  ASSERT_TRUE(cache.store(key("old"), std::string(100, 'o') + "\n", "sha", 0.1, &error));
  ASSERT_TRUE(cache.store(key("new"), std::string(100, 'n') + "\n", "sha", 0.1, &error));
  // Make "old" unambiguously older than "new" without sleeping.
  fs::last_write_time(dir_ / CellCache::key_of(key("old")) / "meta.json",
                      fs::last_write_time(dir_ / CellCache::key_of(key("new")) / "meta.json") -
                          std::chrono::hours(1));
  fs::create_directories(dir_ / "tmp-999-abandoned");  // a crashed store()
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.csv_bytes, 202u);
  EXPECT_EQ(stats.stray, 1u);

  // Budget fits exactly one full entry (cell.csv + meta.json): the OLDER
  // one is evicted, the stray always is.
  std::uint64_t one_entry = 0;
  for (const auto& file :
       fs::directory_iterator(dir_ / CellCache::key_of(key("new"))))
    one_entry += fs::file_size(file.path());
  cache.gc(one_entry);
  EXPECT_FALSE(cache.lookup(key("old")).hit);
  EXPECT_TRUE(cache.lookup(key("new")).hit);
  EXPECT_FALSE(fs::exists(dir_ / "tmp-999-abandoned"));

  EXPECT_EQ(cache.gc(0), 1u);  // zero budget = empty cache
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// `cr version --json` round-trip

TEST(SourceDigest, IsStableSixteenHex) {
  const std::string digest = source_digest();
  ASSERT_EQ(digest.size(), 16u);
  for (const char c : digest)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << digest;
  EXPECT_EQ(source_digest(), digest);  // cached, deterministic
}

TEST(VersionJson, RoundTripsThroughTheJsonReader) {
  const JsonParseResult parsed = JsonValue::parse(version_json("abc1234", "Debug"));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value->find("git_sha")->as_string(), "abc1234");
  EXPECT_EQ(parsed.value->find("build")->as_string(), "Debug");
  EXPECT_EQ(parsed.value->find("source_digest")->as_string(), source_digest());
  EXPECT_TRUE(parsed.value->find("cxx")->is_number());
}

// ---------------------------------------------------------------------------
// run_suite × CellCache, and shard + merge

/// Two-cell suite (same shape as test_suite's fixture) plus a cache dir.
class DistRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    out_ = fresh_dir("out");
    cache_ = fresh_dir("cachedir");
    const JsonParseResult json = JsonValue::parse(
        R"({"name": "tiny", "defaults": {"reps": 1},
            "cells": [{"bench": "scenario",
                       "grid": {"scenario": ["batch"], "horizon": [512], "n": [16],
                                "jam": [0.0, 0.5]},
                       "seeds": [3]}]})");
    ASSERT_TRUE(json.ok()) << json.error;
    const SuiteLoadResult loaded = parse_suite(*json.value, "test-manifest");
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    spec_ = loaded.spec;
  }
  void TearDown() override {
    fs::remove_all(out_);
    fs::remove_all(cache_);
  }

  SuiteRunOptions options(const fs::path& out) const {
    SuiteRunOptions opts;
    opts.output_dir = out.string();
    opts.threads = 1;
    opts.cache_dir = cache_.string();
    return opts;
  }

  std::map<std::string, std::string> csvs(const fs::path& dir) const {
    std::map<std::string, std::string> found;
    for (const auto& entry : fs::directory_iterator(dir))
      if (entry.path().extension() == ".csv")
        found[entry.path().filename().string()] = slurp(entry.path());
    return found;
  }

  /// Run every shard of `spec_` at once (one forked process each), all
  /// writing into `out` without a cache; returns their exit codes.
  std::vector<int> run_shards(int n, const fs::path& out) const {
    std::vector<pid_t> pids;
    for (int i = 1; i <= n; ++i) {
      const pid_t pid = fork();
      if (pid == 0) {
        SuiteRunOptions opts = options(out);
        opts.cache_dir.clear();  // force real computation
        opts.shard = {i, n};
        std::ostringstream sink;
        std::_Exit(run_suite(spec_, opts, sink));
      }
      pids.push_back(pid);
    }
    std::vector<int> codes;
    for (const pid_t pid : pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status) : 128);
    }
    return codes;
  }

  /// The per-shard run manifests `run_shards(n, dir)` wrote.
  static std::vector<std::string> shard_manifests(int n, const fs::path& dir) {
    std::vector<std::string> paths;
    for (int i = 1; i <= n; ++i)
      paths.push_back(
          (dir / ("manifest." + std::to_string(i) + "of" + std::to_string(n) + ".json"))
              .string());
    return paths;
  }

  fs::path out_, cache_;
  SuiteSpec spec_;
};

TEST_F(DistRunTest, WarmCacheRunIsAllHitsAndByteIdentical) {
  std::ostringstream cold;
  ASSERT_EQ(run_suite(spec_, options(out_), cold), 0);
  EXPECT_NE(cold.str().find("2 ran, 0 cached, 0 cache hits"), std::string::npos)
      << cold.str();
  const auto reference = csvs(out_);
  ASSERT_EQ(reference.size(), 2u);

  // A FRESH output directory forces every cell through the cache: rule 9
  // says the restored bytes equal recomputation exactly.
  const fs::path out2 = fresh_dir("out_warm");
  std::ostringstream warm;
  ASSERT_EQ(run_suite(spec_, options(out2), warm), 0);
  EXPECT_NE(warm.str().find("0 ran, 0 cached, 2 cache hits"), std::string::npos)
      << warm.str();
  EXPECT_EQ(csvs(out2), reference);

  // The warm manifest records "hit" and the same checksums as the cold one.
  const auto manifest = JsonValue::parse_file((out2 / "manifest.json").string());
  ASSERT_TRUE(manifest.ok()) << manifest.error;
  for (const auto& cell : manifest.value->find("cells")->items()) {
    EXPECT_EQ(cell->find("status")->as_string(), "hit");
    EXPECT_EQ(cell->find("csv_fnv")->as_string().size(), 16u);
  }
  fs::remove_all(out2);
}

TEST_F(DistRunTest, CodeChangeMissesViaSourceDigest) {
  std::ostringstream cold;
  ASSERT_EQ(run_suite(spec_, options(out_), cold), 0);
  // Same config, same cell, DIFFERENT binary: must not hit.
  CellCache cache(cache_.string());
  CellKey probe;
  probe.config_hash = suite_config_hash(expand_suite(spec_));
  probe.cell_id = expand_suite(spec_)[0].id;
  probe.source_digest = source_digest();
  ASSERT_TRUE(cache.lookup(probe).hit);
  probe.source_digest = "0000000000000000";
  EXPECT_FALSE(cache.lookup(probe).hit);
}

TEST_F(DistRunTest, ResumeReRunsCellWhoseCsvFailsItsRecordedChecksum) {
  std::ostringstream first;
  ASSERT_EQ(run_suite(spec_, options(out_), first), 0);
  const auto reference = csvs(out_);
  const std::string victim = reference.begin()->first;
  spit(out_ / victim, reference.at(victim) + "bitrot\n");

  std::ostringstream second;
  ASSERT_EQ(run_suite(spec_, options(out_), second), 0);
  EXPECT_NE(second.str().find("fails its recorded checksum"), std::string::npos)
      << second.str();
  EXPECT_EQ(csvs(out_), reference);  // corruption healed, bytes restored
}

TEST_F(DistRunTest, TwoShardsInOneDirectoryMergeByteIdenticalToSingleProcess) {
  // Reference: plain single-process run (no cache, so both paths compute).
  const fs::path ref = fresh_dir("ref");
  SuiteRunOptions ref_opts = options(ref);
  ref_opts.cache_dir.clear();
  std::ostringstream ref_log;
  ASSERT_EQ(run_suite(spec_, ref_opts, ref_log), 0);
  const auto reference = csvs(ref);

  for (const int code : run_shards(2, out_)) EXPECT_EQ(code, 0);
  EXPECT_EQ(csvs(out_), reference);  // byte-equal to the unsharded run

  // Union the shard manifests; the merged manifest must carry every cell
  // as a success with the reference checksums.
  MergeOptions merge;
  merge.manifest_paths = shard_manifests(2, out_);
  std::ostringstream merge_log;
  ASSERT_EQ(merge_manifests(merge, merge_log), 0) << merge_log.str();
  const auto merged = JsonValue::parse_file((out_ / "manifest.json").string());
  ASSERT_TRUE(merged.ok()) << merged.error;
  EXPECT_EQ(merged.value->find("config_hash")->as_string(),
            suite_config_hash(expand_suite(spec_)));
  ASSERT_EQ(merged.value->find("cells")->items().size(), 2u);
  for (const auto& cell : merged.value->find("cells")->items()) {
    const std::string id = cell->find("id")->as_string();
    EXPECT_EQ(cell->find("csv_fnv")->as_string(), file_fnv16((out_ / (id + ".csv")).string()));
  }
  // The merged manifest is what resume/verify read: it must scan as
  // compatible prior output for this exact configuration.
  const PriorOutputs prior =
      scan_prior_outputs(out_.string(), suite_config_hash(expand_suite(spec_)), false);
  EXPECT_TRUE(prior.compatible) << prior.message;
  fs::remove_all(ref);
}

TEST_F(DistRunTest, FailedCellInShardManifestBlocksMerge) {
  // A cell that always dies: junk flag value hits CR_CHECK in the child.
  // It is cell 0, so shard 1/2 records it as failed; shard 2/2 runs the
  // good cell.
  const JsonParseResult json = JsonValue::parse(
      R"({"name": "tiny", "defaults": {"reps": 1},
          "cells": [{"bench": "scenario", "grid": {"horizon": ["junk"], "n": [16]}},
                    {"bench": "scenario", "grid": {"horizon": [512], "n": [16]}}]})");
  ASSERT_TRUE(json.ok()) << json.error;
  const SuiteLoadResult loaded = parse_suite(*json.value, "test-manifest");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  spec_ = loaded.spec;

  const std::vector<int> codes = run_shards(2, out_);
  EXPECT_EQ(codes[0], 1);
  EXPECT_EQ(codes[1], 0);

  MergeOptions merge;
  merge.manifest_paths = shard_manifests(2, out_);
  std::ostringstream log;
  EXPECT_EQ(merge_manifests(merge, log), 1);
  EXPECT_NE(log.str().find("failed in every manifest"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("refusing to write an incomplete/conflicted manifest"),
            std::string::npos)
      << log.str();
  EXPECT_FALSE(fs::exists(out_ / "manifest.json"));
}

// ---------------------------------------------------------------------------
// `cr suite merge` on crafted manifests

class MergeTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = fresh_dir("merge"); }
  void TearDown() override { fs::remove_all(dir_); }

  std::string manifest(const std::string& name, const std::string& config,
                       const std::string& cells, bool quick = false) {
    const fs::path path = dir_ / name;
    spit(path, std::string("{\"suite\": \"s\", \"description\": \"d\", ") +
                   "\"git_sha\": \"abc\", \"config_hash\": \"" + config +
                   "\", \"shard\": \"1/1\", \"quick\": " + (quick ? "true" : "false") +
                   ", \"started_utc\": \"2026-01-01T00:00:00Z\", " +
                   "\"finished_utc\": \"2026-01-01T00:00:01Z\", \"wall_seconds\": 1.0, " +
                   "\"cells\": [" + cells + "]}");
    return path.string();
  }

  static std::string cell(const std::string& id, const std::string& status,
                          const std::string& fnv) {
    return "{\"id\": \"" + id + "\", \"bench\": \"b\", \"seed\": 1, \"status\": \"" +
           status + "\", \"seconds\": 0.5, \"csv_fnv\": " +
           (fnv.empty() ? "null" : "\"" + fnv + "\"") + "}";
  }

  int merge(const std::vector<std::string>& paths, std::string* log_out) {
    MergeOptions opts;
    opts.manifest_paths = paths;
    opts.check_files = false;  // crafted manifests have no CSVs on disk
    std::ostringstream log;
    const int rc = merge_manifests(opts, log);
    *log_out = log.str();
    return rc;
  }

  fs::path dir_;
};

TEST_F(MergeTest, UnionsComplementaryShards) {
  // Shard views of a two-cell suite: each ran one cell, recorded the other
  // as "shard" (not its responsibility).
  const std::string a = manifest(
      "manifest.1of2.json", "cafe",
      cell("c1", "ok", "1111111111111111") + ", " + cell("c2", "shard", ""));
  const std::string b = manifest(
      "manifest.2of2.json", "cafe",
      cell("c1", "shard", "") + ", " + cell("c2", "ok", "2222222222222222"));
  std::string log;
  ASSERT_EQ(merge({a, b}, &log), 0) << log;
  const auto merged = JsonValue::parse_file((dir_ / "manifest.json").string());
  ASSERT_TRUE(merged.ok()) << merged.error;
  EXPECT_EQ(merged.value->find("shard")->as_string(), "1/1");
  EXPECT_EQ(merged.value->find("wall_seconds")->as_number(), 2.0);  // summed
  const auto& cells = merged.value->find("cells")->items();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0]->find("id")->as_string(), "c1");  // expansion order kept
  EXPECT_EQ(cells[0]->find("csv_fnv")->as_string(), "1111111111111111");
  EXPECT_EQ(cells[1]->find("csv_fnv")->as_string(), "2222222222222222");
  ASSERT_NE(merged.value->find("merged_from"), nullptr);
  EXPECT_EQ(merged.value->find("merged_from")->items().size(), 2u);
}

TEST_F(MergeTest, AgreeingDuplicatesMergeButConflictingChecksumsAreFatal) {
  const std::string a = manifest(
      "a.json", "cafe", cell("c1", "ok", "1111111111111111"));
  const std::string b = manifest(
      "b.json", "cafe", cell("c1", "cached", "1111111111111111"));
  std::string log;
  EXPECT_EQ(merge({a, b}, &log), 0) << log;  // same bytes — fine

  const std::string c = manifest(
      "c.json", "cafe", cell("c1", "ok", "2222222222222222"));
  EXPECT_EQ(merge({a, c}, &log), 1);
  EXPECT_NE(log.find("CONFLICT"), std::string::npos) << log;
}

TEST_F(MergeTest, RejectsMismatchedConfigAndQuickMode) {
  const std::string a = manifest("a.json", "cafe", cell("c1", "ok", "1111111111111111"));
  const std::string b = manifest("b.json", "f00d", cell("c1", "ok", "1111111111111111"));
  std::string log;
  EXPECT_EQ(merge({a, b}, &log), 1);
  EXPECT_NE(log.find("different configuration"), std::string::npos) << log;

  const std::string q = manifest("q.json", "cafe",
                                 cell("c1", "ok", "1111111111111111"), /*quick=*/true);
  EXPECT_EQ(merge({a, q}, &log), 1);
}

TEST_F(MergeTest, RejectsIncompleteCoverage) {
  const std::string a = manifest(
      "a.json", "cafe",
      cell("c1", "ok", "1111111111111111") + ", " + cell("c2", "shard", ""));
  std::string log;
  EXPECT_EQ(merge({a}, &log), 1);
  EXPECT_NE(log.find("not completed"), std::string::npos) << log;
  EXPECT_NE(log.find("refusing"), std::string::npos) << log;
}

TEST_F(MergeTest, RejectsPreChecksumEraManifests) {
  // A success cell without csv_fnv cannot be safely unioned — conflicts
  // would be invisible. Exit 2 = malformed input, not a merge conflict.
  const std::string a = manifest("a.json", "cafe", cell("c1", "ok", ""));
  std::string log;
  EXPECT_EQ(merge({a}, &log), 2);
  EXPECT_NE(log.find("csv_fnv"), std::string::npos) << log;
}

}  // namespace
}  // namespace cr
