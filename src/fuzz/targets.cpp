#include "fuzz/target.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checkpoint.h"
#include "obs/sha256.h"
#include "registry/artifact.h"
#include "registry/model_io.h"
#include "safety/stl_parser.h"
#include "util/cli.h"
#include "util/config_file.h"
#include "util/contracts.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/json.h"

namespace cpsguard::fuzz {

namespace {

namespace fs = std::filesystem;

// Wrap a parser call: accepted and expected-reject both return; any other
// exception type escaping the surface is the bug this subsystem exists to
// catch, so rewrap it with enough context to reproduce.
template <typename Fn>
bool accepts(const char* what, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const ContractViolation&) {
    return false;  // typed precondition reject — allowed
  } catch (const CpsError&) {
    return false;  // typed parse/IO reject — allowed
  } catch (const InvariantViolation&) {
    throw;  // already classified
  } catch (const std::exception& e) {
    throw InvariantViolation(std::string(what) +
                             ": escaped untyped exception: " + e.what());
  } catch (...) {
    throw InvariantViolation(std::string(what) +
                             ": escaped non-std exception");
  }
}

void require(bool cond, const std::string& msg) {
  if (!cond) throw InvariantViolation(msg);
}

// ---- stl ------------------------------------------------------------------

bool run_stl(const std::string& input) {
  return accepts("parse_stl", [&] { (void)safety::parse_stl(input); });
}

// ---- config ---------------------------------------------------------------

bool run_config(const std::string& input) {
  util::ConfigFile cfg;
  if (!accepts("ConfigFile::parse",
               [&] { cfg = util::ConfigFile::parse(input); })) {
    return false;
  }
  // Accepted config: the typed getters must reject garbage values with
  // ParseError, never stoi/stod exceptions (the pre-fix behaviour).
  for (const char* key : {"threads", "rate", "campaign.patients", "a", "k"}) {
    accepts("ConfigFile::get_int", [&] { (void)cfg.get_int(key, 0); });
    accepts("ConfigFile::get_double", [&] { (void)cfg.get_double(key, 0.0); });
    (void)cfg.get_bool(key, false);
  }
  return true;
}

// ---- csv ------------------------------------------------------------------

bool run_csv(const std::string& input) {
  std::vector<std::vector<std::string>> rows;
  if (!accepts("parse_csv", [&] { rows = util::parse_csv(input); })) {
    return false;
  }
  // Round-trip invariant: any rectangular table the parser accepts must
  // survive write→parse unchanged (quoting bugs surface here, e.g. the
  // unquoted-'\r' field loss).
  if (rows.empty() || rows.front().empty()) return true;
  const std::size_t width = rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != width) return true;  // ragged: writer contract N/A
  }
  util::CsvWriter writer(rows.front());
  for (std::size_t r = 1; r < rows.size(); ++r) writer.add_row(rows[r]);
  const auto reparsed = util::parse_csv(writer.to_string());
  require(reparsed == rows,
          "csv: write->parse round-trip corrupted accepted input");
  return true;
}

// ---- json -----------------------------------------------------------------

bool run_json(const std::string& input) {
  util::Json parsed = util::Json::null();
  if (!accepts("Json::parse",
               [&] { parsed = util::Json::parse(input); })) {
    return false;
  }
  // dump∘parse must reach a fixpoint within one normalization pass (the
  // first dump may canonicalize, e.g. "1e2" → "100" or "-0" → "0").
  const std::string d1 = parsed.dump();
  util::Json p1 = util::Json::null();
  require(accepts("Json::parse(dump)",
                  [&] { p1 = util::Json::parse(d1); }),
          "json: dump() of an accepted value failed to reparse");
  const std::string d2 = p1.dump();
  util::Json p2 = util::Json::null();
  require(accepts("Json::parse(dump^2)",
                  [&] { p2 = util::Json::parse(d2); }),
          "json: normalized dump failed to reparse");
  require(p2.dump() == d2, "json: dump/parse never reached a fixpoint");
  return true;
}

// ---- checkpoint -----------------------------------------------------------

// One store directory reused across calls (same key ⇒ same record file), so
// 10k iterations don't churn 10k directories.
fs::path checkpoint_dir() {
  static const fs::path dir = [] {
    auto d = fs::temp_directory_path() /
             ("cpsguard_fuzz_ckpt_" + std::to_string(::getpid()));
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

const std::string& checkpoint_payload() {
  static const std::string payload = "fuzz payload \x01\x02 bytes\n";
  return payload;
}

// A byte-exact valid record for the fuzz key, so mutants start one edit
// away from the accepted format instead of having to find it blind.
std::string checkpoint_seed() {
  const std::string& payload = checkpoint_payload();
  std::ostringstream os;
  os << core::kCheckpointSchema << '\n'
     << "key=fuzz-key\n"
     << "bytes=" << payload.size() << '\n'
     << "sha256=" << obs::sha256_hex(payload.data(), payload.size()) << '\n'
     << '\n'
     << payload;
  return os.str();
}

bool run_checkpoint(const std::string& input) {
  static const std::string key = "fuzz-key";
  const std::string& payload = checkpoint_payload();
  core::CheckpointStore store(checkpoint_dir().string());
  store.put(key, payload);
  // Locate the single record file and replace its bytes with the mutant —
  // a simulated hostile/rotted disk.
  fs::path record;
  for (const auto& entry : fs::directory_iterator(checkpoint_dir())) {
    if (entry.path().extension() == ".ckpt") record = entry.path();
  }
  require(!record.empty(), "checkpoint: record file missing after put()");
  {
    std::ofstream f(record, std::ios::binary | std::ios::trunc);
    f.write(input.data(), static_cast<std::streamsize>(input.size()));
  }
  // Strict decode: either the record is discarded (nullopt) or it decodes
  // to the *original* payload (the mutant happened to be a valid record,
  // which requires the SHA-256 self-check to pass). Returning anything else
  // is accept-then-corrupt.
  std::optional<std::string> got;
  accepts("CheckpointStore::get", [&] { got = store.get(key); });
  require(!got || *got == payload,
          "checkpoint: corrupted record decoded to forged payload");
  return got.has_value();
}

// ---- model ----------------------------------------------------------------

// A tiny but fully valid cpsguard.model.v1 artifact, built through the
// low-level writer (no training): header + meta JSON + scaler stream + the
// four tensors of a 2x3-window MLP with one hidden layer of 4, so it also
// loads as a monitor. Mutants start one edit away from every section.
std::string model_seed() {
  registry::ArtifactInfo info;
  info.arch = monitor::Arch::kMlp;
  info.window = 2;
  info.features = 3;
  info.classes = 2;
  const std::string meta =
      R"({"schema":"cpsguard.model.v1","version":1,"run_id":"fuzzrun0",)"
      R"("parent_run_id":"","config_fingerprint":"deadbeef",)"
      R"("display_name":"MLP","semantic":false,"hidden":[4]})";
  // StandardScaler stream: u32 n, n doubles mean, n doubles std.
  std::string scaler;
  const std::uint32_t n = 3;
  scaler.append(reinterpret_cast<const char*>(&n), sizeof(n));
  const double mean[3] = {0.0, 1.0, -2.5};
  const double stdv[3] = {1.0, 2.0, 0.5};
  scaler.append(reinterpret_cast<const char*>(mean), sizeof(mean));
  scaler.append(reinterpret_cast<const char*>(stdv), sizeof(stdv));
  float w1[24];
  for (int i = 0; i < 24; ++i) w1[i] = 0.125f * static_cast<float>(i % 7 - 3);
  const float b1[4] = {0.125f, -0.75f, 0.0f, 0.5f};
  const float w2[8] = {0.5f, -0.25f, 1.0f, 0.0f, 2.0f, -1.5f, 0.25f, 1.0f};
  const float b2[2] = {0.0f, -0.125f};
  const std::vector<registry::TensorEntry> tensors{
      {"W", 6, 4, w1}, {"b", 1, 4, b1}, {"W", 4, 2, w2}, {"b", 1, 2, b2}};
  return registry::build_artifact(info, meta, scaler, tensors);
}

bool run_model(const std::string& input) {
  registry::ModelArtifact art;
  if (!accepts("ModelArtifact::parse",
               [&] { art = registry::ModelArtifact::parse(input); })) {
    return false;
  }
  // Canonical-layout invariant: bytes the verifier accepts must re-encode
  // bit-identically — accept-then-mutate means two different models could
  // verify against the same SHA-256 lineage record.
  require(art.rebuild() == input,
          "model: rebuild() of an accepted artifact is not bit-identical");
  // The surfaces behind an accepted container must also reject with typed
  // errors only: the container parser validates neither the meta JSON nor
  // whether the scaler and tensors fit the model the meta describes.
  accepts("parse_model_meta", [&] { (void)registry::parse_model_meta(art); });
  // load_monitor rejects with the ModelFormatError registry callers catch,
  // from its declared-shape check, before it builds the classifier.
  accepts("load_monitor", [&] {
    try {
      (void)registry::load_monitor(art);
    } catch (const registry::ModelFormatError&) {
      throw;
    } catch (const std::exception& e) {
      throw InvariantViolation(
          std::string("load_monitor: rejected without ModelFormatError: ") +
          e.what());
    }
  });
  return true;
}

// ---- cli ------------------------------------------------------------------

bool run_cli(const std::string& input) {
  // Split the fuzz input into argv tokens on whitespace.
  std::vector<std::string> tokens{"fuzz_prog"};
  std::istringstream is(input);
  std::string tok;
  while (is >> tok && tokens.size() < 64) tokens.push_back(tok);
  std::vector<const char*> argv;
  for (const auto& t : tokens) argv.push_back(t.c_str());

  return accepts("Cli", [&] {
    const util::Cli cli(static_cast<int>(argv.size()), argv.data());
    for (const char* flag : {"threads", "rate", "seed", "verbose"}) {
      if (!cli.has(flag)) continue;
      accepts("Cli::get_int", [&] { (void)cli.get_int(flag, 0); });
      accepts("Cli::get_double", [&] { (void)cli.get_double(flag, 0.0); });
      (void)cli.get_bool(flag, false);
    }
  });
}

std::vector<FuzzTarget> build_targets() {
  std::vector<FuzzTarget> targets;

  targets.push_back(FuzzTarget{
      "stl",
      {"BG > 180 && u3 > 0.5", "F[0,12](BG < 70)",
       "(BG > 120 U[0,6] dIOB > 0)", "G[0,24](!(BG < 54) || alarm == 1~0.5)",
       "true && !false"},
      {"G[", "F[", "U[", "(", ")", "[", "]", "&&", "||", "!", "<=", ">=",
       "==", "<", ">", "~", ",", "true", "false", "BG", "dIOB", "u3",
       "0", "1", "12", "180", "0.5", "-", ".", "9999999999999999999"},
      run_stl});

  targets.push_back(FuzzTarget{
      "config",
      {"threads = 4\nrate = 0.25\n# comment\ncampaign.patients = 20\n",
       "a=1\nb = true\nk = -3.5e-2\n"},
      {"=", "\n", "#", "threads", "rate", "campaign.patients", "a", "k",
       "true", "false", "0.5", "4x", "1e999", "-", ".", " "},
      run_config});

  targets.push_back(FuzzTarget{
      "csv",
      {"h1,h2,h3\n1,2,3\n4,5,6\n",
       "name,note\n\"a,b\",\"line\nbreak\"\n\"q\"\"q\",plain\n"},
      {",", "\"", "\n", "\r\n", "\"\"", "x", "0.5", ""},
      run_csv});

  targets.push_back(FuzzTarget{
      "json",
      {R"({"schema":"cpsguard.bench_manifest.v1","seed":7,"ok":true})",
       R"([1,2.5,-3e2,"s\n",null,false,{"k":[]}])",
       R"({"nested":{"a":[{"b":"é"}]}})"},
      {"{", "}", "[", "]", ":", ",", "\"", "\\u0022", "\\n", "true", "false",
       "null", "0", "-1", "2.5", "1e999", "\"k\"", "{}", "[]", "\\ud834",
       "\\udd1e"},
      run_json});

  targets.push_back(FuzzTarget{
      "checkpoint",
      {checkpoint_seed()},
      {"cpsguard.checkpoint.v1", "key=", "bytes=", "sha256=", "\n", "\n\n",
       "fuzz-key", "0", "22", "-22", "22x", "99999999999999999999"},
      run_checkpoint});

  targets.push_back(FuzzTarget{
      "model",
      {model_seed()},
      {std::string(registry::kModelMagic, sizeof(registry::kModelMagic)),
       "cpsguard.model.v1",
       std::string("\x01\x00\x00\x00", 4),          // u32 1 (version/arch)
       std::string("\x80\x00\x00\x00\x00\x00\x00\x00", 8),  // u64 128
       std::string("\x40\x00\x00\x00\x00\x00\x00\x00", 8),  // u64 64
       std::string("\xff\xff\xff\xff", 4),
       std::string(4, '\0'), std::string(64, '\0'),
       "W", "b", "run_id", "hidden", "schema"},
      run_model});

  targets.push_back(FuzzTarget{
      "cli",
      {"--threads=4 --rate 0.25 --verbose",
       "--seed=7 --threads 16 --rate=1e-3"},
      {"--", "=", " ", "--threads", "--rate", "--seed", "--verbose", "4x",
       "0.5", "-", "true", "1e999", "--=", "positional"},
      run_cli});

  return targets;
}

}  // namespace

const std::vector<FuzzTarget>& all_targets() {
  static const std::vector<FuzzTarget> targets = build_targets();
  return targets;
}

const FuzzTarget* find_target(const std::string& name) {
  for (const auto& t : all_targets()) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace cpsguard::fuzz
