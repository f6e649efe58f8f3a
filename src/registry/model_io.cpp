#include "registry/model_io.h"

#include <cstdint>
#include <span>
#include <sstream>
#include <utility>

#include "util/contracts.h"
#include "util/json.h"

namespace cpsguard::registry {

namespace {

[[noreturn]] void reject_meta(const std::string& what) {
  throw ModelFormatError("model artifact meta: " + what);
}

const util::Json& member(const util::Json& j, const char* key) {
  const util::Json* v = j.get(key);
  if (v == nullptr) reject_meta(std::string("missing key \"") + key + "\"");
  return *v;
}

std::string str_member(const util::Json& j, const char* key) {
  const util::Json& v = member(j, key);
  if (!v.is_string()) reject_meta(std::string("key \"") + key + "\" is not a string");
  return v.as_str();
}

// One parameter of the classifier an artifact declares, in params() order.
struct ParamShape {
  const char* name;
  std::int64_t rows;
  std::int64_t cols;
};

// The parameters MlMonitor would build for this arch, window and feature
// count and these hidden sizes (two classes), mirroring the Dense, LSTM and
// GRU layer layouts. 64-bit sizes: the declared ones are not yet trusted.
std::vector<ParamShape> declared_params(const ArtifactInfo& info,
                                        const std::vector<int>& hidden) {
  std::vector<ParamShape> out;
  const auto dense = [&](std::int64_t in, std::int64_t units) {
    out.push_back({"W", in, units});
    out.push_back({"b", 1, units});
  };
  std::int64_t in = info.features;
  if (info.arch == monitor::Arch::kMlp) in *= info.window;
  for (const std::int64_t h : hidden) {
    switch (info.arch) {
      case monitor::Arch::kMlp:
        dense(in, h);
        break;
      case monitor::Arch::kLstm:
        out.insert(out.end(),
                   {{"Wx", in, 4 * h}, {"Wh", h, 4 * h}, {"b", 1, 4 * h}});
        break;
      case monitor::Arch::kGru:
        out.insert(out.end(), {{"Wx", in, 3 * h},
                               {"Wh", h, 3 * h},
                               {"bx", 1, 3 * h},
                               {"bh", 1, 3 * h}});
        break;
    }
    in = h;
  }
  dense(in, 2);
  return out;
}

std::string shape_str(const std::string& name, std::int64_t rows,
                      std::int64_t cols) {
  return "'" + name + "' " + std::to_string(rows) + "x" + std::to_string(cols);
}

void check_declared_shapes(const ArtifactInfo& info,
                           const std::vector<int>& hidden,
                           std::span<const nn::NamedTensor> tensors) {
  const std::vector<ParamShape> want = declared_params(info, hidden);
  if (tensors.size() != want.size()) {
    throw ModelFormatError("model artifact: the declared classifier has " +
                           std::to_string(want.size()) + " tensors, the file " +
                           std::to_string(tensors.size()));
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const nn::NamedTensor& t = tensors[i];
    const ParamShape& w = want[i];
    if (t.name != w.name || t.rows != w.rows || t.cols != w.cols) {
      throw ModelFormatError("model artifact: tensor " + std::to_string(i) +
                             " is " + shape_str(t.name, t.rows, t.cols) +
                             ", the declared classifier needs " +
                             shape_str(w.name, w.rows, w.cols));
    }
  }
}

// Build `config`'s monitor and bind the artifact into it, after checking
// the tensor directory against the classifier `config` declares.
std::unique_ptr<monitor::MlMonitor> bind_monitor(const ModelArtifact& art,
                                                 monitor::MonitorConfig config) {
  check_declared_shapes(art.info(), config.effective_hidden(), art.tensors());
  auto mon = std::make_unique<monitor::MlMonitor>(std::move(config));
  std::istringstream scaler{std::string(art.scaler_bytes())};
  try {
    mon->bind(scaler, art.info().window, art.info().features, art.tensors());
  } catch (const ContractViolation& e) {
    // Scaler-stream validation uses contracts; surface it as the typed
    // format error every registry caller handles.
    throw ModelFormatError(std::string("model artifact: bad scaler section: ") +
                           e.what());
  }
  return mon;
}

}  // namespace

std::string build_model_artifact(monitor::MlMonitor& mon,
                                 const ModelMeta& meta) {
  nn::Classifier& clf = mon.classifier();  // trained() enforced inside
  ArtifactInfo info;
  info.arch = mon.config().arch;
  info.window = clf.time_steps();
  info.features = clf.features();
  info.classes = clf.num_classes();

  util::Json j = util::Json::object();
  j.set("schema", util::Json::str(kModelSchema));
  j.set("version", util::Json::integer(static_cast<long>(meta.version)));
  j.set("run_id", util::Json::str(meta.run_id));
  j.set("parent_run_id", util::Json::str(meta.parent_run_id));
  j.set("config_fingerprint", util::Json::str(meta.config_fingerprint));
  j.set("display_name", util::Json::str(meta.display_name));
  j.set("semantic", util::Json::boolean(meta.semantic));
  util::Json hidden = util::Json::array();
  for (const int h : meta.hidden) hidden.push(util::Json::integer(h));
  j.set("hidden", std::move(hidden));

  std::ostringstream scaler;
  mon.scaler().save(scaler);

  std::vector<TensorEntry> tensors;
  for (nn::Param* p : clf.params()) {
    const nn::Matrix& value = p->value;
    tensors.push_back(
        TensorEntry{p->name, value.rows(), value.cols(), value.data().data()});
  }
  return build_artifact(info, j.dump(), scaler.str(), tensors);
}

ModelMeta parse_model_meta(const ModelArtifact& art) {
  util::Json j = util::Json::null();
  try {
    j = util::Json::parse(std::string(art.meta_json()));
  } catch (const util::JsonParseError& e) {
    reject_meta(std::string("unparseable JSON: ") + e.what());
  }
  if (!j.is_object()) reject_meta("top-level value is not an object");
  if (str_member(j, "schema") != kModelSchema) {
    reject_meta("schema tag is not " + std::string(kModelSchema));
  }
  ModelMeta meta;
  const util::Json& version = member(j, "version");
  if (!version.is_integer() || version.as_int() < 0) {
    reject_meta("key \"version\" is not a non-negative integer");
  }
  meta.version = static_cast<std::uint64_t>(version.as_int());
  meta.run_id = str_member(j, "run_id");
  meta.parent_run_id = str_member(j, "parent_run_id");
  meta.config_fingerprint = str_member(j, "config_fingerprint");
  meta.display_name = str_member(j, "display_name");
  const util::Json& semantic = member(j, "semantic");
  if (!semantic.is_bool()) reject_meta("key \"semantic\" is not a boolean");
  meta.semantic = semantic.as_bool();
  const util::Json& hidden = member(j, "hidden");
  if (!hidden.is_array()) reject_meta("key \"hidden\" is not an array");
  for (const util::Json& h : hidden.items()) {
    if (!h.is_integer() || h.as_int() < 1 || h.as_int() > (1 << 16)) {
      reject_meta("key \"hidden\" holds an implausible layer size");
    }
    meta.hidden.push_back(static_cast<int>(h.as_int()));
  }
  return meta;
}

std::unique_ptr<monitor::MlMonitor> load_monitor(const ModelArtifact& art) {
  const ModelMeta meta = parse_model_meta(art);
  monitor::MonitorConfig mc;
  mc.arch = art.info().arch;
  mc.semantic = meta.semantic;
  mc.hidden = meta.hidden;
  return bind_monitor(art, std::move(mc));
}

std::unique_ptr<monitor::MlMonitor> load_monitor(const ModelArtifact& art,
                                                 monitor::MonitorConfig config) {
  const ModelMeta meta = parse_model_meta(art);
  monitor::MonitorConfig declared;
  declared.arch = art.info().arch;
  declared.hidden = meta.hidden;
  if (declared.arch != config.arch || meta.semantic != config.semantic ||
      declared.effective_hidden() != config.effective_hidden()) {
    throw ModelFormatError("model artifact: declares a " +
                           monitor::to_string(declared.arch) +
                           (meta.semantic ? " semantic" : "") +
                           " monitor that is not the expected " +
                           config.display_name() + " layout");
  }
  return bind_monitor(art, std::move(config));
}

}  // namespace cpsguard::registry
