#include "pipeline/pipeline_spec.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>

#include "common/check.h"

namespace pard {

PipelineSpec::PipelineSpec(std::string app_name, Duration slo, std::vector<ModuleSpec> modules,
                           std::vector<BackendProfile> backends)
    : app_name_(std::move(app_name)),
      slo_(slo),
      modules_(std::move(modules)),
      backends_(std::move(backends)) {
  Validate();
  ValidateBackends();
  BuildPaths();
}

void PipelineSpec::set_backends(std::vector<BackendProfile> backends) {
  backends_ = std::move(backends);
  ValidateBackends();
}

void PipelineSpec::ValidateBackends() const {
  for (const BackendProfile& profile : backends_) {
    profile.Validate();
    for (const auto& [model, scale] : profile.module_scale) {
      (void)scale;
      bool known = false;
      for (const ModuleSpec& m : modules_) {
        known = known || m.model == model;
      }
      PARD_CHECK_MSG(known, "backend profile \"" << profile.name
                                                 << "\" scales unknown model \"" << model
                                                 << "\" (not in this pipeline)");
    }
  }
}

const ModuleSpec& PipelineSpec::Module(int id) const {
  PARD_CHECK(id >= 0 && id < NumModules());
  return modules_[static_cast<std::size_t>(id)];
}

void PipelineSpec::Validate() const {
  PARD_CHECK_MSG(!modules_.empty(), "pipeline has no modules");
  PARD_CHECK_MSG(slo_ > 0, "pipeline SLO must be positive");
  const int n = NumModules();
  // A request counts its hop slots in one byte (runtime/request.h).
  PARD_CHECK_MSG(n <= UINT8_MAX, "pipeline has " << n << " modules; at most " << UINT8_MAX
                                                 << " are supported");
  for (int i = 0; i < n; ++i) {
    const ModuleSpec& m = modules_[static_cast<std::size_t>(i)];
    PARD_CHECK_MSG(m.id == i, "module ids must be dense and ordered");
    PARD_CHECK_MSG(!m.model.empty(), "module " << i << " has no model name");
    // Requests count a module's deliveries and name its chosen sub in 8-bit
    // hop fields (HopRecord).
    PARD_CHECK_MSG(m.pres.size() <= static_cast<std::size_t>(INT8_MAX) &&
                       m.subs.size() <= static_cast<std::size_t>(INT8_MAX),
                   "module " << i << " has " << m.pres.size() << " pres and " << m.subs.size()
                             << " subs; at most " << INT8_MAX << " of each are supported");
    for (int p : m.pres) {
      PARD_CHECK_MSG(p >= 0 && p < n, "module " << i << " has out-of-range pre " << p);
      const auto& subs = modules_[static_cast<std::size_t>(p)].subs;
      PARD_CHECK_MSG(std::find(subs.begin(), subs.end(), i) != subs.end(),
                     "pres/subs asymmetry between " << p << " and " << i);
    }
    for (int s : m.subs) {
      PARD_CHECK_MSG(s >= 0 && s < n, "module " << i << " has out-of-range sub " << s);
      PARD_CHECK_MSG(s != i, "module " << i << " links to itself");
      const auto& pres = modules_[static_cast<std::size_t>(s)].pres;
      PARD_CHECK_MSG(std::find(pres.begin(), pres.end(), i) != pres.end(),
                     "pres/subs asymmetry between " << i << " and " << s);
    }
    const std::set<int> unique_subs(m.subs.begin(), m.subs.end());
    PARD_CHECK_MSG(unique_subs.size() == m.subs.size(), "duplicate subs on module " << i);
  }
  // Acyclicity + reachability: Kahn's algorithm must consume every module.
  PARD_CHECK_MSG(static_cast<int>(TopoOrder().size()) == n, "pipeline graph has a cycle");
  int sources = 0;
  int sinks = 0;
  for (const ModuleSpec& m : modules_) {
    sources += m.pres.empty() ? 1 : 0;
    sinks += m.subs.empty() ? 1 : 0;
  }
  PARD_CHECK_MSG(sources == 1, "pipeline must have exactly one source module");
  PARD_CHECK_MSG(sinks == 1, "pipeline must have exactly one sink module");
}

std::vector<int> PipelineSpec::TopoOrder() const {
  const int n = NumModules();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const ModuleSpec& m : modules_) {
    indegree[static_cast<std::size_t>(m.id)] = static_cast<int>(m.pres.size());
  }
  // std::set gives deterministic (smallest-id-first) tie-breaking.
  std::set<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) {
      ready.insert(i);
    }
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int id = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(id);
    for (int s : modules_[static_cast<std::size_t>(id)].subs) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) {
        ready.insert(s);
      }
    }
  }
  return order;
}

int PipelineSpec::SourceModule() const {
  for (const ModuleSpec& m : modules_) {
    if (m.pres.empty()) {
      return m.id;
    }
  }
  PARD_CHECK_MSG(false, "no source module");
}

int PipelineSpec::SinkModule() const {
  for (const ModuleSpec& m : modules_) {
    if (m.subs.empty()) {
      return m.id;
    }
  }
  PARD_CHECK_MSG(false, "no sink module");
}

void PipelineSpec::BuildPaths() {
  const int n = NumModules();
  downstream_paths_.assign(static_cast<std::size_t>(n), {});
  // Process in reverse topological order so successors are ready first.
  std::vector<int> order = TopoOrder();
  std::reverse(order.begin(), order.end());
  for (int id : order) {
    auto& paths = downstream_paths_[static_cast<std::size_t>(id)];
    const ModuleSpec& m = modules_[static_cast<std::size_t>(id)];
    if (m.subs.empty()) {
      paths.push_back({});  // Sink: the single empty downstream path.
      continue;
    }
    for (int s : m.subs) {
      for (const auto& tail : downstream_paths_[static_cast<std::size_t>(s)]) {
        std::vector<int> path;
        path.reserve(tail.size() + 1);
        path.push_back(s);
        path.insert(path.end(), tail.begin(), tail.end());
        paths.push_back(std::move(path));
      }
    }
  }
}

const std::vector<std::vector<int>>& PipelineSpec::DownstreamPaths(int id) const {
  PARD_CHECK(id >= 0 && id < NumModules());
  return downstream_paths_[static_cast<std::size_t>(id)];
}

bool PipelineSpec::IsChain() const {
  for (const ModuleSpec& m : modules_) {
    if (m.pres.size() > 1 || m.subs.size() > 1) {
      return false;
    }
  }
  return true;
}

JsonValue PipelineSpec::ToJson() const {
  JsonArray modules;
  for (const ModuleSpec& m : modules_) {
    JsonObject mo;
    mo["id"] = static_cast<std::int64_t>(m.id);
    mo["name"] = m.model;
    JsonArray pres;
    for (int p : m.pres) {
      pres.emplace_back(static_cast<std::int64_t>(p));
    }
    JsonArray subs;
    for (int s : m.subs) {
      subs.emplace_back(static_cast<std::int64_t>(s));
    }
    mo["pres"] = std::move(pres);
    mo["subs"] = std::move(subs);
    modules.emplace_back(std::move(mo));
  }
  JsonObject obj;
  obj["app"] = app_name_;
  obj["slo_ms"] = UsToMs(slo_);
  obj["modules"] = std::move(modules);
  if (!backends_.empty()) {
    JsonArray backends;
    for (const BackendProfile& profile : backends_) {
      backends.push_back(profile.ToJson());
    }
    obj["backends"] = std::move(backends);
  }
  return JsonValue(std::move(obj));
}

PipelineSpec PipelineSpec::FromJson(const JsonValue& v) {
  std::vector<ModuleSpec> modules;
  for (const JsonValue& mv : v.At("modules").AsArray()) {
    ModuleSpec m;
    m.id = static_cast<int>(mv.At("id").AsInt());
    m.model = mv.At("name").AsString();
    for (const JsonValue& p : mv.At("pres").AsArray()) {
      m.pres.push_back(static_cast<int>(p.AsInt()));
    }
    for (const JsonValue& s : mv.At("subs").AsArray()) {
      m.subs.push_back(static_cast<int>(s.AsInt()));
    }
    modules.push_back(std::move(m));
  }
  // Modules may appear in any order in the file; sort by id.
  std::sort(modules.begin(), modules.end(),
            [](const ModuleSpec& a, const ModuleSpec& b) { return a.id < b.id; });
  std::vector<BackendProfile> backends;
  if (const JsonValue* bv = v.Find("backends")) {
    for (const JsonValue& profile : bv->AsArray()) {
      backends.push_back(BackendProfile::FromJson(profile));
    }
  }
  return PipelineSpec(v.At("app").AsString(), MsToUs(v.At("slo_ms").AsDouble()),
                      std::move(modules), std::move(backends));
}

PipelineSpec PipelineSpec::FromJsonText(const std::string& text) {
  return FromJson(ParseJson(text));
}

}  // namespace pard
