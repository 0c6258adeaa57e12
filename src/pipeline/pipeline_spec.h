// Pipeline specification: the DAG of modules a request traverses.
//
// Matches the paper's JSON schema (§5.1): a pipeline is a list of module
// configurations (name, id, pres, subs) plus an end-to-end latency SLO.
// `name` identifies the DNN model in the application library (our
// ProfileRegistry); `pres`/`subs` wire the DAG. PARD splits requests when
// `subs` has multiple entries and merges them when `pres` does.
#ifndef PARD_PIPELINE_PIPELINE_SPEC_H_
#define PARD_PIPELINE_PIPELINE_SPEC_H_

#include <string>
#include <vector>

#include "common/time_types.h"
#include "jsonio/json.h"
#include "pipeline/backend_profile.h"

namespace pard {

struct ModuleSpec {
  // Dense module id; must equal the module's index in PipelineSpec::modules.
  int id = 0;
  // Model name registered in the application library (ProfileRegistry).
  std::string model;
  // Preceding / subsequent module ids.
  std::vector<int> pres;
  std::vector<int> subs;
};

class PipelineSpec {
 public:
  PipelineSpec() = default;
  PipelineSpec(std::string app_name, Duration slo, std::vector<ModuleSpec> modules,
               std::vector<BackendProfile> backends = {});

  const std::string& app_name() const { return app_name_; }
  Duration slo() const { return slo_; }
  void set_slo(Duration slo) { slo_ = slo; }

  // Backend catalog for the worker fleet (see backend_profile.h). Empty
  // means the homogeneous baseline fleet; otherwise the fleet layer assigns
  // catalog entries to worker slots round-robin per module.
  const std::vector<BackendProfile>& backends() const { return backends_; }
  // Replaces the catalog; validates grades/scales and that every
  // module_scale key names a model present in this pipeline.
  void set_backends(std::vector<BackendProfile> backends);
  int NumModules() const { return static_cast<int>(modules_.size()); }
  const ModuleSpec& Module(int id) const;
  const std::vector<ModuleSpec>& modules() const { return modules_; }

  // Validates DAG structure: at most UINT8_MAX modules with dense ids, at
  // most INT8_MAX pres and subs per module, pres/subs symmetry, acyclicity,
  // exactly one source and one sink.
  // Throws CheckError with a description on violation. Construction and
  // FromJson validate automatically.
  void Validate() const;

  // Module ids in a topological order (stable: ties broken by id).
  std::vector<int> TopoOrder() const;

  // The unique module with no predecessors / successors.
  int SourceModule() const;
  int SinkModule() const;

  // All downstream paths from (exclusive) module `id` to the sink; each path
  // is a sequence of module ids. For the sink this is a single empty path.
  // Precomputed at construction; cheap to query per-request.
  const std::vector<std::vector<int>>& DownstreamPaths(int id) const;

  // True if the pipeline is a simple chain (every module has <=1 pre/sub).
  bool IsChain() const;

  JsonValue ToJson() const;
  static PipelineSpec FromJson(const JsonValue& v);
  static PipelineSpec FromJsonText(const std::string& text);

 private:
  void BuildPaths();
  void ValidateBackends() const;

  std::string app_name_;
  Duration slo_ = 0;
  std::vector<ModuleSpec> modules_;
  std::vector<BackendProfile> backends_;
  std::vector<std::vector<std::vector<int>>> downstream_paths_;
};

}  // namespace pard

#endif  // PARD_PIPELINE_PIPELINE_SPEC_H_
