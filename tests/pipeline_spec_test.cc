#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "pipeline/apps.h"
#include "pipeline/pipeline_spec.h"

namespace pard {
namespace {

PipelineSpec ChainOf(int n) {
  std::vector<ModuleSpec> modules;
  for (int i = 0; i < n; ++i) {
    ModuleSpec m;
    m.id = i;
    m.model = "object_detection";
    if (i > 0) {
      m.pres.push_back(i - 1);
    }
    if (i < n - 1) {
      m.subs.push_back(i + 1);
    }
    modules.push_back(std::move(m));
  }
  return PipelineSpec("chain", MsToUs(500), std::move(modules));
}

TEST(PipelineSpec, ChainBasics) {
  const PipelineSpec p = ChainOf(4);
  EXPECT_EQ(p.NumModules(), 4);
  EXPECT_TRUE(p.IsChain());
  EXPECT_EQ(p.SourceModule(), 0);
  EXPECT_EQ(p.SinkModule(), 3);
  EXPECT_EQ(p.TopoOrder(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(PipelineSpec, ChainDownstreamPaths) {
  const PipelineSpec p = ChainOf(4);
  const auto& paths0 = p.DownstreamPaths(0);
  ASSERT_EQ(paths0.size(), 1u);
  EXPECT_EQ(paths0[0], (std::vector<int>{1, 2, 3}));
  const auto& paths_sink = p.DownstreamPaths(3);
  ASSERT_EQ(paths_sink.size(), 1u);
  EXPECT_TRUE(paths_sink[0].empty());
}

TEST(PipelineSpec, DagPathsEnumerateBranches) {
  const PipelineSpec da = MakeDagLiveVideo();
  EXPECT_FALSE(da.IsChain());
  const auto& paths = da.DownstreamPaths(0);
  ASSERT_EQ(paths.size(), 2u);
  // person -> pose -> expression -> eye and person -> face -> expression -> eye.
  EXPECT_EQ(paths[0], (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(paths[1], (std::vector<int>{2, 3, 4}));
  // From the merge module there is a single path.
  ASSERT_EQ(da.DownstreamPaths(3).size(), 1u);
  EXPECT_EQ(da.DownstreamPaths(3)[0], (std::vector<int>{4}));
}

TEST(PipelineSpec, ValidateRejectsCycle) {
  std::vector<ModuleSpec> modules(2);
  modules[0].id = 0;
  modules[0].model = "object_detection";
  modules[0].pres = {1};
  modules[0].subs = {1};
  modules[1].id = 1;
  modules[1].model = "face_recognition";
  modules[1].pres = {0};
  modules[1].subs = {0};
  EXPECT_THROW(PipelineSpec("cyc", MsToUs(100), modules), CheckError);
}

TEST(PipelineSpec, ValidateRejectsAsymmetry) {
  std::vector<ModuleSpec> modules(2);
  modules[0].id = 0;
  modules[0].model = "object_detection";
  modules[0].subs = {1};
  modules[1].id = 1;
  modules[1].model = "face_recognition";
  // Missing pres = {0}.
  EXPECT_THROW(PipelineSpec("bad", MsToUs(100), modules), CheckError);
}

TEST(PipelineSpec, ValidateRejectsNonDenseIds) {
  std::vector<ModuleSpec> modules(2);
  modules[0].id = 0;
  modules[0].model = "object_detection";
  modules[1].id = 5;
  modules[1].model = "face_recognition";
  EXPECT_THROW(PipelineSpec("bad", MsToUs(100), modules), CheckError);
}

TEST(PipelineSpec, ValidateRejectsSelfLoop) {
  std::vector<ModuleSpec> modules(1);
  modules[0].id = 0;
  modules[0].model = "object_detection";
  modules[0].subs = {0};
  modules[0].pres = {0};
  EXPECT_THROW(PipelineSpec("bad", MsToUs(100), modules), CheckError);
}

TEST(PipelineSpec, ValidateRejectsMultipleSources) {
  std::vector<ModuleSpec> modules(3);
  for (int i = 0; i < 3; ++i) {
    modules[static_cast<std::size_t>(i)].id = i;
    modules[static_cast<std::size_t>(i)].model = "object_detection";
  }
  modules[0].subs = {2};
  modules[1].subs = {2};
  modules[2].pres = {0, 1};
  EXPECT_THROW(PipelineSpec("bad", MsToUs(100), modules), CheckError);
}

TEST(PipelineSpec, ValidateRejectsZeroSlo) {
  std::vector<ModuleSpec> modules(1);
  modules[0].id = 0;
  modules[0].model = "object_detection";
  EXPECT_THROW(PipelineSpec("bad", 0, modules), CheckError);
}

// A DAG whose widest module has `fan` branches: a fork to `fan` modules that
// join at one merge or, with `split_fork`, two forks of fan / 2 behind a
// two-way fork, so that only the merge is that wide.
std::vector<ModuleSpec> ForkJoin(int fan, bool split_fork) {
  const int first_branch = split_fork ? 3 : 1;
  const int merge = first_branch + fan;
  std::vector<ModuleSpec> modules(static_cast<std::size_t>(merge + 1));
  for (int i = 0; i <= merge; ++i) {
    modules[static_cast<std::size_t>(i)].id = i;
    modules[static_cast<std::size_t>(i)].model = "object_detection";
  }
  const auto wire = [&modules](int from, int to) {
    modules[static_cast<std::size_t>(from)].subs.push_back(to);
    modules[static_cast<std::size_t>(to)].pres.push_back(from);
  };
  if (split_fork) {
    wire(0, 1);
    wire(0, 2);
  }
  for (int b = first_branch; b < merge; ++b) {
    wire(split_fork ? 1 + (b - first_branch) * 2 / fan : 0, b);
    wire(b, merge);
  }
  return modules;
}

// `modules` in the pipeline JSON format, which FromJsonText parses.
std::string ToJsonText(const std::vector<ModuleSpec>& modules) {
  const auto ids = [](const std::vector<int>& list) {
    std::string out;
    for (std::size_t i = 0; i < list.size(); ++i) {
      out += (i > 0 ? "," : "") + std::to_string(list[i]);
    }
    return out;
  };
  std::string text = R"({"app": "wide", "slo_ms": 500, "modules": [)";
  for (const ModuleSpec& m : modules) {
    text += m.id > 0 ? "," : "";
    text += R"({"id": )" + std::to_string(m.id) + R"(, "name": ")" + m.model + R"(", "pres": [)" +
            ids(m.pres) + R"(], "subs": [)" + ids(m.subs) + "]}";
  }
  return text + "]}";
}

// Builds `modules` directly and parses them: both must throw a CheckError
// whose message holds each of `needles`.
void ExpectRejected(const std::vector<ModuleSpec>& modules,
                    const std::vector<std::string>& needles) {
  for (const bool parsed : {false, true}) {
    try {
      if (parsed) {
        PipelineSpec::FromJsonText(ToJsonText(modules));
      } else {
        PipelineSpec("wide", MsToUs(500), modules);
      }
      ADD_FAILURE() << "a spec past the limit was accepted (parsed: " << parsed << ")";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      for (const std::string& needle : needles) {
        EXPECT_NE(what.find(needle), std::string::npos) << what;
      }
    }
  }
}

// Requests count a module's deliveries and name its chosen sub in 8-bit hop
// fields (runtime/request.h), so a module has at most INT8_MAX pres and subs,
// checked both when a spec is built directly and when one is parsed.
TEST(PipelineSpec, ValidateRejectsMoreBranchesThanRouteFieldsHold) {
  ExpectRejected(ForkJoin(128, false), {"module 0 has", "127"});    // 128 subs at the fork.
  ExpectRejected(ForkJoin(128, true), {"module 131 has", "127"});   // 128 pres at the merge.
  EXPECT_NO_THROW(PipelineSpec::FromJsonText(ToJsonText(ForkJoin(127, false))));
  EXPECT_NO_THROW(PipelineSpec("wide", MsToUs(500), ForkJoin(127, true)));
}

// A chain of `n` modules, 0 -> 1 -> ... -> n - 1.
std::vector<ModuleSpec> Chain(int n) {
  std::vector<ModuleSpec> modules(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ModuleSpec& m = modules[static_cast<std::size_t>(i)];
    m.id = i;
    m.model = "object_detection";
    if (i > 0) {
      m.pres.push_back(i - 1);
    }
    if (i + 1 < n) {
      m.subs.push_back(i + 1);
    }
  }
  return modules;
}

// A request counts its hop slots in one byte (runtime/request.h), so a
// pipeline has at most UINT8_MAX modules, built directly or parsed.
TEST(PipelineSpec, ValidateRejectsMoreModulesThanTheHopCountHolds) {
  ExpectRejected(Chain(256), {"pipeline has 256 modules", "at most 255"});
  EXPECT_NO_THROW(PipelineSpec("long", MsToUs(500), Chain(255)));
  EXPECT_NO_THROW(PipelineSpec::FromJsonText(ToJsonText(Chain(255))));
}

TEST(PipelineSpec, JsonRoundTrip) {
  const PipelineSpec p = MakeDagLiveVideo();
  const PipelineSpec q = PipelineSpec::FromJsonText(p.ToJson().Dump());
  EXPECT_EQ(q.app_name(), p.app_name());
  EXPECT_EQ(q.slo(), p.slo());
  EXPECT_EQ(q.NumModules(), p.NumModules());
  for (int i = 0; i < p.NumModules(); ++i) {
    EXPECT_EQ(q.Module(i).model, p.Module(i).model);
    EXPECT_EQ(q.Module(i).pres, p.Module(i).pres);
    EXPECT_EQ(q.Module(i).subs, p.Module(i).subs);
  }
}

TEST(PipelineSpec, FromJsonAcceptsUnorderedModules) {
  // Modules listed out of id order, as a hand-written config might be.
  const char* text = R"({
    "app": "mini", "slo_ms": 300,
    "modules": [
      {"id": 1, "name": "face_recognition", "pres": [0], "subs": []},
      {"id": 0, "name": "object_detection", "pres": [], "subs": [1]}
    ]})";
  const PipelineSpec p = PipelineSpec::FromJsonText(text);
  EXPECT_EQ(p.NumModules(), 2);
  EXPECT_EQ(p.Module(0).model, "object_detection");
  EXPECT_EQ(p.SourceModule(), 0);
}

// ---- paper apps ------------------------------------------------------------------

TEST(Apps, PaperShapes) {
  const PipelineSpec tm = MakeTrafficMonitoring();
  EXPECT_EQ(tm.NumModules(), 3);
  EXPECT_EQ(tm.slo(), MsToUs(400));
  const PipelineSpec lv = MakeLiveVideo();
  EXPECT_EQ(lv.NumModules(), 5);
  EXPECT_EQ(lv.slo(), MsToUs(500));
  const PipelineSpec gm = MakeGameAnalysis();
  EXPECT_EQ(gm.NumModules(), 5);
  EXPECT_EQ(gm.slo(), MsToUs(600));
  const PipelineSpec da = MakeDagLiveVideo();
  EXPECT_EQ(da.NumModules(), 5);
  EXPECT_EQ(da.slo(), MsToUs(420));
}

TEST(Apps, ChainsAreChains) {
  EXPECT_TRUE(MakeTrafficMonitoring().IsChain());
  EXPECT_TRUE(MakeLiveVideo().IsChain());
  EXPECT_TRUE(MakeGameAnalysis().IsChain());
  EXPECT_FALSE(MakeDagLiveVideo().IsChain());
}

TEST(Apps, DagForkAndMergeStructure) {
  const PipelineSpec da = MakeDagLiveVideo();
  EXPECT_EQ(da.Module(0).subs.size(), 2u);   // Fork at person detection.
  EXPECT_EQ(da.Module(3).pres.size(), 2u);   // Merge at expression recognition.
}

TEST(Apps, DispatchByName) {
  for (const std::string& name : AppNames()) {
    EXPECT_NO_THROW(MakeApp(name));
  }
  EXPECT_THROW(MakeApp("nope"), CheckError);
}

TEST(Apps, AllModelsRegistered) {
  for (const std::string& name : AppNames()) {
    const PipelineSpec spec = MakeApp(name);
    for (const ModuleSpec& m : spec.modules()) {
      SUCCEED();
      EXPECT_NO_THROW((void)m.model);
    }
  }
}

TEST(BackendProfile, JsonRoundTripPreservesEveryField) {
  BackendProfile t4;
  t4.name = "t4";
  t4.speed_grade = 0.5;
  t4.cold_start = 4 * kUsPerSec;
  t4.module_scale = {{"object_detection", 1.25}};
  const BackendProfile reloaded = BackendProfile::FromJson(t4.ToJson());
  EXPECT_EQ(reloaded, t4);

  BackendProfile baseline;  // Defaults: grade 1.0, inherited cold start.
  EXPECT_TRUE(baseline.IsBaseline());
  EXPECT_EQ(BackendProfile::FromJson(baseline.ToJson()), baseline);
}

TEST(BackendProfile, SpecLevelRoundTripCarriesCatalog) {
  const PipelineSpec spec = MakeHeteroLiveVideo();
  ASSERT_EQ(spec.backends().size(), 2u);
  const PipelineSpec reloaded = PipelineSpec::FromJsonText(spec.ToJson().Dump());
  ASSERT_EQ(reloaded.backends().size(), 2u);
  EXPECT_EQ(reloaded.backends()[0], spec.backends()[0]);
  EXPECT_EQ(reloaded.backends()[1], spec.backends()[1]);
  // Specs without a catalog stay catalog-free through the round trip.
  const PipelineSpec lv = MakeLiveVideo();
  EXPECT_TRUE(PipelineSpec::FromJsonText(lv.ToJson().Dump()).backends().empty());
}

TEST(BackendProfile, UnknownFieldIsRejectedNotIgnored) {
  // A typo'd field ("speed_grad") must fail the load with a clear error —
  // the same discipline bench_util.h applies to unknown PARD_BENCH_* names.
  const char* json = R"({"name": "t4", "speed_grad": 0.5})";
  try {
    BackendProfile::FromJson(ParseJson(json));
    FAIL() << "typo'd backend-profile field was silently accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("speed_grad"), std::string::npos);
  }
}

TEST(BackendProfile, SpecJsonWithUnknownBackendFieldThrows) {
  PipelineSpec spec = MakeLiveVideo();
  JsonValue doc = spec.ToJson();
  JsonObject profile;
  profile["name"] = "t4";
  profile["cold_start"] = 3.0;  // Wrong name: the schema says cold_start_ms.
  JsonArray backends;
  backends.emplace_back(std::move(profile));
  doc.AsObject()["backends"] = std::move(backends);
  EXPECT_THROW(PipelineSpec::FromJson(doc), JsonError);
}

TEST(BackendProfile, ValidationRejectsBadGradesAndUnknownModels) {
  BackendProfile bad;
  bad.speed_grade = 0.0;
  EXPECT_THROW(bad.Validate(), CheckError);
  bad.speed_grade = -1.0;
  EXPECT_THROW(bad.Validate(), CheckError);

  // module_scale keys must name models that exist in the pipeline.
  PipelineSpec lv = MakeLiveVideo();
  BackendProfile scaler;
  scaler.module_scale = {{"no_such_model", 1.5}};
  EXPECT_THROW(lv.set_backends({scaler}), CheckError);

  BackendProfile zero_scale;
  zero_scale.module_scale = {{"face_recognition", 0.0}};
  EXPECT_THROW(lv.set_backends({zero_scale}), CheckError);
}

TEST(BackendProfile, ExecScaleCombinesGradeAndModuleScale) {
  BackendProfile t4;
  t4.speed_grade = 0.5;
  t4.module_scale = {{"face_recognition", 1.25}};
  EXPECT_DOUBLE_EQ(t4.ExecScaleFor("face_recognition"), 1.25 / 0.5);
  EXPECT_DOUBLE_EQ(t4.ExecScaleFor("pose_recognition"), 2.0);
  BackendProfile baseline;
  EXPECT_DOUBLE_EQ(baseline.ExecScaleFor("anything"), 1.0);
}

TEST(BackendProfile, ParseBackendGradesBuildsCatalog) {
  const auto catalog = ParseBackendGrades("1.0, 0.5,0.25");
  ASSERT_EQ(catalog.size(), 3u);
  EXPECT_DOUBLE_EQ(catalog[0].speed_grade, 1.0);
  EXPECT_DOUBLE_EQ(catalog[1].speed_grade, 0.5);
  EXPECT_DOUBLE_EQ(catalog[2].speed_grade, 0.25);
  EXPECT_THROW(ParseBackendGrades("1.0,zero"), CheckError);
  EXPECT_THROW(ParseBackendGrades("-1"), CheckError);
  EXPECT_THROW(ParseBackendGrades(""), CheckError);
}

}  // namespace
}  // namespace pard
