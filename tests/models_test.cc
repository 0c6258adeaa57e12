#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "models/model_profile.h"
#include "models/registry.h"

namespace pard {
namespace {

TEST(ModelProfile, LinearDurations) {
  const ModelProfile p = ModelProfile::Linear("m", 1000, 500, 8);
  EXPECT_EQ(p.MaxBatch(), 8);
  EXPECT_EQ(p.BatchDuration(1), 1500);
  EXPECT_EQ(p.BatchDuration(4), 3000);
}

TEST(ModelProfile, BatchClamped) {
  const ModelProfile p = ModelProfile::Linear("m", 1000, 500, 4);
  EXPECT_EQ(p.BatchDuration(0), p.BatchDuration(1));
  EXPECT_EQ(p.BatchDuration(99), p.BatchDuration(4));
}

TEST(ModelProfile, ThroughputGrowsWithBatch) {
  const ModelProfile p = ModelProfile::Linear("m", 10000, 1000, 16);
  // Fixed cost amortizes: throughput strictly increases for a linear model.
  EXPECT_GT(p.Throughput(8), p.Throughput(1));
  EXPECT_NEAR(p.Throughput(1), 1.0 / UsToSec(11000), 1e-6);
}

TEST(ModelProfile, LargestFeasibleBatchRespectsBudget) {
  const ModelProfile p = ModelProfile::Linear("m", 10 * kUsPerMs, 2 * kUsPerMs, 32);
  // 2*d(b) <= 100ms -> d(b) <= 50ms -> 10+2b <= 50 -> b <= 20.
  EXPECT_EQ(p.LargestFeasibleBatch(100 * kUsPerMs), 20);
  // Impossible budget still returns at least 1.
  EXPECT_EQ(p.LargestFeasibleBatch(1), 1);
}

TEST(ModelProfile, RejectsEmptyOrNonPositive) {
  EXPECT_THROW(ModelProfile("m", {}), CheckError);
  EXPECT_THROW(ModelProfile("m", {0}), CheckError);
}

TEST(ModelProfile, JsonRoundTrip) {
  const ModelProfile p = ModelProfile::Linear("face_recognition", 8000, 3000, 16);
  const ModelProfile q = ModelProfile::FromJson(p.ToJson());
  EXPECT_EQ(q.name(), "face_recognition");
  EXPECT_EQ(q.MaxBatch(), 16);
  for (int b = 1; b <= 16; ++b) {
    EXPECT_EQ(q.BatchDuration(b), p.BatchDuration(b));
  }
}

TEST(ProfileRegistry, ContainsPaperModels) {
  for (const char* name :
       {"object_detection", "face_recognition", "text_recognition", "person_detection",
        "expression_recognition", "eye_tracking", "pose_recognition", "kill_count_detection",
        "alive_player_recognition", "health_value_recognition", "icon_recognition"}) {
    EXPECT_TRUE(ProfileRegistry::Contains(name)) << name;
    EXPECT_GT(ProfileRegistry::Get(name).BatchDuration(1), 0);
  }
  EXPECT_EQ(ProfileRegistry::Names().size(), 11u);
}

TEST(ProfileRegistry, UnknownModelThrows) {
  EXPECT_FALSE(ProfileRegistry::Contains("does_not_exist"));
  EXPECT_THROW(ProfileRegistry::Get("does_not_exist"), CheckError);
}

TEST(ProfileRegistry, ProfilesAreMonotoneInBatch) {
  for (const std::string& name : ProfileRegistry::Names()) {
    const ModelProfile& p = ProfileRegistry::Get(name);
    for (int b = 2; b <= p.MaxBatch(); ++b) {
      EXPECT_GE(p.BatchDuration(b), p.BatchDuration(b - 1)) << name << " batch " << b;
    }
  }
}

}  // namespace
}  // namespace pard
