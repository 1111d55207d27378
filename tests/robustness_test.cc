// Edge cases and failure injection across module boundaries: degenerate
// inputs that a production deployment would eventually see.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/hisrect_model.h"
#include "core/judge_trainer.h"
#include "data/dataset_builder.h"
#include "eval/group_patterns.h"
#include "tests/test_common.h"

namespace hisrect {
namespace {

using hisrect::testing::MakeProfile;
using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

class RobustnessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TinyDataset());
    text_model_ = new core::TextModel(TinyTextModel(*dataset_));
    core::HisRectModelConfig config;
    config.featurizer.hidden_dim = 6;
    config.featurizer.feature_dim = 12;
    config.ssl.steps = 120;
    config.judge_trainer.steps = 120;
    model_ = new core::HisRectModel(config);
    model_->Fit(*dataset_, *text_model_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete text_model_;
    delete dataset_;
  }

  static data::Dataset* dataset_;
  static core::TextModel* text_model_;
  static core::HisRectModel* model_;
};

data::Dataset* RobustnessFixture::dataset_ = nullptr;
core::TextModel* RobustnessFixture::text_model_ = nullptr;
core::HisRectModel* RobustnessFixture::model_ = nullptr;

TEST_F(RobustnessFixture, VeryLongTweet) {
  data::Profile profile = dataset_->test.profiles[0];
  std::string huge;
  for (int i = 0; i < 500; ++i) huge += "w" + std::to_string(i % 60) + " ";
  profile.tweet.content = huge;
  double score = model_->ScorePair(profile, dataset_->test.profiles[1]);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST_F(RobustnessFixture, StopwordOnlyTweet) {
  data::Profile profile = dataset_->test.profiles[0];
  profile.tweet.content = "the of and to in is it";
  double score = model_->ScorePair(profile, dataset_->test.profiles[1]);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST_F(RobustnessFixture, UnicodeAndPunctuationGarbage) {
  data::Profile profile = dataset_->test.profiles[0];
  profile.tweet.content = "\xF0\x9F\x98\x80!!! ###   ,,,;;; \t\n";
  EXPECT_NO_FATAL_FAILURE(
      (void)model_->ScorePair(profile, dataset_->test.profiles[1]));
}

TEST_F(RobustnessFixture, VisitsFarOutsideCity) {
  data::Profile profile = dataset_->test.profiles[0];
  profile.visit_history.push_back(
      data::Visit{0, geo::LatLon{-45.0, 170.0}});  // Antipodes-ish.
  double score = model_->ScorePair(profile, dataset_->test.profiles[1]);
  EXPECT_FALSE(std::isnan(score));
}

TEST_F(RobustnessFixture, HugeVisitHistory) {
  data::Profile profile = dataset_->test.profiles[0];
  for (int i = 0; i < 2000; ++i) {
    profile.visit_history.push_back(
        data::Visit{i, dataset_->pois.poi(0).center});
  }
  auto ranked = model_->InferPoi(profile, 3);
  EXPECT_EQ(ranked.size(), 3u);
}

TEST_F(RobustnessFixture, FutureVisitTimestampsClamped) {
  // Defensive: visits "after" the tweet (bad upstream data) must not yield
  // negative ages / NaNs.
  data::Profile profile = dataset_->test.profiles[0];
  profile.visit_history.push_back(
      data::Visit{profile.tweet.ts + 100000, dataset_->pois.poi(0).center});
  EXPECT_FALSE(std::isnan(
      model_->ScorePair(profile, dataset_->test.profiles[1])));
}

TEST(RobustnessDataTest, OverlappingPoisResolveDeterministically) {
  geo::LatLon center{40.0, -74.0};
  std::vector<geo::Poi> pois;
  for (int i = 0; i < 3; ++i) {
    geo::Poi poi;
    poi.name = "overlap" + std::to_string(i);
    poi.bounding_polygon = geo::Polygon::RegularNGon(center, 100.0, 6);
    pois.push_back(std::move(poi));
  }
  geo::PoiSet set(std::move(pois));
  auto found = set.FindContaining(center);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 0);  // Lowest pid wins.
}

TEST(RobustnessDataTest, TinyDeltaTYieldsNoPairs) {
  data::Dataset tiny = TinyDataset();
  auto pairs = data::BuildPairs(tiny.train.profiles, /*delta_t=*/1, true);
  // With 1-second windows and second-granularity timestamps, pairs require
  // exact-collision timestamps from different users — effectively none.
  EXPECT_LT(pairs.size(), tiny.train.positive_pairs.size() +
                              tiny.train.negative_pairs.size());
}

TEST(RobustnessDataTest, KeepTimelinesWithoutPoiTweets) {
  data::City city = data::GenerateCity(hisrect::testing::TinyCityConfig(), 3);
  data::BuilderOptions drop;
  drop.drop_timelines_without_poi_tweet = true;
  data::BuilderOptions keep;
  keep.drop_timelines_without_poi_tweet = false;
  data::Dataset dropped = data::BuildDataset(city, drop, 1);
  data::Dataset kept = data::BuildDataset(city, keep, 1);
  size_t dropped_total = dropped.train.num_timelines +
                         dropped.validation.num_timelines +
                         dropped.test.num_timelines;
  size_t kept_total = kept.train.num_timelines +
                      kept.validation.num_timelines + kept.test.num_timelines;
  EXPECT_GE(kept_total, dropped_total);
  EXPECT_EQ(kept_total, city.timelines.size());
}

TEST(RobustnessDataTest, LargerDeltaTMonotonicallyMorePairs) {
  data::City city = data::GenerateCity(hisrect::testing::TinyCityConfig(), 5);
  std::vector<data::Profile> profiles;
  for (const auto& timeline : city.timelines) {
    auto p = data::BuildProfiles(timeline, city.pois);
    profiles.insert(profiles.end(), p.begin(), p.end());
  }
  size_t previous = 0;
  for (data::Timestamp delta_t : {600, 1800, 3600, 7200}) {
    size_t count = data::BuildPairs(profiles, delta_t, true).size();
    EXPECT_GE(count, previous);
    previous = count;
  }
}

TEST(RobustnessEvalTest, GroupSamplingOnSparseSplit) {
  // Fewer than 5 labeled profiles in total: every pattern is unsatisfiable.
  data::DataSplit split;
  geo::LatLon center{40.0, -74.0};
  for (int i = 0; i < 3; ++i) {
    split.profiles.push_back(MakeProfile(i, i * 10, center, 0));
    split.labeled_indices.push_back(i);
  }
  util::Rng rng(1);
  for (const eval::GroupPattern& pattern : eval::StandardGroupPatterns()) {
    EXPECT_FALSE(eval::SampleGroup(split, pattern, 3600, rng, 20).has_value())
        << pattern.name;
  }
}

TEST(RobustnessEvalTest, GroupAccuracyWithNoSamplableGroups) {
  data::DataSplit empty;
  util::Rng rng(1);
  size_t sampled = 999;
  double accuracy = eval::GroupPatternAccuracy(
      empty, {"3-2", {3, 2}}, 3600,
      [](const data::Profile&, const data::Profile&) { return 1.0; }, 5, rng,
      &sampled);
  EXPECT_EQ(sampled, 0u);
  EXPECT_EQ(accuracy, 0.0);
}

TEST(RobustnessTrainerTest, JudgeTrainerRequiresLabeledPairs) {
  data::Dataset dataset = TinyDataset();
  core::TextModel text_model = TinyTextModel(dataset);
  core::ProfileEncoder encoder(&dataset.pois, &text_model);
  util::Rng rng(1);
  core::FeaturizerConfig config;
  config.hidden_dim = 4;
  config.feature_dim = 8;
  core::HisRectFeaturizer featurizer(config, dataset.pois.size(),
                                     text_model.embeddings.get(), rng);
  core::JudgeHead judge(8, 4, 2, 2, rng);
  core::JudgeTrainerOptions options;
  options.steps = 1;
  core::JudgeTrainer trainer(&featurizer, &judge, options);

  data::DataSplit empty;
  empty.profiles = dataset.train.profiles;  // Profiles but no pairs.
  std::vector<core::EncodedProfile> encoded =
      encoder.EncodeAll(empty.profiles);
  EXPECT_DEATH(trainer.Train(encoded, empty, rng), "labeled pairs");
}

}  // namespace
}  // namespace hisrect
