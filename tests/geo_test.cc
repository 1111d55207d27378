#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "geo/latlon.h"
#include "geo/poi.h"
#include "geo/polygon.h"
#include "util/rng.h"

namespace hisrect::geo {
namespace {

TEST(LatLonTest, HaversineZeroForSamePoint) {
  LatLon p{40.75, -73.98};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(LatLonTest, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km.
  LatLon a{40.0, -74.0};
  LatLon b{41.0, -74.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111195.0, 200.0);
}

TEST(LatLonTest, HaversineSymmetric) {
  LatLon a{40.7, -74.0};
  LatLon b{36.1, -115.2};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(LatLonTest, ApproxMatchesHaversineAtCityScale) {
  util::Rng rng(4);
  LatLon center{40.75, -73.98};
  for (int i = 0; i < 200; ++i) {
    LatLon a = Offset(center, rng.Uniform(-8000, 8000), rng.Uniform(-8000, 8000));
    LatLon b = Offset(center, rng.Uniform(-8000, 8000), rng.Uniform(-8000, 8000));
    double exact = HaversineMeters(a, b);
    double approx = ApproxDistanceMeters(a, b);
    EXPECT_NEAR(approx, exact, std::max(1.0, exact * 0.01));
  }
}

TEST(LatLonTest, OffsetRoundTrip) {
  LatLon origin{40.75, -73.98};
  LatLon moved = Offset(origin, 500.0, -300.0);
  EXPECT_NEAR(HaversineMeters(origin, moved), std::sqrt(500.0 * 500 + 300 * 300),
              2.0);
  LatLon back = Offset(moved, -500.0, 300.0);
  EXPECT_NEAR(HaversineMeters(origin, back), 0.0, 1.0);
}

TEST(PolygonTest, RectangleContainsCenter) {
  LatLon center{40.75, -73.98};
  Polygon rect = Polygon::Rectangle(center, 200.0, 100.0);
  EXPECT_TRUE(rect.Contains(center));
}

TEST(PolygonTest, RectangleExcludesOutsidePoints) {
  LatLon center{40.75, -73.98};
  Polygon rect = Polygon::Rectangle(center, 200.0, 100.0);
  EXPECT_FALSE(rect.Contains(Offset(center, 150.0, 0.0)));
  EXPECT_FALSE(rect.Contains(Offset(center, 0.0, 80.0)));
  EXPECT_TRUE(rect.Contains(Offset(center, 90.0, 40.0)));
}

TEST(PolygonTest, NGonContainsInscribedAndExcludesOutside) {
  LatLon center{36.17, -115.14};
  Polygon hexagon = Polygon::RegularNGon(center, 100.0, 6);
  // Points at half the circumradius are inside for any regular n-gon.
  for (double angle = 0.0; angle < 6.28; angle += 0.5) {
    EXPECT_TRUE(hexagon.Contains(
        Offset(center, 50.0 * std::cos(angle), 50.0 * std::sin(angle))));
    EXPECT_FALSE(hexagon.Contains(
        Offset(center, 120.0 * std::cos(angle), 120.0 * std::sin(angle))));
  }
}

TEST(PolygonTest, CentroidOfSymmetricPolygonIsCenter) {
  LatLon center{40.0, -74.0};
  Polygon square = Polygon::Rectangle(center, 100.0, 100.0);
  LatLon centroid = square.Centroid();
  EXPECT_NEAR(HaversineMeters(center, centroid), 0.0, 1.0);
}

TEST(PolygonTest, BoundsCoverAllVertices) {
  Polygon ngon = Polygon::RegularNGon({40.0, -74.0}, 150.0, 7);
  const BoundingBox& bounds = ngon.bounds();
  for (const LatLon& v : ngon.vertices()) {
    EXPECT_TRUE(bounds.Contains(v));
  }
}

TEST(PolygonTest, ContainsIsConsistentWithBounds) {
  Polygon ngon = Polygon::RegularNGon({40.0, -74.0}, 150.0, 5);
  util::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    LatLon p = Offset({40.0, -74.0}, rng.Uniform(-400, 400),
                      rng.Uniform(-400, 400));
    if (ngon.Contains(p)) {
      EXPECT_TRUE(ngon.bounds().Contains(p));
    }
  }
}

class PoiSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatLon center{40.75, -73.98};
    std::vector<Poi> pois;
    for (int i = 0; i < 10; ++i) {
      Poi poi;
      poi.name = "poi" + std::to_string(i);
      poi.bounding_polygon = Polygon::RegularNGon(
          Offset(center, i * 700.0, (i % 3) * 900.0), 100.0, 6);
      pois.push_back(std::move(poi));
    }
    set_ = PoiSet(std::move(pois), 250.0);
    center_ = center;
  }

  PoiSet set_;
  LatLon center_;
};

TEST_F(PoiSetTest, AssignsDensePids) {
  ASSERT_EQ(set_.size(), 10u);
  for (size_t i = 0; i < set_.size(); ++i) {
    EXPECT_EQ(set_.poi(static_cast<PoiId>(i)).pid, static_cast<PoiId>(i));
  }
}

TEST_F(PoiSetTest, FindContainingHitsPoiCenters) {
  for (size_t i = 0; i < set_.size(); ++i) {
    auto found = set_.FindContaining(set_.poi(static_cast<PoiId>(i)).center);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, static_cast<PoiId>(i));
  }
}

TEST_F(PoiSetTest, FindContainingMissesFarPoints) {
  EXPECT_FALSE(set_.FindContaining(Offset(center_, -5000.0, -5000.0)).has_value());
}

TEST_F(PoiSetTest, FindContainingMatchesBruteForce) {
  util::Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    LatLon p = Offset(center_, rng.Uniform(-1000, 8000),
                      rng.Uniform(-1000, 3000));
    std::optional<PoiId> brute;
    for (const Poi& poi : set_.pois()) {
      if (poi.bounding_polygon.Contains(p)) {
        if (!brute.has_value() || poi.pid < *brute) brute = poi.pid;
      }
    }
    EXPECT_EQ(set_.FindContaining(p), brute);
  }
}

TEST_F(PoiSetTest, NearestMatchesBruteForce) {
  util::Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    LatLon p = Offset(center_, rng.Uniform(-2000, 9000),
                      rng.Uniform(-2000, 4000));
    PoiId best = 0;
    double best_d = ApproxDistanceMeters(p, set_.poi(0).center);
    for (size_t j = 1; j < set_.size(); ++j) {
      double d = ApproxDistanceMeters(p, set_.poi(static_cast<PoiId>(j)).center);
      if (d < best_d) {
        best_d = d;
        best = static_cast<PoiId>(j);
      }
    }
    EXPECT_EQ(set_.Nearest(p), best);
    EXPECT_DOUBLE_EQ(set_.DistanceToNearest(p), best_d);
  }
}

TEST_F(PoiSetTest, DistanceToPoiIsCenterDistance) {
  LatLon p = Offset(center_, 1234.0, 567.0);
  EXPECT_DOUBLE_EQ(set_.DistanceToPoi(p, 3),
                   ApproxDistanceMeters(p, set_.poi(3).center));
}

TEST(PoiSetEmptyTest, EmptySetBehaviour) {
  PoiSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.FindContaining({40.0, -74.0}).has_value());
  EXPECT_TRUE(std::isinf(empty.DistanceToNearest({40.0, -74.0})));
}

}  // namespace
}  // namespace hisrect::geo
