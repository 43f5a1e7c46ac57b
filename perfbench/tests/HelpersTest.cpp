//===- perfbench/tests/HelpersTest.cpp - The benchmark's own helpers ------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
//
// Order statistics, the serving ladder's max-rate rule, seeded inputs and
// the span tracer — everything the benchmark computes itself rather than
// asks of the library.
//
//===----------------------------------------------------------------------===//

#include "Shapes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

using namespace perfbench;

namespace {

std::vector<double> oneTo(size_t N) {
  std::vector<double> Xs;
  for (size_t I = N; I >= 1; --I) // descending: percentile must sort
    Xs.push_back(double(I));
  return Xs;
}

RungResult rung(double Rate, double P99Us, size_t Failed = 0,
                size_t Backlog = 0) {
  RungResult R;
  R.RateRps = Rate;
  R.Sent = 1000;
  R.Failed = Failed;
  R.P99Us = P99Us;
  R.BacklogAtEnd = Backlog;
  return R;
}

} // namespace

TEST(Percentile, NearestRankOnUnsortedSample) {
  std::vector<double> Xs = oneTo(100);
  EXPECT_EQ(percentile(Xs, 0.5), 50);
  EXPECT_EQ(percentile(Xs, 0.9), 90);
  EXPECT_EQ(percentile(Xs, 0.99), 99);
  EXPECT_EQ(percentile(Xs, 1.0), 100);
  EXPECT_EQ(percentile(Xs, 0.0), 1);
  EXPECT_EQ(median(oneTo(7)), 4);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, TailHasTenSamplesBeyondIt) {
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(samplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(highestTailPercentile(19), 0.0);
  EXPECT_EQ(highestTailPercentile(20), 0.5);
  EXPECT_EQ(highestTailPercentile(100), 0.9);
  EXPECT_EQ(highestTailPercentile(199), 0.9);
  EXPECT_EQ(highestTailPercentile(200), 0.95);
  EXPECT_EQ(highestTailPercentile(1000), 0.99);
  EXPECT_EQ(highestTailPercentile(10000), 0.999);
  // Whatever the sample size, the chosen percentile has at least ten
  // samples beyond it and every higher standard percentile has fewer.
  for (size_t N = 20; N < 30000; N = N * 3 / 2) {
    double Q = highestTailPercentile(N);
    EXPECT_GE(samplesBeyond(N, Q), 10u) << N;
    for (double Higher : {0.9, 0.95, 0.99, 0.999})
      if (Higher > Q)
        EXPECT_LT(samplesBeyond(N, Higher), 10u) << N << " " << Higher;
  }
}

TEST(Percentile, GeomeanOfClassMedians) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-9);
  EXPECT_NEAR(geomean({4, 4, 4}), 4, 1e-9);
}

TEST(MaxRate, HighestPassingRungBeforeTheFirstFailure) {
  const double Limit = 10000;
  EXPECT_EQ(pickMaxRate({rung(4000, 900), rung(8000, 1500),
                         rung(16000, 80000)},
                        Limit),
            8000);
  // Order of the input does not matter; the walk is by rate.
  EXPECT_EQ(pickMaxRate({rung(16000, 80000), rung(4000, 900),
                         rung(8000, 1500)},
                        Limit),
            8000);
  // A rung that passes above a failing one never counts.
  EXPECT_EQ(pickMaxRate({rung(4000, 900), rung(8000, 20000),
                         rung(16000, 1500)},
                        Limit),
            4000);
  // Every rung passing: the top rung.
  EXPECT_EQ(pickMaxRate({rung(4000, 900), rung(8000, 1500)}, Limit), 8000);
  // The first rung failing: zero.
  EXPECT_EQ(pickMaxRate({rung(4000, 20000), rung(8000, 900)}, Limit), 0);
}

TEST(MaxRate, FailuresAndGrowingQueuesFailARung) {
  const double Limit = 10000;
  EXPECT_TRUE(rungPasses(rung(8000, 1500), Limit));
  EXPECT_TRUE(rungPasses(rung(8000, Limit), Limit));
  EXPECT_FALSE(rungPasses(rung(8000, Limit + 1), Limit));
  // One refused or failed request fails the rung (it counts as over any
  // limit).
  EXPECT_FALSE(rungPasses(rung(8000, 1500, 1), Limit));
  EXPECT_FALSE(
      rungPasses(rung(8000, std::numeric_limits<double>::infinity()), Limit));
  // Backlog: at most one limit's worth of arrivals (80 at 8000 req/s and
  // 10 ms) plus 16 may be left when the schedule ends.
  EXPECT_TRUE(rungPasses(rung(8000, 1500, 0, 96), Limit));
  EXPECT_FALSE(rungPasses(rung(8000, 1500, 0, 97), Limit));
  EXPECT_EQ(pickMaxRate({rung(4000, 900), rung(8000, 1500, 0, 500)}, Limit),
            4000);
}

TEST(SeededInputs, SameSeedSameInputs) {
  EXPECT_EQ(streamSeed(7, "a"), streamSeed(7, "a"));
  EXPECT_NE(streamSeed(7, "a"), streamSeed(8, "a"));
  EXPECT_NE(streamSeed(7, "a"), streamSeed(7, "b"));

  auto S1 = makeServeSchedule(42, 5000, ServePoolSize);
  auto S2 = makeServeSchedule(42, 5000, ServePoolSize);
  auto S3 = makeServeSchedule(43, 5000, ServePoolSize);
  size_t Same = 0, Diff = 0;
  for (size_t I = 0; I < S1.size(); ++I) {
    EXPECT_EQ(S1[I].Class, S2[I].Class);
    EXPECT_EQ(S1[I].Input, S2[I].Input);
    EXPECT_LT(S1[I].Input, ServePoolSize);
    (S1[I].Class == S3[I].Class && S1[I].Input == S3[I].Input ? Same
                                                              : Diff)++;
  }
  EXPECT_GT(Diff, Same);

  EXPECT_EQ(makeFheMessages(5, 64, 65537), makeFheMessages(5, 64, 65537));
  EXPECT_NE(makeFheMessages(5, 64, 65537), makeFheMessages(6, 64, 65537));

  ZkpInputs A = makeZkpInputs(9, 256), B = makeZkpInputs(9, 256),
            C = makeZkpInputs(10, 256);
  EXPECT_EQ(A.X0, B.X0);
  EXPECT_EQ(A.A, B.A);
  EXPECT_EQ(A.Scalar, B.Scalar);
  EXPECT_NE(A.X0, C.X0);
  EXPECT_NE(A.Y0, C.Y0);
}

TEST(SeededInputs, ServeMixAndRanges) {
  auto S = makeServeSchedule(1, 20000, ServePoolSize);
  size_t Count[NumServeClasses] = {};
  for (const ServeReq &Q : S)
    ++Count[static_cast<unsigned>(Q.Class)];
  EXPECT_NEAR(Count[0] / 20000.0, 0.7, 0.02);
  EXPECT_NEAR(Count[1] / 20000.0, 0.2, 0.02);
  EXPECT_NEAR(Count[2] / 20000.0, 0.1, 0.02);

  moma::Rng R(3);
  moma::mw::Bignum Q = serveShape(ServeClass::VMul384).Q;
  unsigned K = moma::runtime::Dispatcher::elemWords(Q);
  std::vector<std::uint64_t> E = randomElems(R, Q, 200);
  ASSERT_EQ(E.size(), 200u * K);
  for (size_t I = 0; I < 200; ++I)
    EXPECT_LT(moma::runtime::unpackWordsMsbFirst(E.data() + I * K, K), Q);
}

TEST(Tracer, SpansNestAndLoadAsChromeTrace) {
  Tracer T(true);
  {
    Tracer::Scope Outer(T, "outer", 7);
    Tracer::Scope Inner(T, "inner", 7);
  }
  T.counter("depth", 3);
  EXPECT_EQ(T.numSpans(), 2u);
  std::string Path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(T.writeChromeJson(Path));
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Json = SS.str();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(Json.find("\"parent\":0"), std::string::npos);
  EXPECT_NE(Json.find("\"req\":7"), std::string::npos);
  std::remove(Path.c_str());

  Tracer Off(false);
  {
    Tracer::Scope S(Off, "ignored");
  }
  EXPECT_EQ(Off.numSpans(), 0u);
}
