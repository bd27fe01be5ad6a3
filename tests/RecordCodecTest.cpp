//===- RecordCodecTest.cpp - Durable record syntax tests -----------------===//

#include "src/search/PersistentEvalCache.h"
#include "src/search/PointCodec.h"
#include "src/search/RecordCodec.h"
#include "src/service/TaskQueue.h"

#include <gtest/gtest.h>

#include <cmath>

namespace locus {
namespace {

using namespace search;

std::vector<std::string> readAll(std::string_view Payload, size_t N) {
  RecordReader In(Payload);
  std::vector<std::string> Out(N);
  for (std::string &F : Out)
    In.text(F, "f");
  EXPECT_TRUE(In.finish().ok()) << In.finish().message();
  return Out;
}

Status readId(std::string_view Field) {
  uint64_t V = 0;
  return RecordReader(Field).id(V, "id").finish();
}

Status readHex(std::string_view Field) {
  uint64_t V = 0;
  return RecordReader(Field).hex(V, "digest").finish();
}

Status readVerdict(std::string_view Payload) {
  EvalOutcome O;
  return RecordReader(Payload).verdict(O).finish();
}

Status readTexts(std::string_view Payload,
                 std::initializer_list<const char *> Names) {
  RecordReader In(Payload);
  std::string F;
  for (const char *Name : Names)
    In.text(F, Name);
  return In.finish();
}

//===----------------------------------------------------------------------===//
// Field grammar
//===----------------------------------------------------------------------===//

TEST(RecordCodec, AwkwardFieldsRoundTrip) {
  const std::vector<std::string> Fields = {
      "tab\there", "line\nbreak", "back\\slash", "carriage\rreturn", "",
      "\\t literal", "trailing\\"};
  RecordWriter W;
  for (const std::string &F : Fields)
    W.text(F);
  std::string Payload = W.take();
  EXPECT_EQ(Payload.find('\n'), std::string::npos) << "one record, one line";
  EXPECT_EQ(readAll(Payload, Fields.size()), Fields);
}

TEST(RecordCodec, EmptyPayloadIsOneEmptyField) {
  EXPECT_EQ(readAll("", 1), std::vector<std::string>{""});
  EXPECT_EQ(readAll("\t", 2), (std::vector<std::string>{"", ""}));
}

TEST(RecordCodec, UnknownAndTrailingEscapesAreRefused) {
  Status S = readTexts("a\\qb", {"f"});
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("field 1 has an unknown or unterminated escape "
                            "at byte 1"),
            std::string::npos)
      << S.message();

  S = readTexts("ab\\", {"f"});
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("escape at byte 2"), std::string::npos)
      << S.message();
}

TEST(RecordCodec, WrongFieldCountIsRefused) {
  Status S = readTexts("a", {"first", "second"});
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("missing field 2 (second)"), std::string::npos)
      << S.message();

  EXPECT_FALSE(readTexts("a\tb\tc", {"first"}).ok());
}

//===----------------------------------------------------------------------===//
// Numbers
//===----------------------------------------------------------------------===//

TEST(RecordCodec, IdsAreStrictDecimal) {
  EXPECT_TRUE(readId("0").ok());
  EXPECT_TRUE(readId("18446744073709551615").ok());
  for (const char *Bad :
       {"-1", "+1", " 1", "1 ", "1e3", "0x10", "", "18446744073709551616"}) {
    Status S = readId(Bad);
    EXPECT_FALSE(S.ok()) << "accepted id '" << Bad << "'";
    if (!S.ok()) {
      EXPECT_NE(S.message().find("field 1 (id)"), std::string::npos)
          << S.message();
    }
  }
}

TEST(RecordCodec, DigestsAreExactlySixteenHexDigits) {
  EXPECT_TRUE(readHex("0123456789abcdef").ok());
  EXPECT_FALSE(readHex("123456789abcdef").ok());   // 15 digits
  EXPECT_FALSE(readHex("00123456789abcdef").ok()); // 17 digits
  EXPECT_FALSE(readHex("0123456789abcdeg").ok());
  EXPECT_FALSE(readHex("-123456789abcdef").ok());
}

TEST(RecordCodec, VerdictsRoundTripAndRefuseNonFiniteMetrics) {
  for (double M : {0.0, 1.0, 12345.6789012345678, 1e-300, 0.1}) {
    EvalOutcome O;
    ASSERT_TRUE(RecordReader(RecordWriter().verdict(EvalOutcome::success(M))
                                 .take())
                    .verdict(O)
                    .finish()
                    .ok());
    EXPECT_TRUE(O.ok());
    EXPECT_EQ(O.Metric, M);
  }
  std::string Failed =
      RecordWriter()
          .outcome(EvalOutcome::fail(FailureKind::RuntimeTrap, "trap\nat pc 4"))
          .take();
  EvalOutcome O;
  ASSERT_TRUE(RecordReader(Failed).outcome(O).finish().ok());
  EXPECT_EQ(O.Failure, FailureKind::RuntimeTrap);
  EXPECT_TRUE(std::isinf(O.Metric));
  EXPECT_EQ(O.Detail, "trap\nat pc 4");

  for (const char *Bad : {"None\tnan", "None\tinf", "None\t-inf",
                          "None\t1e999", "None\t", "None\t1x", "Nope\t1",
                          "none\t1"})
    EXPECT_FALSE(readVerdict(Bad).ok()) << "accepted verdict '" << Bad << "'";
}

TEST(RecordCodec, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(formatDouble(0.125), "0.125");
  EXPECT_EQ(formatDouble(2), "2");
  EXPECT_EQ(formatDouble(0.1), "0.1");
  for (double V : {0.12345671, 0.12345674, 1.0 / 3, 6.02214076e23, -2.5e-8})
    EXPECT_EQ(std::stod(formatDouble(V)), V) << formatDouble(V);
}

//===----------------------------------------------------------------------===//
// Run header
//===----------------------------------------------------------------------===//

TEST(RecordCodec, RunHeaderRoundTripsAndRefusesOtherVersions) {
  RunHeader H{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  std::string Payload = encodeRunHeader("locus-journal v3", H);
  auto Back = readRunHeader(Payload, "locus-journal v3", "journal", "j.rlog");
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_TRUE(*Back == H);

  // The first header format ended in a newline under the v2 tag.
  auto Old = readRunHeader(
      "locus-journal v2\nspace=0123456789abcdef\nconfig=fedcba9876543210\n",
      "locus-journal v3", "journal", "j.rlog");
  ASSERT_FALSE(Old.ok());
  EXPECT_NE(Old.message().find("journal j.rlog: header at byte 16"),
            std::string::npos)
      << Old.message();
  EXPECT_NE(Old.message().find("incompatible version"), std::string::npos);

  for (const char *Bad :
       {"", "locus-journal v3", "locus-journal v3\nspace=0\nconfig=0",
        "locus-journal v3\nspace=0123456789abcdef\nconfig=fedcba9876543210\n",
        "locus-journal v3\nconfig=fedcba9876543210\nspace=0123456789abcdef"})
    EXPECT_FALSE(readRunHeader(Bad, "locus-journal v3", "journal", "j").ok())
        << Bad;
}

TEST(RecordCodec, HeaderOfAnotherRunIsALocatedRefusal) {
  RunHeader OnDisk{1, 2};
  std::string Payload = encodeRunHeader("locus-queue v2", OnDisk);
  RunHeader Space{3, 2}, Config{1, 4};
  auto S = readRunHeader(Payload, "locus-queue v2", "queue", "q", &Space);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("different search space"), std::string::npos);
  EXPECT_NE(S.message().find("byte 16"), std::string::npos);
  EXPECT_NE(S.message().find("foreign"), std::string::npos);
  auto C = readRunHeader(Payload, "locus-queue v2", "queue", "q", &Config);
  ASSERT_FALSE(C.ok());
  EXPECT_NE(C.message().find("different search configuration"),
            std::string::npos);
  EXPECT_TRUE(
      readRunHeader(Payload, "locus-queue v2", "queue", "q", &OnDisk).ok());
}

//===----------------------------------------------------------------------===//
// The stores' records
//===----------------------------------------------------------------------===//

TEST(RecordCodec, QueueRecordsRefuseWhatTheSpaceGrammarAccepted) {
  // The space-separated grammar read "-1" as id 2^64-1 and "nan" as a
  // successful metric.
  EXPECT_FALSE(service::parseQueueRecord("lease\t-1\t0\tw").ok());
  EXPECT_FALSE(service::parseQueueRecord("result\t1\t0\tw\tNone\tnan\t").ok());
  auto Ok = service::parseQueueRecord("result\t1\t0\tw 1\tNone\t2.5\t");
  ASSERT_TRUE(Ok.ok()) << Ok.message();
  EXPECT_EQ(Ok->Worker, "w 1");
  EXPECT_EQ(Ok->Out.Metric, 2.5);
}

TEST(RecordCodec, EvalCacheEntriesOfTheFirstWriterStillDecode) {
  // Entries exactly as the first locus-evalcache v1 writer produced them
  // (printf "%016llx" keys, "%.17g" metrics, the same three escapes).
  CacheKey K;
  std::string PointKey;
  EvalOutcome O;
  ASSERT_TRUE(PersistentEvalCache::decodeEntry(
      "0123456789abcdef\tfedcba9876543210\tNone\t12345.678901234567\t"
      "p=1\\tq=2\t",
      K, PointKey, O));
  EXPECT_EQ(K.Lo, 0x0123456789abcdefULL);
  EXPECT_EQ(K.Hi, 0xfedcba9876543210ULL);
  EXPECT_EQ(PointKey, "p=1\tq=2");
  EXPECT_TRUE(O.ok());
  EXPECT_EQ(O.Metric, 12345.6789012345678);

  ASSERT_TRUE(PersistentEvalCache::decodeEntry(
      "0123456789abcdef\tfedcba9876543210\tRuntimeTrap\t0\tp\t"
      "killed by\\nSIGSEGV\\tat pc=0",
      K, PointKey, O));
  EXPECT_EQ(O.Failure, FailureKind::RuntimeTrap);
  EXPECT_TRUE(std::isinf(O.Metric));
  EXPECT_EQ(O.Detail, "killed by\nSIGSEGV\tat pc=0");
}

//===----------------------------------------------------------------------===//
// Exact float points
//===----------------------------------------------------------------------===//

TEST(RecordCodec, FloatPointsRoundTripExactly) {
  Point P;
  P.set("f", 0.12345671);
  P.set("g", 1.0 / 3);
  auto Back = deserializePoint(serializePoint(P), Space());
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->getFloat("f"), 0.12345671);
  EXPECT_EQ(Back->getFloat("g"), 1.0 / 3);
  EXPECT_EQ(Back->key(), P.key());
  // Text written at six significant digits still reads.
  auto Old = deserializePoint("f = f:0.123457\n", Space());
  ASSERT_TRUE(Old.ok());
  EXPECT_EQ(Old->getFloat("f"), 0.123457);
}

TEST(RecordCodec, NearbyFloatPointsHaveDistinctKeys) {
  Point A, B;
  A.set("f", 0.12345671);
  B.set("f", 0.12345674);
  EXPECT_NE(A.key(), B.key());
  EXPECT_NE(serializePoint(A), serializePoint(B));
}

} // namespace
} // namespace locus
