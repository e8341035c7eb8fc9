// Tests for the provenance vocabulary: records, values, bundles, wire
// encoding, hashing.

#include <gtest/gtest.h>

#include "src/core/provenance.h"

namespace pass::core {
namespace {

TEST(ObjectRefTest, OrderingAndEquality) {
  ObjectRef a{1, 0};
  ObjectRef b{1, 1};
  ObjectRef c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ObjectRef{1, 0}));
  EXPECT_FALSE(ObjectRef{}.valid());
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.ToString(), "p1.v0");
}

TEST(RecordTest, Factories) {
  Record input = Record::Input(ObjectRef{7, 3});
  EXPECT_EQ(input.attr, Attr::kInput);
  EXPECT_EQ(std::get<ObjectRef>(input.value), (ObjectRef{7, 3}));

  Record name = Record::Name("/etc/passwd");
  EXPECT_EQ(name.attr, Attr::kName);
  EXPECT_EQ(name.ToString(), "NAME=/etc/passwd");

  Record annotation = Record::Annotation("mime", std::string("image/gif"));
  EXPECT_EQ(annotation.ToString(), "mime=image/gif");
}

TEST(RecordTest, AttrNamesMatchTable1) {
  // Table 1 of the paper.
  EXPECT_EQ(AttrName(Attr::kBeginTxn), "BEGINTXN");
  EXPECT_EQ(AttrName(Attr::kEndTxn), "ENDTXN");
  EXPECT_EQ(AttrName(Attr::kFreeze), "FREEZE");
  EXPECT_EQ(AttrName(Attr::kType), "TYPE");
  EXPECT_EQ(AttrName(Attr::kName), "NAME");
  EXPECT_EQ(AttrName(Attr::kParams), "PARAMS");
  EXPECT_EQ(AttrName(Attr::kInput), "INPUT");
  EXPECT_EQ(AttrName(Attr::kVisitedUrl), "VISITED_URL");
  EXPECT_EQ(AttrName(Attr::kFileUrl), "FILE_URL");
  EXPECT_EQ(AttrName(Attr::kCurrentUrl), "CURRENT_URL");
}

class RecordRoundTrip : public ::testing::TestWithParam<Record> {};

TEST_P(RecordRoundTrip, EncodeDecode) {
  const Record& record = GetParam();
  std::string buf;
  EncodeRecord(&buf, record);
  Decoder in(buf);
  auto decoded = DecodeRecord(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
  EXPECT_TRUE(in.done());
  EXPECT_EQ(EncodedSize(record), buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllValueKinds, RecordRoundTrip,
    ::testing::Values(
        Record::Input(ObjectRef{42, 7}),
        Record::Name("/a/b/c"),
        Record::Type("PROC"),
        Record::Of(Attr::kPid, int64_t{12345}),
        Record::Of(Attr::kFreeze, int64_t{3}),
        Record::Annotation("temperature", 98.6),
        Record::Annotation("flag", true),
        Record::Annotation("nothing", Value{}),
        Record::Of(Attr::kVisitedUrl, std::string("http://example.com/a")),
        Record::Annotation("", std::string(10000, 'x'))));

TEST(RecordCodecTest, DecodeRejectsBadTag) {
  std::string buf;
  EncodeRecord(&buf, Record::Name("x"));
  buf[buf.size() - 2 - 4] = 99;  // clobber the value tag
  Decoder in(buf);
  auto decoded = DecodeRecord(&in);
  // Either a bad-tag error or trailing garbage; must not crash or succeed
  // with the original value intact.
  if (decoded.ok()) {
    EXPECT_NE(*decoded, Record::Name("x"));
  }
}

TEST(BundleTest, EncodeDecodeRoundTrip) {
  Bundle bundle;
  bundle.push_back(BundleEntry{
      ObjectRef{1, 0},
      {Record::Name("/f"), Record::Input(ObjectRef{2, 1})}});
  bundle.push_back(BundleEntry{ObjectRef{2, 1}, {Record::Type("PROC")}});

  std::string buf;
  EncodeBundle(&buf, bundle);
  Decoder in(buf);
  auto decoded = DecodeBundle(&in);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].target, (ObjectRef{1, 0}));
  EXPECT_EQ((*decoded)[0].records.size(), 2u);
  EXPECT_EQ((*decoded)[1].records[0], Record::Type("PROC"));
}

// A corrupt entry count must not turn into a huge allocation: the decoder
// rejects the truncated input instead of throwing std::bad_alloc.
TEST(BundleTest, DecodeRejectsHugeCountWithoutAllocating) {
  const std::string buf = "\xFF\xFF\xFF\xFF";
  Decoder in(buf);
  Result<Bundle> decoded = Bundle{};
  EXPECT_NO_THROW(decoded = DecodeBundle(&in));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), Code::kCorrupt);
}

TEST(BundleTest, AppendCoalescesConsecutiveSubjects) {
  Bundle bundle;
  AppendToBundle(&bundle, ObjectRef{1, 0}, Record::Name("/a"));
  AppendToBundle(&bundle, ObjectRef{1, 0}, Record::Type("FILE"));
  AppendToBundle(&bundle, ObjectRef{2, 0}, Record::Type("PROC"));
  AppendToBundle(&bundle, ObjectRef{1, 0}, Record::Name("/b"));
  ASSERT_EQ(bundle.size(), 3u);
  EXPECT_EQ(bundle[0].records.size(), 2u);
  EXPECT_EQ(BundleRecordCount(bundle), 4u);
}

TEST(RecordHashTest, EqualRecordsHashEqual) {
  EXPECT_EQ(RecordHash(Record::Name("/x")), RecordHash(Record::Name("/x")));
  EXPECT_EQ(RecordHash(Record::Input(ObjectRef{3, 1})),
            RecordHash(Record::Input(ObjectRef{3, 1})));
}

TEST(RecordHashTest, DistinguishesValueAndAttr) {
  EXPECT_NE(RecordHash(Record::Name("/x")), RecordHash(Record::Name("/y")));
  EXPECT_NE(RecordHash(Record::Name("/x")), RecordHash(Record::Type("/x")));
  EXPECT_NE(RecordHash(Record::Input(ObjectRef{3, 1})),
            RecordHash(Record::Input(ObjectRef{3, 2})));
  EXPECT_NE(RecordHash(Record::Annotation("k", int64_t{1})),
            RecordHash(Record::Annotation("k", true)));
}

}  // namespace
}  // namespace pass::core
