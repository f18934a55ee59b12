// Utility layer: aligned buffers, saturating arithmetic, GCUPS math,
// strict number parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/aligned_buffer.h"
#include "util/parse.h"
#include "util/saturate.h"
#include "util/stopwatch.h"

using namespace aalign::util;

namespace {

TEST(AlignedBuffer, AlignmentAndSize) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedBuffer<std::int16_t> b(n);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kVectorAlignment,
              0u);
  }
}

TEST(AlignedBuffer, ResizeKeepsCapacityNoShrink) {
  AlignedBuffer<std::int32_t> b(100);
  std::int32_t* p = b.data();
  b.resize(50);  // shrink: same allocation
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 50u);
  b.resize(100);  // regrow within capacity: same allocation
  EXPECT_EQ(b.data(), p);
}

TEST(AlignedBuffer, FillAndZero) {
  AlignedBuffer<std::int8_t> b(33);
  b.fill(7);
  for (auto v : b) EXPECT_EQ(v, 7);
  b.zero();
  for (auto v : b) EXPECT_EQ(v, 0);
}

TEST(AlignedBuffer, MoveSemantics) {
  AlignedBuffer<std::int32_t> a(10);
  a.fill(3);
  const std::int32_t* p = a.data();
  AlignedBuffer<std::int32_t> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(a.data(), nullptr);

  AlignedBuffer<std::int32_t> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c[0], 3);
}

TEST(Saturate, Int8Rails) {
  EXPECT_EQ(sat_add<std::int8_t>(100, 100), 127);
  EXPECT_EQ(sat_add<std::int8_t>(-100, -100), -128);
  EXPECT_EQ(sat_add<std::int8_t>(100, -100), 0);
  EXPECT_EQ(sat_sub<std::int8_t>(-100, 100), -128);
  EXPECT_EQ(sat_sub<std::int8_t>(100, -100), 127);
}

TEST(Saturate, Int16Rails) {
  EXPECT_EQ(sat_add<std::int16_t>(30000, 30000), 32767);
  EXPECT_EQ(sat_add<std::int16_t>(-30000, -30000), -32768);
  EXPECT_EQ(sat_sub<std::int16_t>(-30000, 30000), -32768);
}

TEST(Saturate, Int32Wraps) {
  // 32-bit is deliberately wrapping (matches _mm*_add_epi32); no UB.
  const std::int32_t max = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(sat_add<std::int32_t>(max, 1),
            std::numeric_limits<std::int32_t>::min());
}

TEST(Gcups, Math) {
  EXPECT_DOUBLE_EQ(gcups_cells(2'000'000'000, 1.0), 2.0);
  EXPECT_EQ(gcups_cells(100, 0.0), 0.0);  // no division by zero
}

TEST(ParseNumber, AcceptsTheWholeTextInRange) {
  EXPECT_EQ(parse_number<int>("0", 0, 1024), 0);
  EXPECT_EQ(parse_number<int>("1024", 0, 1024), 1024);  // bounds inclusive
  EXPECT_EQ(parse_number<int>("-5", -10, 10), -5);
  EXPECT_EQ(parse_number<std::uint16_t>("65535", 1, 65535), 65535);
  EXPECT_EQ(parse_number<std::size_t>("7", 1, 100), 7u);
  EXPECT_EQ(parse_number<std::int64_t>("3600000", 0, 3600000), 3600000);
  EXPECT_EQ(parse_number<double>("0.02", -1.0, 1.0), 0.02);
  EXPECT_EQ(parse_number<double>("-1", -1.0, 1.0), -1.0);
}

TEST(ParseNumber, RejectsOutOfRange) {
  EXPECT_FALSE(parse_number<int>("1025", 0, 1024));
  EXPECT_FALSE(parse_number<int>("-1", 0, 1024));
  // Out of the type's range, not wrapped: 70000 is no uint16_t port.
  EXPECT_FALSE(parse_number<std::uint16_t>("70000", 1, 65535));
  EXPECT_FALSE(parse_number<int>("99999999999999999999", 0, 1024));
  EXPECT_FALSE(parse_number<double>("1.5", -1.0, 1.0));
  EXPECT_FALSE(parse_number<double>("nan", -1.0, 1.0));
  EXPECT_FALSE(parse_number<double>("inf", -1.0, 1.0));
}

TEST(ParseNumber, RejectsWhatIsNotOneNumber) {
  for (const char* text : {"", "abc", "1x", "1 ", " 1", "+1", "1.5", "0x10",
                           "--1"}) {
    EXPECT_FALSE(parse_number<int>(text, -100, 100)) << "'" << text << "'";
  }
  // No '-' for an unsigned type: "-1" is not SIZE_MAX.
  EXPECT_FALSE(parse_number<std::size_t>("-1", 0, 1000000));
  EXPECT_FALSE(parse_number<double>("0.5x", -1.0, 1.0));
  EXPECT_FALSE(parse_number<double>("", -1.0, 1.0));
}

TEST(Stopwatch, Monotonic) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1;
  EXPECT_GT(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds() * 1000.0 * 0.99);
}

}  // namespace
