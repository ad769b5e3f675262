// Unit tests for src/support.
#include <gtest/gtest.h>

#include "src/support/diagnostics.h"
#include "src/support/rng.h"
#include "src/support/string_utils.h"
#include "src/support/table.h"

namespace overify {
namespace {

TEST(DiagnosticsTest, CollectsAndCountsErrors) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.HasErrors());
  diags.Warning(SourceLoc{1, 2}, "watch out");
  EXPECT_FALSE(diags.HasErrors());
  diags.Error(SourceLoc{3, 4}, "broken");
  EXPECT_TRUE(diags.HasErrors());
  EXPECT_EQ(diags.ErrorCount(), 1u);
  EXPECT_EQ(diags.Diagnostics().size(), 2u);
}

TEST(DiagnosticsTest, PrintsLocations) {
  DiagnosticEngine diags;
  diags.Error(SourceLoc{7, 12}, "bad token");
  EXPECT_EQ(diags.ToString(), "error 7:12: bad token\n");
}

TEST(DiagnosticsTest, PrintsWithoutLocationWhenUnknown) {
  DiagnosticEngine diags;
  diags.Error(SourceLoc{}, "general failure");
  EXPECT_EQ(diags.ToString(), "error: general failure\n");
}

TEST(DiagnosticsTest, ClearResets) {
  DiagnosticEngine diags;
  diags.Error(SourceLoc{1, 1}, "x");
  diags.Clear();
  EXPECT_FALSE(diags.HasErrors());
  EXPECT_TRUE(diags.Diagnostics().empty());
}

TEST(StringUtilsTest, SplitAndJoin) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings(parts, "-"), "a-b--c");
}

TEST(StringUtilsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtilsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "ok"), "42-ok");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilsTest, EscapeStringEscapesControlChars) {
  EXPECT_EQ(EscapeString(std::string("a\0b", 3)), "a\\0b");
  EXPECT_EQ(EscapeString("tab\there"), "tab\\there");
  EXPECT_EQ(EscapeString("\x01"), "\\x01");
  EXPECT_EQ(EscapeString("quote\"backslash\\"), "quote\\\"backslash\\\\");
}

TEST(StringUtilsTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5, 3), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 3), "2");
  EXPECT_EQ(FormatDouble(0.13, 2), "0.13");
  EXPECT_EQ(FormatDouble(10.0, 0), "10");
}

TEST(RngTest, DeterministicStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    int64_t r = rng.NextInRange(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "22"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTableTest, MissingCellsRenderEmpty) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"1"});
  EXPECT_EQ(table.RowCount(), 1u);
  EXPECT_NE(table.ToString().find("| 1 |   |   |"), std::string::npos);
}

TEST(TextTableTest, SeparatorInsertsRule) {
  TextTable table({"a"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  std::string out = table.ToString();
  // header rule + top/bottom + separator = 4 rules
  size_t rules = 0;
  for (size_t pos = 0; (pos = out.find("+---", pos)) != std::string::npos; ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

}  // namespace
}  // namespace overify
