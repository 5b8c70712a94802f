// Lexer unit tests: token classes, time literals, C blocks, operators.
#include <gtest/gtest.h>

#include "lexer/lexer.hpp"

namespace ceu {
namespace {

std::vector<Token> lex_ok(const std::string& text) {
    Diagnostics diags;
    SourceFile src("<test>", text);
    auto toks = lex(src, diags);
    EXPECT_TRUE(diags.ok()) << diags.str();
    return toks;
}

TEST(Lexer, EmptyInputYieldsEof) {
    auto t = lex_ok("");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].kind, Tok::Eof);
}

TEST(Lexer, IdentifierClasses) {
    auto t = lex_ok("Restart changed _printf");
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].kind, Tok::IdExt);
    EXPECT_EQ(t[0].text, "Restart");
    EXPECT_EQ(t[1].kind, Tok::IdInt);
    EXPECT_EQ(t[1].text, "changed");
    EXPECT_EQ(t[2].kind, Tok::IdC);
    EXPECT_EQ(t[2].text, "printf");  // underscore stripped (paper §2.4)
}

TEST(Lexer, Keywords) {
    auto t = lex_ok("input do end par with loop break await emit if then else "
                    "forever async return pure deterministic nothing sizeof null");
    std::vector<Tok> kinds;
    for (const auto& tok : t) kinds.push_back(tok.kind);
    EXPECT_EQ(kinds[0], Tok::KwInput);
    EXPECT_EQ(kinds[1], Tok::KwDo);
    EXPECT_EQ(kinds[2], Tok::KwEnd);
    EXPECT_EQ(kinds[3], Tok::KwPar);
    EXPECT_EQ(kinds[4], Tok::KwWith);
    EXPECT_EQ(kinds[5], Tok::KwLoop);
    EXPECT_EQ(kinds[6], Tok::KwBreak);
    EXPECT_EQ(kinds[7], Tok::KwAwait);
    EXPECT_EQ(kinds[8], Tok::KwEmit);
    EXPECT_EQ(kinds[9], Tok::KwIf);
    EXPECT_EQ(kinds[10], Tok::KwThen);
    EXPECT_EQ(kinds[11], Tok::KwElse);
    EXPECT_EQ(kinds[12], Tok::KwForever);
    EXPECT_EQ(kinds[13], Tok::KwAsync);
    EXPECT_EQ(kinds[14], Tok::KwReturn);
    EXPECT_EQ(kinds[15], Tok::KwPure);
    EXPECT_EQ(kinds[16], Tok::KwDeterministic);
    EXPECT_EQ(kinds[17], Tok::KwNothing);
    EXPECT_EQ(kinds[18], Tok::KwSizeof);
    EXPECT_EQ(kinds[19], Tok::KwNull);
}

TEST(Lexer, ParSlashVariants) {
    auto t = lex_ok("par par/or par/and");
    EXPECT_EQ(t[0].kind, Tok::KwPar);
    EXPECT_EQ(t[1].kind, Tok::KwParOr);
    EXPECT_EQ(t[2].kind, Tok::KwParAnd);
}

TEST(Lexer, ParFollowedByDivisionIsNotAKeyword) {
    auto t = lex_ok("par / x");
    EXPECT_EQ(t[0].kind, Tok::KwPar);
    EXPECT_EQ(t[1].kind, Tok::Slash);
    EXPECT_EQ(t[2].kind, Tok::IdInt);
}

TEST(Lexer, Numbers) {
    auto t = lex_ok("0 42 1000000");
    EXPECT_EQ(t[0].num, 0);
    EXPECT_EQ(t[1].num, 42);
    EXPECT_EQ(t[2].num, 1000000);
}

TEST(Lexer, HexNumbers) {
    auto t = lex_ok("0x10 0xff");
    EXPECT_EQ(t[0].num, 16);
    EXPECT_EQ(t[1].num, 255);
}

TEST(Lexer, CharLiterals) {
    auto t = lex_ok("'#' '\\n' 'A'");
    EXPECT_EQ(t[0].num, '#');
    EXPECT_EQ(t[1].num, '\n');
    EXPECT_EQ(t[2].num, 'A');
}

struct TimeCase {
    const char* text;
    Micros expected;
};

// Without this gtest prints the case's raw bytes, pointer included, and
// ctest takes its test names from that print: they would differ per run.
void PrintTo(const TimeCase& c, std::ostream* os) { *os << c.text; }

class LexerTimeLiterals : public ::testing::TestWithParam<TimeCase> {};

TEST_P(LexerTimeLiterals, ParsesToMicroseconds) {
    auto t = lex_ok(GetParam().text);
    ASSERT_EQ(t[0].kind, Tok::Time) << GetParam().text;
    EXPECT_EQ(t[0].num, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllUnits, LexerTimeLiterals,
    ::testing::Values(TimeCase{"10us", 10}, TimeCase{"1ms", 1000},
                      TimeCase{"500ms", 500 * kMs}, TimeCase{"1s", kSec},
                      TimeCase{"10min", 10 * kMin}, TimeCase{"1h", kHour},
                      TimeCase{"1h35min", kHour + 35 * kMin},
                      TimeCase{"1h35min30s", kHour + 35 * kMin + 30 * kSec},
                      TimeCase{"2s500ms", 2 * kSec + 500 * kMs},
                      TimeCase{"1min1s1ms1us", kMin + kSec + kMs + 1}));

TEST(Lexer, MalformedTimeLiteralIsAnError) {
    Diagnostics diags;
    SourceFile src("<test>", "10xyz");
    (void)lex(src, diags);
    EXPECT_FALSE(diags.ok());
    EXPECT_TRUE(diags.contains("malformed numeric or time literal"));
}

TEST(Lexer, Strings) {
    auto t = lex_ok("\"v = %d\\n\"");
    ASSERT_EQ(t[0].kind, Tok::Str);
    EXPECT_EQ(t[0].text, "v = %d\n");
}

TEST(Lexer, UnterminatedStringIsAnError) {
    Diagnostics diags;
    SourceFile src("<test>", "\"oops");
    (void)lex(src, diags);
    EXPECT_FALSE(diags.ok());
}

TEST(Lexer, Operators) {
    auto t = lex_ok("|| && | ^ & != == <= >= < > << >> + - * / % . -> ! ~ = ( ) [ ] , ;");
    std::vector<Tok> expect = {
        Tok::OrOr, Tok::AndAnd, Tok::Or,  Tok::Xor,    Tok::And,    Tok::Ne,
        Tok::EqEq, Tok::Le,     Tok::Ge,  Tok::Lt,     Tok::Gt,     Tok::Shl,
        Tok::Shr,  Tok::Plus,   Tok::Minus, Tok::Star, Tok::Slash,  Tok::Percent,
        Tok::Dot,  Tok::Arrow,  Tok::Not, Tok::Tilde,  Tok::Assign, Tok::LParen,
        Tok::RParen, Tok::LBrack, Tok::RBrack, Tok::Comma, Tok::Semi};
    ASSERT_GE(t.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(t[i].kind, expect[i]) << i;
}

TEST(Lexer, LineAndBlockComments) {
    auto t = lex_ok("a // comment\n b /* multi\nline */ c");
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].text, "a");
    EXPECT_EQ(t[1].text, "b");
    EXPECT_EQ(t[2].text, "c");
}

TEST(Lexer, CBlockCapturesRawText) {
    auto t = lex_ok("C do\n  #include <assert.h>\n  int I = 0;\nend x");
    ASSERT_EQ(t[0].kind, Tok::CBlock);
    EXPECT_NE(t[0].text.find("#include <assert.h>"), std::string::npos);
    EXPECT_NE(t[0].text.find("int I = 0;"), std::string::npos);
    EXPECT_EQ(t[1].kind, Tok::IdInt);
    EXPECT_EQ(t[1].text, "x");
}

TEST(Lexer, CBlockDoesNotStopAtEmbeddedEndWord) {
    // `bend` must not terminate the block: `end` requires word boundaries.
    auto t = lex_ok("C do int bend = 1; end");
    ASSERT_EQ(t[0].kind, Tok::CBlock);
    EXPECT_NE(t[0].text.find("bend"), std::string::npos);
}

TEST(Lexer, PlainCIdentifierIsExternal) {
    auto t = lex_ok("C x");
    EXPECT_EQ(t[0].kind, Tok::IdExt);
    EXPECT_EQ(t[0].text, "C");
}

TEST(Lexer, SourceLocationsTrackLinesAndColumns) {
    auto t = lex_ok("a\n  b");
    EXPECT_EQ(t[0].loc.line, 1u);
    EXPECT_EQ(t[0].loc.col, 1u);
    EXPECT_EQ(t[1].loc.line, 2u);
    EXPECT_EQ(t[1].loc.col, 3u);
}

TEST(TimeVal, FormatMicrosRoundTrips) {
    EXPECT_EQ(format_micros(0), "0us");
    EXPECT_EQ(format_micros(kHour + 35 * kMin), "1h35min");
    EXPECT_EQ(format_micros(500 * kMs), "500ms");
    EXPECT_EQ(format_micros(-kSec), "-1s");
    Micros us = 0;
    ASSERT_TRUE(parse_time_literal("1h35min", &us));
    EXPECT_EQ(us, kHour + 35 * kMin);
    EXPECT_FALSE(parse_time_literal("", &us));
    EXPECT_FALSE(parse_time_literal("10xy", &us));
}

}  // namespace
}  // namespace ceu
