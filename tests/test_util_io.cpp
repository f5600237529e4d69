#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/fnv1a.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace mcs {
namespace {

// ------------------------------------------------------------------ table

TEST(Table, RendersHeaderAndRows) {
    TablePrinter t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"bb", "22"});
    const std::string out = t.to_string();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    // Box drawing present.
    EXPECT_NE(out.find('+'), std::string::npos);
    EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(Table, ColumnsAlignToWidestCell) {
    TablePrinter t({"c"});
    t.add_row({"wide-cell-content"});
    const std::string out = t.to_string();
    std::istringstream is(out);
    std::string line;
    std::getline(is, line);
    // Rule must span the widest cell plus padding.
    EXPECT_EQ(line.size(), std::string("wide-cell-content").size() + 4);
}

TEST(Table, RowWidthMismatchThrows) {
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), RequireError);
}

TEST(Table, EmptyHeaderThrows) {
    EXPECT_THROW(TablePrinter({}), RequireError);
}

TEST(Table, SeparatorAddsRule) {
    TablePrinter t({"x"});
    t.add_row({"1"});
    t.add_separator();
    t.add_row({"2"});
    const std::string out = t.to_string();
    // Rules: top, after header, separator, bottom = 4 lines starting with +
    int rules = 0;
    std::istringstream is(out);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] == '+') {
            ++rules;
        }
    }
    EXPECT_EQ(rules, 4);
}

TEST(Fmt, Doubles) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.14159, 0), "3");
    EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(Fmt, Integers) {
    EXPECT_EQ(fmt(static_cast<std::int64_t>(-42)), "-42");
    EXPECT_EQ(fmt(static_cast<std::uint64_t>(42)), "42");
}

TEST(Fmt, Percent) {
    EXPECT_EQ(fmt_pct(0.0123, 2), "1.23%");
    EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

// ------------------------------------------------------------------ fnv1a

TEST(Fnv1a, KnownAnswers) {
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    Fnv1a h;
    EXPECT_EQ(h.hex(), "cbf29ce484222325");
    h.bytes("a");
    EXPECT_EQ(h.hex(), "af63dc4c8601ec8c");
}

TEST(Fnv1a, FieldsHashTheirCanonicalBytes) {
    Fnv1a fields;
    fields.u64(0x0102030405060708ULL);
    fields.boolean(true);
    fields.str("ab");
    // u64 little-endian, bool as one byte, str as u64 length + raw bytes.
    const std::string canonical("\x08\x07\x06\x05\x04\x03\x02\x01"
                                "\x01"
                                "\x02\x00\x00\x00\x00\x00\x00\x00"
                                "ab",
                                19);
    EXPECT_EQ(fields.value(), fnv1a64(canonical));
}

// -------------------------------------------------------------------- csv

TEST(Csv, EscapePassthrough) {
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape(""), "");
}

TEST(Csv, EscapeSpecials) {
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesFile) {
    const std::string path = ::testing::TempDir() + "/mcs_csv_test.csv";
    {
        CsvWriter w(path, {"t", "v"});
        w.write_row({std::vector<std::string>{"0", "1.5"}});
        w.write_row(std::vector<double>{1.0, 2.5});
        EXPECT_EQ(w.rows_written(), 2u);
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "t,v");
    std::getline(in, line);
    EXPECT_EQ(line, "0,1.5");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2.5");
    std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
    const std::string path = ::testing::TempDir() + "/mcs_csv_test2.csv";
    CsvWriter w(path, {"a", "b"});
    EXPECT_THROW(w.write_row({std::vector<std::string>{"1"}}), RequireError);
    std::remove(path.c_str());
}

TEST(Csv, BadPathThrows) {
    EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}),
                 RequireError);
}

// ----------------------------------------------------------------- config

TEST(Config, ParsesKeyValueArgs) {
    const char* argv[] = {"cores=64", "rate=1.5", "name=test"};
    const Config c = Config::from_args(argv);
    EXPECT_EQ(c.get_int("cores", 0), 64);
    EXPECT_DOUBLE_EQ(c.get_double("rate", 0.0), 1.5);
    EXPECT_EQ(c.get_string("name", ""), "test");
}

TEST(Config, RejectsBareTokens) {
    for (const char* bad : {"flagless", "--config", "=value"}) {
        const char* argv[] = {"cores=64", bad};
        try {
            (void)Config::from_args(argv);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const RequireError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("expected key=value argument: ") + bad),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Config, FallbacksWhenMissing) {
    const Config c;
    EXPECT_EQ(c.get_int("x", 7), 7);
    EXPECT_DOUBLE_EQ(c.get_double("x", 2.5), 2.5);
    EXPECT_EQ(c.get_string("x", "d"), "d");
    EXPECT_TRUE(c.get_bool("x", true));
}

TEST(Config, BoolParsing) {
    Config c;
    c.set("a", "true");
    c.set("b", "0");
    c.set("cc", "ON");
    c.set("d", "No");
    EXPECT_TRUE(c.get_bool("a", false));
    EXPECT_FALSE(c.get_bool("b", true));
    EXPECT_TRUE(c.get_bool("cc", false));
    EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, MalformedValuesThrow) {
    Config c;
    c.set("n", "12x");
    c.set("f", "1.5.2");
    c.set("b", "maybe");
    EXPECT_THROW(c.get_int("n", 0), RequireError);
    EXPECT_THROW(c.get_double("f", 0.0), RequireError);
    EXPECT_THROW(c.get_bool("b", false), RequireError);
}

TEST(Config, LaterSetOverrides) {
    Config c;
    c.set("k", "1");
    c.set("k", "2");
    EXPECT_EQ(c.get_int("k", 0), 2);
}

}  // namespace
}  // namespace mcs
