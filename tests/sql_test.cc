// Unit + integration tests for src/sql: tokenizer, parser, engine.

#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "sql/token.h"

namespace kathdb::sql {
namespace {

using rel::Catalog;
using rel::DataType;
using rel::Schema;
using rel::Table;
using rel::Value;

// ------------------------------------------------------------- tokenizer

TEST(TokenizerTest, KeywordsIdentsNumbersStrings) {
  auto r = Tokenize("SELECT title, year FROM films WHERE x >= 1.5 "
                    "AND name = 'O''Brien'");
  ASSERT_TRUE(r.ok());
  const auto& toks = r.value();
  EXPECT_EQ(toks[0].type, TokenType::kKeyword);
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].type, TokenType::kIdent);
  EXPECT_EQ(toks[1].text, "title");
  bool found_escaped = false;
  for (const auto& t : toks) {
    if (t.type == TokenType::kString) {
      EXPECT_EQ(t.text, "O'Brien");
      found_escaped = true;
    }
  }
  EXPECT_TRUE(found_escaped);
}

TEST(TokenizerTest, QualifiedIdentifierStaysOneToken) {
  auto r = Tokenize("films.title");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].text, "films.title");
}

TEST(TokenizerTest, CommentsSkipped) {
  auto r = Tokenize("SELECT 1 -- the answer\nFROM t");
  ASSERT_TRUE(r.ok());
  // SELECT 1 FROM t END = 5 tokens
  EXPECT_EQ(r.value().size(), 5u);
}

TEST(TokenizerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(TokenizerTest, CaseInsensitiveKeywords) {
  auto r = Tokenize("select * from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].text, "SELECT");
}

// ---------------------------------------------------------------- parser

TEST(ParserTest, SimpleSelect) {
  auto r = ParseSql("SELECT title, year FROM films WHERE year > 1990 "
                    "ORDER BY year DESC LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& s = r.value().select;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.from.table, "films");
  ASSERT_NE(s.where, nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_EQ(s.limit.value(), 5u);
}

TEST(ParserTest, JoinWithOn) {
  auto r = ParseSql("SELECT f.title FROM films f JOIN posters p "
                    "ON f.title = p.title");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& s = r.value().select;
  EXPECT_EQ(s.from.alias, "f");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].table.alias, "p");
  ASSERT_NE(s.joins[0].on, nullptr);
}

TEST(ParserTest, AggregatesAndGroupBy) {
  auto r = ParseSql("SELECT year, COUNT(*) AS n, AVG(score) FROM films "
                    "GROUP BY year HAVING n > 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& s = r.value().select;
  ASSERT_EQ(s.items.size(), 3u);
  EXPECT_FALSE(s.items[0].is_aggregate);
  EXPECT_TRUE(s.items[1].is_aggregate);
  EXPECT_EQ(s.items[1].alias, "n");
  EXPECT_EQ(s.items[2].agg_fn, "AVG");
  EXPECT_EQ(s.group_by.size(), 1u);
  ASSERT_NE(s.having, nullptr);
}

TEST(ParserTest, CreateTableAndInsert) {
  auto c = ParseSql("CREATE TABLE t (a INT, b STRING, c DOUBLE, d BOOL)");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().create.schema.num_columns(), 4u);

  auto i = ParseSql("INSERT INTO t VALUES (1, 'x', 2.5, TRUE), "
                    "(2, 'y', -1.0, FALSE)");
  ASSERT_TRUE(i.ok()) << i.status().ToString();
  EXPECT_EQ(i.value().insert.rows.size(), 2u);
  EXPECT_EQ(i.value().insert.rows[1][2].AsDouble(), -1.0);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSql("SELEKT * FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra garbage here").ok());
}

TEST(ParserTest, LikeLoweredToContains) {
  auto r = ParseSql("SELECT * FROM t WHERE title LIKE '%gun%'");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().select.where->ToString().find("contains"),
            std::string::npos);
}

// ---------------------------------------------------------------- engine

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto films = std::make_shared<Table>(
        "films", Schema({{"title", DataType::kString},
                         {"year", DataType::kInt},
                         {"score", DataType::kDouble}}));
    films->AppendRow({Value::Str("Guilty by Suspicion"), Value::Int(1991),
                      Value::Double(0.99)});
    films->AppendRow({Value::Str("Clean and Sober"), Value::Int(1988),
                      Value::Double(0.97)});
    films->AppendRow({Value::Str("Quiet Meadow"), Value::Int(2005),
                      Value::Double(0.11)});
    films->AppendRow({Value::Str("Sunset Drift"), Value::Int(1991),
                      Value::Double(0.55)});
    ASSERT_TRUE(catalog_.Register(films).ok());

    auto posters = std::make_shared<Table>(
        "posters", Schema({{"title", DataType::kString},
                           {"boring", DataType::kBool}}));
    posters->AppendRow({Value::Str("Guilty by Suspicion"),
                        Value::Bool(true)});
    posters->AppendRow({Value::Str("Quiet Meadow"), Value::Bool(true)});
    posters->AppendRow({Value::Str("Sunset Drift"), Value::Bool(false)});
    ASSERT_TRUE(catalog_.Register(posters).ok());
  }

  Catalog catalog_;
};

TEST_F(SqlEngineTest, SelectStar) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT * FROM films");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 4u);
  EXPECT_EQ(r.value().schema().num_columns(), 3u);
}

TEST_F(SqlEngineTest, WhereOrderLimit) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute(
      "SELECT title FROM films WHERE year >= 1990 ORDER BY score DESC "
      "LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().at(0, 0).AsString(), "Guilty by Suspicion");
  EXPECT_EQ(r.value().at(1, 0).AsString(), "Sunset Drift");
}

TEST_F(SqlEngineTest, ComputedProjectionWithAlias) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT title, score * 100 AS pct FROM films "
                       "WHERE title = 'Quiet Meadow'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_TRUE(r.value().schema().HasColumn("pct"));
  EXPECT_NEAR(r.value().at(0, 1).AsDouble(), 11.0, 1e-9);
}

TEST_F(SqlEngineTest, JoinWithQualifiedColumns) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute(
      "SELECT f.title, p.boring FROM films f JOIN posters p "
      "ON f.title = p.title WHERE p.boring = TRUE ORDER BY f.title");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().at(0, 0).AsString(), "Guilty by Suspicion");
  EXPECT_EQ(r.value().at(1, 0).AsString(), "Quiet Meadow");
}

TEST_F(SqlEngineTest, GroupByWithHaving) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute(
      "SELECT year, COUNT(*) AS n, MAX(score) AS best FROM films "
      "GROUP BY year HAVING n > 1 ORDER BY year");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().at(0, 0).AsInt(), 1991);
  EXPECT_EQ(r.value().at(0, 1).AsInt(), 2);
  EXPECT_NEAR(r.value().at(0, 2).AsDouble(), 0.99, 1e-9);
}

TEST_F(SqlEngineTest, GlobalAggregates) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT COUNT(*) AS n, SUM(score) AS total, "
                       "MIN(year) AS first FROM films");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().at(0, 0).AsInt(), 4);
  EXPECT_NEAR(r.value().at(0, 1).AsDouble(), 2.62, 1e-9);
  EXPECT_EQ(r.value().at(0, 2).AsInt(), 1988);
}

TEST_F(SqlEngineTest, DistinctRemovesDuplicates) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT DISTINCT year FROM films");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 3u);
}

// DISTINCT keys rows the way GROUP BY does (by cell value and type), not
// by their rendered text.
TEST_F(SqlEngineTest, DistinctKeepsNearbyDoublesApart) {
  SqlEngine eng(&catalog_);
  ASSERT_TRUE(eng.Execute("CREATE TABLE m (v DOUBLE)").ok());
  ASSERT_TRUE(eng.Execute("INSERT INTO m VALUES (0.1234561), (0.1234564), "
                          "(0.5)")
                  .ok());
  auto distinct = eng.Execute("SELECT DISTINCT v FROM m");
  auto grouped = eng.Execute("SELECT v FROM m GROUP BY v");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(distinct.value().num_rows(), 3u);
  EXPECT_EQ(grouped.value().num_rows(), 3u);
}

TEST_F(SqlEngineTest, DistinctKeepsNullStringApartFromNull) {
  SqlEngine eng(&catalog_);
  ASSERT_TRUE(eng.Execute("CREATE TABLE s (v STRING)").ok());
  ASSERT_TRUE(eng.Execute("INSERT INTO s VALUES ('NULL'), (NULL)").ok());
  auto r = eng.Execute("SELECT DISTINCT v FROM s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().at(0, 0), Value::Str("NULL"));
  EXPECT_TRUE(r.value().at(1, 0).is_null());
}

TEST_F(SqlEngineTest, DistinctKeepsStringApartFromNumber) {
  auto mixed = std::make_shared<Table>(
      "mixed", Schema({{"v", DataType::kString}}));
  mixed->AppendRow({Value::Str("1")});
  mixed->AppendRow({Value::Int(1)});
  mixed->AppendRow({Value::Str("1")});
  ASSERT_TRUE(catalog_.Register(mixed).ok());
  SqlEngine eng(&catalog_);
  auto distinct = eng.Execute("SELECT DISTINCT v FROM mixed");
  auto grouped = eng.Execute("SELECT v FROM mixed GROUP BY v");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(distinct.value().num_rows(), 2u);
  EXPECT_EQ(grouped.value().num_rows(), 2u);
  EXPECT_EQ(distinct.value().at(0, 0).type(), DataType::kString);
  EXPECT_EQ(distinct.value().at(1, 0).type(), DataType::kInt);
}

// The hash equi-join and the theta join agree on `a.k = b.k`: NULL keys
// never match, INT 3 matches DOUBLE 3.0, a string never matches a number.
TEST_F(SqlEngineTest, HashJoinMatchesThetaJoinOnNullAndMixedKeys) {
  auto a = std::make_shared<Table>(
      "a", Schema({{"k", DataType::kInt}, {"tag", DataType::kString}}));
  a->AppendRow({Value::Int(3), Value::Str("a3")});
  a->AppendRow({Value::Null(), Value::Str("anull")});
  a->AppendRow({Value::Int(7), Value::Str("a7")});
  auto b = std::make_shared<Table>(
      "b", Schema({{"k", DataType::kDouble}, {"tag", DataType::kString}}));
  b->AppendRow({Value::Double(3.0), Value::Str("b3")});
  b->AppendRow({Value::Null(), Value::Str("bnull")});
  b->AppendRow({Value::Str("7"), Value::Str("bstr7")});
  b->AppendRow({Value::Int(3), Value::Str("b3int")});
  ASSERT_TRUE(catalog_.Register(a).ok());
  ASSERT_TRUE(catalog_.Register(b).ok());
  SqlEngine eng(&catalog_);
  auto hashed = eng.Execute("SELECT * FROM a JOIN b ON a.k = b.k");
  auto theta = eng.Execute("SELECT * FROM a JOIN b ON a.k = b.k AND 1 = 1");
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  ASSERT_TRUE(theta.ok()) << theta.status().ToString();
  ASSERT_EQ(theta.value().num_rows(), 2u);
  ASSERT_EQ(hashed.value().num_rows(), theta.value().num_rows());
  for (size_t r = 0; r < theta.value().num_rows(); ++r) {
    for (size_t c = 0; c < theta.value().schema().num_columns(); ++c) {
      EXPECT_EQ(hashed.value().at(r, c).type(), theta.value().at(r, c).type());
      EXPECT_EQ(hashed.value().at(r, c).ToString(),
                theta.value().at(r, c).ToString());
    }
  }
  EXPECT_EQ(theta.value().at(0, 3), Value::Str("b3"));
  EXPECT_EQ(theta.value().at(1, 3), Value::Str("b3int"));
}

TEST_F(SqlEngineTest, LikeFilter) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT title FROM films WHERE title LIKE '%sober%'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().at(0, 0).AsString(), "Clean and Sober");
}

TEST_F(SqlEngineTest, CreateInsertSelectRoundTrip) {
  SqlEngine eng(&catalog_);
  ASSERT_TRUE(eng.Execute("CREATE TABLE notes (id INT, txt STRING)").ok());
  ASSERT_TRUE(
      eng.Execute("INSERT INTO notes VALUES (1, 'alpha'), (2, 'beta')").ok());
  auto r = eng.Execute("SELECT txt FROM notes WHERE id = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().at(0, 0).AsString(), "beta");
}

TEST_F(SqlEngineTest, InsertCoercesTypes) {
  SqlEngine eng(&catalog_);
  ASSERT_TRUE(eng.Execute("CREATE TABLE m (v DOUBLE)").ok());
  ASSERT_TRUE(eng.Execute("INSERT INTO m VALUES (3)").ok());
  auto r = eng.Execute("SELECT v FROM m");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at(0, 0).type(), DataType::kDouble);
}

TEST_F(SqlEngineTest, UnknownTableFails) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT * FROM ghosts");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(SqlEngineTest, UnknownColumnIsSyntacticError) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT ghost FROM films");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSyntacticError());
}

TEST_F(SqlEngineTest, AmbiguousColumnRejected) {
  SqlEngine eng(&catalog_);
  // `title` exists in both sides of the join -> must qualify.
  auto r = eng.Execute("SELECT boring FROM films f JOIN posters p "
                       "ON f.title = p.title WHERE title = 'x'");
  ASSERT_FALSE(r.ok());
}

TEST_F(SqlEngineTest, SelfJoinDisambiguatedByAlias) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute(
      "SELECT a.title, b.title FROM films a JOIN films b "
      "ON a.year = b.year WHERE a.title <> b.title");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 1991 pair both directions.
  EXPECT_EQ(r.value().num_rows(), 2u);
}

TEST_F(SqlEngineTest, CrossJoin) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT COUNT(*) AS n FROM films CROSS JOIN posters");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().at(0, 0).AsInt(), 12);
}

TEST_F(SqlEngineTest, NonGroupedColumnRejected) {
  SqlEngine eng(&catalog_);
  auto r = eng.Execute("SELECT title, COUNT(*) FROM films GROUP BY year");
  EXPECT_FALSE(r.ok());
}

// Parameterized: ORDER BY direction x column sweeps keep row count and order.
struct OrderCase {
  const char* column;
  bool desc;
};

// Without this, gtest prints the raw struct bytes (a pointer plus padding), so
// the case names change from run to run.
void PrintTo(const OrderCase& oc, std::ostream* os) {
  *os << oc.column << (oc.desc ? "_desc" : "_asc");
}

class OrderSweep : public ::testing::TestWithParam<OrderCase> {};

TEST_P(OrderSweep, OrderedOutputIsMonotone) {
  Catalog catalog;
  auto films = std::make_shared<Table>(
      "films", Schema({{"title", DataType::kString},
                       {"year", DataType::kInt},
                       {"score", DataType::kDouble}}));
  for (int i = 0; i < 50; ++i) {
    films->AppendRow({Value::Str("m" + std::to_string(i * 37 % 50)),
                      Value::Int(1980 + (i * 13) % 40),
                      Value::Double((i * 29 % 100) / 100.0)});
  }
  ASSERT_TRUE(catalog.Register(films).ok());
  SqlEngine eng(&catalog);
  const OrderCase& oc = GetParam();
  std::string sql = std::string("SELECT * FROM films ORDER BY ") +
                    oc.column + (oc.desc ? " DESC" : " ASC");
  auto r = eng.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  ASSERT_EQ(t.num_rows(), 50u);
  auto idx = t.schema().IndexOf(oc.column);
  ASSERT_TRUE(idx.has_value());
  for (size_t i = 1; i < t.num_rows(); ++i) {
    int c = t.at(i - 1, *idx).Compare(t.at(i, *idx));
    if (oc.desc) {
      EXPECT_GE(c, 0);
    } else {
      EXPECT_LE(c, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, OrderSweep,
    ::testing::Values(OrderCase{"title", false}, OrderCase{"title", true},
                      OrderCase{"year", false}, OrderCase{"year", true},
                      OrderCase{"score", false}, OrderCase{"score", true}));

}  // namespace
}  // namespace kathdb::sql
