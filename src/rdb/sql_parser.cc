#include "rdb/sql_parser.h"

#include <cctype>

#include "common/str_util.h"

namespace xupd::rdb::sql {

namespace {

enum class Tok {
  kEnd,
  kIdent,
  kString,
  kNumber,
  kComma,
  kDot,
  kLParen,
  kRParen,
  kStar,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kSlash,
  kSemicolon,
  kQuestion,
};

struct Token {
  Tok type = Tok::kEnd;
  std::string text;
  int64_t number = 0;
  int line = 1;
};

class SqlLexer {
 public:
  explicit SqlLexer(std::string_view text) : text_(text) {}

  const Token& Peek() {
    if (!has_peek_) {
      peek_ = Scan();
      has_peek_ = true;
    }
    return peek_;
  }
  Token Next() {
    if (has_peek_) {
      has_peek_ = false;
      return peek_;
    }
    return Scan();
  }
  bool PeekKw(std::string_view kw) {
    const Token& t = Peek();
    return t.type == Tok::kIdent && EqualsIgnoreCase(t.text, kw);
  }
  bool ConsumeKw(std::string_view kw) {
    if (PeekKw(kw)) {
      Next();
      return true;
    }
    return false;
  }
  Status Error(const std::string& msg) {
    return Status::ParseError("SQL line " + std::to_string(Peek().line) + ": " +
                              msg + " (near '" + Peek().text + "')");
  }

 private:
  Token Scan() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;
    char c = text_[pos_];
    auto two = [&](char next) {
      return pos_ + 1 < text_.size() && text_[pos_ + 1] == next;
    };
    switch (c) {
      case ',':
        ++pos_;
        t.type = Tok::kComma;
        return t;
      case '.':
        ++pos_;
        t.type = Tok::kDot;
        return t;
      case '(':
        ++pos_;
        t.type = Tok::kLParen;
        return t;
      case ')':
        ++pos_;
        t.type = Tok::kRParen;
        return t;
      case '*':
        ++pos_;
        t.type = Tok::kStar;
        return t;
      case ';':
        ++pos_;
        t.type = Tok::kSemicolon;
        return t;
      case '?':
        ++pos_;
        t.type = Tok::kQuestion;
        return t;
      case '+':
        ++pos_;
        t.type = Tok::kPlus;
        return t;
      case '-':
        ++pos_;
        t.type = Tok::kMinus;
        return t;
      case '/':
        ++pos_;
        t.type = Tok::kSlash;
        return t;
      case '=':
        ++pos_;
        t.type = Tok::kEq;
        return t;
      case '<':
        if (two('=')) {
          pos_ += 2;
          t.type = Tok::kLe;
        } else if (two('>')) {
          pos_ += 2;
          t.type = Tok::kNe;
        } else {
          ++pos_;
          t.type = Tok::kLt;
        }
        return t;
      case '>':
        if (two('=')) {
          pos_ += 2;
          t.type = Tok::kGe;
        } else {
          ++pos_;
          t.type = Tok::kGt;
        }
        return t;
      case '!':
        if (two('=')) {
          pos_ += 2;
          t.type = Tok::kNe;
          return t;
        }
        ++pos_;
        t.type = Tok::kIdent;
        t.text = "!";
        return t;
      case '\'': {
        ++pos_;
        std::string value;
        while (pos_ < text_.size()) {
          if (text_[pos_] == '\'') {
            if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '\'') {
              value += '\'';
              pos_ += 2;
              continue;
            }
            break;
          }
          if (text_[pos_] == '\n') ++line_;
          value += text_[pos_];
          ++pos_;
        }
        if (pos_ < text_.size()) ++pos_;  // closing quote
        t.type = Tok::kString;
        t.text = std::move(value);
        return t;
      }
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string digits;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        digits += text_[pos_];
        ++pos_;
      }
      t.type = Tok::kNumber;
      ParseInt64(digits, &t.number);
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ident += text_[pos_];
        ++pos_;
      }
      t.type = Tok::kIdent;
      t.text = std::move(ident);
      return t;
    }
    ++pos_;
    t.type = Tok::kIdent;
    t.text = std::string(1, c);
    return t;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  bool has_peek_ = false;
  Token peek_;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text) {}

  Result<Statement> ParseStatement() {
    bool explain = lex_.ConsumeKw("explain");
    bool analyze = explain && lex_.ConsumeKw("analyze");
    XUPD_ASSIGN_OR_RETURN(Statement stmt, ParseBareStatement());
    while (lex_.Peek().type == Tok::kSemicolon) lex_.Next();
    if (lex_.Peek().type != Tok::kEnd) {
      return lex_.Error("trailing input after statement");
    }
    if (explain) {
      Statement wrapper;
      wrapper.kind = Statement::Kind::kExplain;
      wrapper.explain = std::make_shared<Statement>(std::move(stmt));
      wrapper.explain_analyze = analyze;
      wrapper.param_count = param_count_;
      return wrapper;
    }
    stmt.param_count = param_count_;
    return stmt;
  }

  Result<Statement> ParseBareStatement() {
    Statement stmt;
    if (lex_.PeekKw("select") || lex_.PeekKw("with")) {
      stmt.kind = Statement::Kind::kSelect;
      auto select = ParseSelect();
      if (!select.ok()) return select.status();
      stmt.select = std::move(select).value();
    } else if (lex_.ConsumeKw("create")) {
      if (lex_.ConsumeKw("table")) {
        stmt.kind = Statement::Kind::kCreateTable;
        auto ct = ParseCreateTable();
        if (!ct.ok()) return ct.status();
        stmt.create_table = std::move(ct).value();
      } else if (lex_.ConsumeKw("index")) {
        stmt.kind = Statement::Kind::kCreateIndex;
        auto ci = ParseCreateIndex();
        if (!ci.ok()) return ci.status();
        stmt.create_index = std::move(ci).value();
      } else if (lex_.ConsumeKw("trigger")) {
        stmt.kind = Statement::Kind::kCreateTrigger;
        auto ct = ParseCreateTrigger();
        if (!ct.ok()) return ct.status();
        stmt.create_trigger = std::move(ct).value();
      } else {
        return lex_.Error("expected TABLE, INDEX or TRIGGER after CREATE");
      }
    } else if (lex_.ConsumeKw("drop")) {
      stmt.kind = Statement::Kind::kDrop;
      auto drop = ParseDrop();
      if (!drop.ok()) return drop.status();
      stmt.drop = std::move(drop).value();
    } else if (lex_.ConsumeKw("insert")) {
      stmt.kind = Statement::Kind::kInsert;
      auto ins = ParseInsert();
      if (!ins.ok()) return ins.status();
      stmt.insert = std::move(ins).value();
    } else if (lex_.ConsumeKw("delete")) {
      stmt.kind = Statement::Kind::kDelete;
      auto del = ParseDelete();
      if (!del.ok()) return del.status();
      stmt.del = std::move(del).value();
    } else if (lex_.ConsumeKw("update")) {
      stmt.kind = Statement::Kind::kUpdate;
      auto upd = ParseUpdate();
      if (!upd.ok()) return upd.status();
      stmt.update = std::move(upd).value();
    } else if (lex_.ConsumeKw("begin")) {
      stmt.kind = Statement::Kind::kBegin;
      ConsumeTxnNoiseWord();
    } else if (lex_.ConsumeKw("commit")) {
      stmt.kind = Statement::Kind::kCommit;
      ConsumeTxnNoiseWord();
    } else if (lex_.ConsumeKw("rollback")) {
      stmt.kind = Statement::Kind::kRollback;
      ConsumeTxnNoiseWord();
      if (lex_.ConsumeKw("to")) {
        (void)lex_.ConsumeKw("savepoint");
        XUPD_ASSIGN_OR_RETURN(stmt.txn_name, ExpectIdent("savepoint name"));
      }
    } else if (lex_.ConsumeKw("savepoint")) {
      stmt.kind = Statement::Kind::kSavepoint;
      XUPD_ASSIGN_OR_RETURN(stmt.txn_name, ExpectIdent("savepoint name"));
    } else if (lex_.ConsumeKw("release")) {
      stmt.kind = Statement::Kind::kRelease;
      (void)lex_.ConsumeKw("savepoint");
      XUPD_ASSIGN_OR_RETURN(stmt.txn_name, ExpectIdent("savepoint name"));
    } else if (lex_.ConsumeKw("check")) {
      if (!lex_.ConsumeKw("integrity")) {
        return lex_.Error("expected INTEGRITY after CHECK");
      }
      stmt.kind = Statement::Kind::kCheckIntegrity;
    } else if (lex_.ConsumeKw("set")) {
      stmt.kind = Statement::Kind::kSet;
      XUPD_ASSIGN_OR_RETURN(stmt.set_name, ExpectIdent("setting name"));
      (void)(lex_.Peek().type == Tok::kEq && (lex_.Next(), true));
      bool negative = lex_.Peek().type == Tok::kMinus && (lex_.Next(), true);
      if (lex_.Peek().type != Tok::kNumber) {
        return lex_.Error("expected an integer value after SET " +
                          stmt.set_name);
      }
      stmt.set_value = lex_.Next().number;
      if (negative) stmt.set_value = -stmt.set_value;
    } else if (lex_.ConsumeKw("show")) {
      stmt.kind = Statement::Kind::kShow;
      if (lex_.ConsumeKw("metrics")) {
        stmt.show = Statement::ShowWhat::kMetrics;
      } else if (lex_.ConsumeKw("health")) {
        stmt.show = Statement::ShowWhat::kHealth;
      } else if (lex_.ConsumeKw("slow")) {
        (void)lex_.ConsumeKw("statements");
        stmt.show = Statement::ShowWhat::kSlow;
      } else if (lex_.ConsumeKw("events")) {
        stmt.show = Statement::ShowWhat::kEvents;
      } else if (lex_.ConsumeKw("table")) {
        if (!lex_.ConsumeKw("stats")) {
          return lex_.Error("expected STATS after SHOW TABLE");
        }
        stmt.show = Statement::ShowWhat::kTableStats;
      } else if (lex_.ConsumeKw("trace")) {
        stmt.show = Statement::ShowWhat::kTrace;
      } else {
        return lex_.Error(
            "expected METRICS, HEALTH, SLOW, EVENTS, TABLE STATS or TRACE "
            "after SHOW");
      }
    } else {
      return lex_.Error("expected a SQL statement");
    }
    return stmt;
  }

  /// For trigger bodies: parse one DML statement terminated by ';'.
  Result<Statement> ParseInnerStatement() {
    for (const char* kw : {"select", "with", "insert", "delete", "update"}) {
      if (lex_.PeekKw(kw)) return ParseBareStatement();
    }
    return lex_.Error("expected DML statement in trigger body");
  }

  SqlLexer& lex() { return lex_; }

 private:
  /// The optional TRANSACTION / WORK after BEGIN, COMMIT and ROLLBACK.
  void ConsumeTxnNoiseWord() {
    if (!lex_.ConsumeKw("transaction")) (void)lex_.ConsumeKw("work");
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (lex_.Peek().type != Tok::kIdent) {
      return lex_.Error(std::string("expected ") + what);
    }
    return lex_.Next().text;
  }
  Status Expect(Tok type, const char* what) {
    if (lex_.Peek().type != type) {
      return lex_.Error(std::string("expected ") + what);
    }
    lex_.Next();
    return Status::OK();
  }

  Result<CreateTableStmt> ParseCreateTable() {
    CreateTableStmt stmt;
    XUPD_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("table name"));
    XUPD_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    while (true) {
      ColumnDef col;
      XUPD_ASSIGN_OR_RETURN(col.name, ExpectIdent("column name"));
      auto type = ExpectIdent("column type");
      if (!type.ok()) return type.status();
      std::string type_name = AsciiToUpper(type.value());
      if (type_name == "INTEGER" || type_name == "INT" || type_name == "BIGINT") {
        col.type = ColumnType::kInteger;
      } else if (type_name == "VARCHAR" || type_name == "TEXT" ||
                 type_name == "CHAR") {
        col.type = ColumnType::kVarchar;
        if (lex_.Peek().type == Tok::kLParen) {  // VARCHAR(n)
          lex_.Next();
          if (lex_.Peek().type == Tok::kNumber) lex_.Next();
          XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        }
      } else {
        return lex_.Error("unsupported column type " + type_name);
      }
      // Ignore PRIMARY KEY / NOT NULL decorations.
      while (lex_.ConsumeKw("primary") || lex_.ConsumeKw("key") ||
             lex_.ConsumeKw("not") || lex_.ConsumeKw("null")) {
      }
      stmt.columns.push_back(std::move(col));
      if (lex_.Peek().type == Tok::kComma) {
        lex_.Next();
        continue;
      }
      break;
    }
    XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    return stmt;
  }

  Result<CreateIndexStmt> ParseCreateIndex() {
    CreateIndexStmt stmt;
    XUPD_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("index name"));
    if (!lex_.ConsumeKw("on")) return lex_.Error("expected ON");
    XUPD_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    XUPD_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    XUPD_ASSIGN_OR_RETURN(stmt.column, ExpectIdent("column name"));
    XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    return stmt;
  }

  Result<CreateTriggerStmt> ParseCreateTrigger() {
    CreateTriggerStmt stmt;
    XUPD_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("trigger name"));
    if (!lex_.ConsumeKw("after")) return lex_.Error("expected AFTER");
    if (!lex_.ConsumeKw("delete")) {
      return lex_.Error("only AFTER DELETE triggers are supported");
    }
    if (!lex_.ConsumeKw("on")) return lex_.Error("expected ON");
    XUPD_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (!lex_.ConsumeKw("for")) return lex_.Error("expected FOR EACH");
    if (!lex_.ConsumeKw("each")) return lex_.Error("expected EACH");
    if (lex_.ConsumeKw("row")) {
      stmt.granularity = TriggerGranularity::kRow;
    } else if (lex_.ConsumeKw("statement")) {
      stmt.granularity = TriggerGranularity::kStatement;
    } else {
      return lex_.Error("expected ROW or STATEMENT");
    }
    if (!lex_.ConsumeKw("begin")) return lex_.Error("expected BEGIN");
    while (!lex_.PeekKw("end")) {
      auto inner = ParseInnerStatement();
      if (!inner.ok()) return inner.status();
      stmt.body.push_back(
          std::make_shared<Statement>(std::move(inner).value()));
      while (lex_.Peek().type == Tok::kSemicolon) lex_.Next();
    }
    lex_.Next();  // END
    return stmt;
  }

  Result<DropStmt> ParseDrop() {
    DropStmt stmt;
    if (lex_.ConsumeKw("table")) {
      stmt.what = DropStmt::What::kTable;
    } else if (lex_.ConsumeKw("index")) {
      stmt.what = DropStmt::What::kIndex;
    } else if (lex_.ConsumeKw("trigger")) {
      stmt.what = DropStmt::What::kTrigger;
    } else {
      return lex_.Error("expected TABLE, INDEX or TRIGGER");
    }
    XUPD_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("name"));
    if (stmt.what == DropStmt::What::kIndex && lex_.ConsumeKw("on")) {
      XUPD_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    }
    return stmt;
  }

  Result<InsertStmt> ParseInsert() {
    InsertStmt stmt;
    if (!lex_.ConsumeKw("into")) return lex_.Error("expected INTO");
    XUPD_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (lex_.Peek().type == Tok::kLParen) {
      lex_.Next();
      while (true) {
        auto col = ExpectIdent("column name");
        if (!col.ok()) return col.status();
        stmt.columns.push_back(col.value());
        if (lex_.Peek().type == Tok::kComma) {
          lex_.Next();
          continue;
        }
        break;
      }
      XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    }
    if (lex_.ConsumeKw("values")) {
      while (true) {
        XUPD_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
        std::vector<Expr> row;
        while (true) {
          auto e = ParseExpr();
          if (!e.ok()) return e.status();
          row.push_back(std::move(e).value());
          if (lex_.Peek().type == Tok::kComma) {
            lex_.Next();
            continue;
          }
          break;
        }
        XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        stmt.rows.push_back(std::move(row));
        if (lex_.Peek().type == Tok::kComma) {
          lex_.Next();
          continue;
        }
        break;
      }
      return stmt;
    }
    if (lex_.PeekKw("select") || lex_.PeekKw("with")) {
      auto select = ParseSelect();
      if (!select.ok()) return select.status();
      stmt.select = std::make_shared<SelectStmt>(std::move(select).value());
      return stmt;
    }
    return lex_.Error("expected VALUES or SELECT in INSERT");
  }

  Result<DeleteStmt> ParseDelete() {
    DeleteStmt stmt;
    if (!lex_.ConsumeKw("from")) return lex_.Error("expected FROM");
    XUPD_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (lex_.ConsumeKw("where")) {
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      stmt.where = std::move(e).value();
    }
    return stmt;
  }

  Result<UpdateStmt> ParseUpdate() {
    UpdateStmt stmt;
    XUPD_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (!lex_.ConsumeKw("set")) return lex_.Error("expected SET");
    while (true) {
      auto col = ExpectIdent("column name");
      if (!col.ok()) return col.status();
      XUPD_RETURN_IF_ERROR(Expect(Tok::kEq, "'='"));
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      stmt.sets.emplace_back(col.value(), std::move(e).value());
      if (lex_.Peek().type == Tok::kComma) {
        lex_.Next();
        continue;
      }
      break;
    }
    if (lex_.ConsumeKw("where")) {
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      stmt.where = std::move(e).value();
    }
    return stmt;
  }

  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    if (lex_.ConsumeKw("with")) {
      while (true) {
        SelectStmt::Cte cte;
        XUPD_ASSIGN_OR_RETURN(cte.name, ExpectIdent("CTE name"));
        if (lex_.Peek().type == Tok::kLParen) {
          lex_.Next();
          while (true) {
            auto col = ExpectIdent("CTE column");
            if (!col.ok()) return col.status();
            cte.columns.push_back(col.value());
            if (lex_.Peek().type == Tok::kComma) {
              lex_.Next();
              continue;
            }
            break;
          }
          XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        }
        if (!lex_.ConsumeKw("as")) return lex_.Error("expected AS");
        XUPD_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
        auto inner = ParseSelect();
        if (!inner.ok()) return inner.status();
        cte.query = std::make_shared<SelectStmt>(std::move(inner).value());
        XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        stmt.ctes.push_back(std::move(cte));
        if (lex_.Peek().type == Tok::kComma) {
          lex_.Next();
          continue;
        }
        break;
      }
    }
    // One or more cores joined by UNION ALL. Each core may be parenthesized.
    while (true) {
      bool parens = false;
      if (lex_.Peek().type == Tok::kLParen) {
        lex_.Next();
        parens = true;
      }
      auto core = ParseSelectCore();
      if (!core.ok()) return core.status();
      stmt.cores.push_back(std::move(core).value());
      if (parens) XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      if (lex_.ConsumeKw("union")) {
        if (!lex_.ConsumeKw("all")) {
          return lex_.Error("only UNION ALL is supported");
        }
        continue;
      }
      break;
    }
    if (lex_.ConsumeKw("order")) {
      if (!lex_.ConsumeKw("by")) return lex_.Error("expected BY");
      while (true) {
        OrderItem item;
        XUPD_ASSIGN_OR_RETURN(item.column, ExpectIdent("order column"));
        if (lex_.ConsumeKw("desc")) {
          item.desc = true;
        } else {
          lex_.ConsumeKw("asc");
        }
        stmt.order_by.push_back(std::move(item));
        if (lex_.Peek().type == Tok::kComma) {
          lex_.Next();
          continue;
        }
        break;
      }
    }
    return stmt;
  }

  Result<SelectCore> ParseSelectCore() {
    if (!lex_.ConsumeKw("select")) return lex_.Error("expected SELECT");
    SelectCore core;
    while (true) {
      SelectItem item;
      if (lex_.Peek().type == Tok::kStar) {
        lex_.Next();
        item.star = true;
      } else {
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        item.expr = std::move(e).value();
        if (lex_.ConsumeKw("as")) {
          XUPD_ASSIGN_OR_RETURN(item.alias, ExpectIdent("alias"));
        }
      }
      core.items.push_back(std::move(item));
      if (lex_.Peek().type == Tok::kComma) {
        lex_.Next();
        continue;
      }
      break;
    }
    if (lex_.ConsumeKw("from")) {
      while (true) {
        TableRef ref;
        XUPD_ASSIGN_OR_RETURN(ref.table, ExpectIdent("table name"));
        // Optional alias (an identifier that is not a clause keyword).
        const Token& t = lex_.Peek();
        if (t.type == Tok::kIdent && !EqualsIgnoreCase(t.text, "where") &&
            !EqualsIgnoreCase(t.text, "order") &&
            !EqualsIgnoreCase(t.text, "union") &&
            !EqualsIgnoreCase(t.text, "on")) {
          ref.alias = lex_.Next().text;
        } else {
          ref.alias = ref.table;
        }
        core.from.push_back(std::move(ref));
        if (lex_.Peek().type == Tok::kComma) {
          lex_.Next();
          continue;
        }
        break;
      }
    }
    if (lex_.ConsumeKw("where")) {
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      core.where = std::move(e).value();
    }
    return core;
  }

  // Expression grammar: or > and > not > comparison > additive > term.
  Result<Expr> ParseExpr() { return ParseOr(); }

  Result<Expr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    while (lex_.ConsumeKw("or")) {
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      Expr e;
      e.kind = Expr::Kind::kBinary;
      e.op = Expr::Op::kOr;
      e.children.push_back(std::move(lhs).value());
      e.children.push_back(std::move(rhs).value());
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<Expr> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs;
    while (lex_.ConsumeKw("and")) {
      auto rhs = ParseNot();
      if (!rhs.ok()) return rhs;
      Expr e;
      e.kind = Expr::Kind::kBinary;
      e.op = Expr::Op::kAnd;
      e.children.push_back(std::move(lhs).value());
      e.children.push_back(std::move(rhs).value());
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<Expr> ParseNot() {
    if (lex_.ConsumeKw("not")) {
      auto inner = ParseNot();
      if (!inner.ok()) return inner;
      Expr e;
      e.kind = Expr::Kind::kUnary;
      e.op = Expr::Op::kNot;
      e.children.push_back(std::move(inner).value());
      return e;
    }
    return ParseComparison();
  }

  Result<Expr> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    // IS [NOT] NULL
    if (lex_.ConsumeKw("is")) {
      Expr e;
      e.kind = Expr::Kind::kIsNull;
      e.negated = lex_.ConsumeKw("not");
      if (!lex_.ConsumeKw("null")) return lex_.Error("expected NULL after IS");
      e.children.push_back(std::move(lhs).value());
      return e;
    }
    // [NOT] IN (...)
    bool negated = false;
    if (lex_.PeekKw("not")) {
      // Could be "NOT IN"; NOT as prefix was handled earlier, so here it must
      // be NOT IN.
      lex_.Next();
      negated = true;
      if (!lex_.PeekKw("in")) return lex_.Error("expected IN after NOT");
    }
    if (lex_.ConsumeKw("in")) {
      XUPD_RETURN_IF_ERROR(Expect(Tok::kLParen, "'(' after IN"));
      Expr e;
      e.negated = negated;
      e.children.push_back(std::move(lhs).value());
      if (lex_.PeekKw("select") || lex_.PeekKw("with")) {
        auto sub = ParseSelect();
        if (!sub.ok()) return sub.status();
        e.kind = Expr::Kind::kInSubquery;
        e.subquery = std::make_shared<SelectStmt>(std::move(sub).value());
      } else {
        e.kind = Expr::Kind::kInList;
        while (true) {
          auto v = ParseExpr();
          if (!v.ok()) return v.status();
          e.in_list.push_back(std::move(v).value());
          if (lex_.Peek().type == Tok::kComma) {
            lex_.Next();
            continue;
          }
          break;
        }
      }
      XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return e;
    }
    Expr::Op op = Expr::Op::kNone;
    switch (lex_.Peek().type) {
      case Tok::kEq:
        op = Expr::Op::kEq;
        break;
      case Tok::kNe:
        op = Expr::Op::kNe;
        break;
      case Tok::kLt:
        op = Expr::Op::kLt;
        break;
      case Tok::kLe:
        op = Expr::Op::kLe;
        break;
      case Tok::kGt:
        op = Expr::Op::kGt;
        break;
      case Tok::kGe:
        op = Expr::Op::kGe;
        break;
      default:
        return lhs;
    }
    lex_.Next();
    auto rhs = ParseAdditive();
    if (!rhs.ok()) return rhs;
    Expr e;
    e.kind = Expr::Kind::kBinary;
    e.op = op;
    e.children.push_back(std::move(lhs).value());
    e.children.push_back(std::move(rhs).value());
    return e;
  }

  Result<Expr> ParseAdditive() {
    auto lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs;
    while (true) {
      Expr::Op op;
      if (lex_.Peek().type == Tok::kPlus) {
        op = Expr::Op::kAdd;
      } else if (lex_.Peek().type == Tok::kMinus) {
        op = Expr::Op::kSub;
      } else {
        return lhs;
      }
      lex_.Next();
      auto rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs;
      Expr e;
      e.kind = Expr::Kind::kBinary;
      e.op = op;
      e.children.push_back(std::move(lhs).value());
      e.children.push_back(std::move(rhs).value());
      lhs = std::move(e);
    }
  }

  Result<Expr> ParseMultiplicative() {
    auto lhs = ParseTerm();
    if (!lhs.ok()) return lhs;
    while (true) {
      Expr::Op op;
      if (lex_.Peek().type == Tok::kStar) {
        op = Expr::Op::kMul;
      } else if (lex_.Peek().type == Tok::kSlash) {
        op = Expr::Op::kDiv;
      } else {
        return lhs;
      }
      lex_.Next();
      auto rhs = ParseTerm();
      if (!rhs.ok()) return rhs;
      Expr e;
      e.kind = Expr::Kind::kBinary;
      e.op = op;
      e.children.push_back(std::move(lhs).value());
      e.children.push_back(std::move(rhs).value());
      lhs = std::move(e);
    }
  }

  Result<Expr> ParseTerm() {
    const Token& t = lex_.Peek();
    Expr e;
    if (t.type == Tok::kNumber) {
      e.kind = Expr::Kind::kLiteral;
      e.literal = Value::Int(lex_.Next().number);
      return e;
    }
    if (t.type == Tok::kString) {
      e.kind = Expr::Kind::kLiteral;
      e.literal = Value::Str(lex_.Next().text);
      return e;
    }
    if (t.type == Tok::kQuestion) {
      lex_.Next();
      e.kind = Expr::Kind::kParam;
      e.param_index = param_count_++;
      return e;
    }
    if (t.type == Tok::kMinus) {
      lex_.Next();
      auto inner = ParseTerm();
      if (!inner.ok()) return inner;
      e.kind = Expr::Kind::kUnary;
      e.op = Expr::Op::kNeg;
      e.children.push_back(std::move(inner).value());
      return e;
    }
    if (t.type == Tok::kLParen) {
      lex_.Next();
      auto inner = ParseExpr();
      if (!inner.ok()) return inner;
      XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return inner;
    }
    if (t.type == Tok::kIdent) {
      std::string ident = lex_.Next().text;
      if (EqualsIgnoreCase(ident, "null")) {
        e.kind = Expr::Kind::kLiteral;
        e.literal = Value::Null();
        return e;
      }
      // Aggregates.
      if ((EqualsIgnoreCase(ident, "min") || EqualsIgnoreCase(ident, "max") ||
           EqualsIgnoreCase(ident, "count") || EqualsIgnoreCase(ident, "sum")) &&
          lex_.Peek().type == Tok::kLParen) {
        lex_.Next();
        e.kind = Expr::Kind::kAggregate;
        if (EqualsIgnoreCase(ident, "min")) e.agg = Expr::Agg::kMin;
        if (EqualsIgnoreCase(ident, "max")) e.agg = Expr::Agg::kMax;
        if (EqualsIgnoreCase(ident, "count")) e.agg = Expr::Agg::kCount;
        if (EqualsIgnoreCase(ident, "sum")) e.agg = Expr::Agg::kSum;
        if (lex_.Peek().type == Tok::kStar) {
          lex_.Next();
          e.count_star = true;
        } else {
          auto col = ExpectIdent("aggregate column");
          if (!col.ok()) return col.status();
          e.column = col.value();
          if (lex_.Peek().type == Tok::kDot) {
            lex_.Next();
            e.table = e.column;
            auto col2 = ExpectIdent("column after '.'");
            if (!col2.ok()) return col2.status();
            e.column = col2.value();
          }
        }
        XUPD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        return e;
      }
      // OLD.column
      if (EqualsIgnoreCase(ident, "old") && lex_.Peek().type == Tok::kDot) {
        lex_.Next();
        auto col = ExpectIdent("column after OLD.");
        if (!col.ok()) return col.status();
        e.kind = Expr::Kind::kOldColumn;
        e.column = col.value();
        return e;
      }
      // [table.]column
      e.kind = Expr::Kind::kColumn;
      e.column = std::move(ident);
      if (lex_.Peek().type == Tok::kDot) {
        lex_.Next();
        e.table = e.column;
        auto col = ExpectIdent("column after '.'");
        if (!col.ok()) return col.status();
        e.column = col.value();
      }
      return e;
    }
    return lex_.Error("expected expression");
  }

  SqlLexer lex_;
  /// ? placeholders seen so far; their 0-based ordinal is the bind position.
  int param_count_ = 0;
};

}  // namespace

Result<Statement> ParseSql(std::string_view text) {
  Parser parser(text);
  return parser.ParseStatement();
}

}  // namespace xupd::rdb::sql
