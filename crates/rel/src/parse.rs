//! The SQL front end: one lexer and one recursive-descent parser for every
//! statement `xvc-rel` reads — tag queries and the SQL that composition
//! rewrites and prints, the `INSERT`/`DELETE` writes that
//! [`Database::execute_dml`](crate::Database::execute_dml) applies, and
//! the `CREATE TABLE`/`CREATE INDEX` scripts [`crate::ddl`] declares.
//! Keywords are case-insensitive, identifiers are kept verbatim, and `--`
//! outside a string literal starts a comment that runs to the end of the
//! line. [`statement_end`] finds, by the same lexer, the `;` that ends a
//! statement embedded in a larger text.
//!
//! Grammar (informally):
//!
//! ```text
//! query    := SELECT [DISTINCT] item (',' item)*
//!             FROM fromitem (',' fromitem)*
//!             [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
//! item     := '*' | ident '.' '*' | expr [AS ident]
//! fromitem := ident [[AS] ident] | [OUTER] '(' query ')' AS ident
//! expr     := or-expr with AND/OR/NOT, comparisons (= <> != < <= > >=),
//!             + - * /, EXISTS '(' query ')', expr IS [NOT] NULL,
//!             aggregates SUM/COUNT/AVG/MIN/MAX, params $var.column,
//!             literals, parenthesized expressions
//! literal  := integer | decimal | 'string' | NULL | TRUE | FALSE
//!
//! insert   := INSERT INTO ident VALUES row (',' row)* [';']
//! row      := '(' value (',' value)* ')'
//! value    := ['+' | '-'] (integer | decimal) | 'string' | NULL | TRUE | FALSE
//! delete   := DELETE FROM ident [WHERE expr] [';']
//!
//! script   := [ddl] (';' [ddl])*
//! ddl      := CREATE TABLE ident '(' column (',' column)* ')'
//!           | CREATE INDEX [ident] ON ident '(' ident ')' [USING (HASH | BTREE)]
//! column   := ident type ['(' integer [',' integer] ')'] constraint*
//! ```
//!
//! An integer literal is exact and must fit `i64` — in a `VALUES` row
//! after its sign, so `-9223372036854775808` is `i64::MIN` there; a
//! literal with a decimal point is a float. In an expression, unary minus
//! is `0 - x`. A column's `PRIMARY KEY` and `NOT NULL` are recorded; any
//! other constraint token (`DEFAULT 'x,y'`, `UNIQUE`, `CHECK (…)`) is
//! skipped up to the next `,` or `)` outside parentheses. Type names map
//! as `INT`/`INTEGER`/`BIGINT`/`SMALLINT` → [`ColumnType::Int`],
//! `FLOAT`/`REAL`/`DOUBLE`/`DECIMAL`/`NUMERIC` → [`ColumnType::Float`], and
//! `TEXT`/`STRING`/`VARCHAR`/`CHAR`/`DATE`/`TIMESTAMP` → [`ColumnType::Str`]
//! (dates are ISO strings in this engine); a type's precision and scale
//! are read and ignored. An index's `USING HASH` or `USING BTREE` is read
//! and ignored too: every index is the one equality index, and any other
//! method is rejected.

use crate::ast::{AggFunc, BinOp, ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::error::{Error, Result};
use crate::schema::{ColumnDef, ColumnType, IndexDef, TableSchema};
use crate::value::Value;

/// Parses a single SELECT query from SQL text.
///
/// ```
/// let q = xvc_rel::parse_query(
///     "SELECT metroid, metroname FROM metroarea WHERE metroid > 3",
/// ).unwrap();
/// assert_eq!(q.select.len(), 2);
/// ```
pub fn parse_query(input: &str) -> Result<SelectQuery> {
    let mut p = Parser::new(input)?;
    let q = p.query()?;
    p.end()?;
    Ok(q)
}

/// A parsed `INSERT` or `DELETE` statement.
pub(crate) enum DmlStatement {
    /// `INSERT INTO table VALUES (…), (…)`: literal rows.
    Insert {
        table: String,
        rows: Vec<Vec<Value>>,
    },
    /// `DELETE FROM table [WHERE predicate]`.
    Delete {
        table: String,
        predicate: Option<ScalarExpr>,
    },
}

/// A parsed `CREATE TABLE` or `CREATE INDEX` statement.
pub(crate) enum DdlStatement {
    CreateTable(TableSchema),
    /// `CREATE INDEX [name] ON table (column) [USING HASH|BTREE]`. The
    /// name and the method are discarded: an index is known by its table
    /// and column.
    CreateIndex {
        table: String,
        def: IndexDef,
    },
}

/// Parses one `INSERT` or `DELETE` statement, optionally `;`-terminated.
pub(crate) fn parse_dml(input: &str) -> Result<DmlStatement> {
    let mut p = Parser::new(input)?;
    let stmt = p.dml()?;
    p.eat(&Token::Semi);
    p.end()?;
    Ok(stmt)
}

/// Parses a script of `;`-separated `CREATE TABLE` / `CREATE INDEX`
/// statements (empty statements are skipped).
pub(crate) fn parse_ddl_statements(input: &str) -> Result<Vec<DdlStatement>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        match p.peek() {
            None => return Ok(out),
            Some(Token::Semi) => p.pos += 1,
            Some(_) => {
                out.push(p.ddl()?);
                if !matches!(p.peek(), None | Some(Token::Semi)) {
                    p.end()?;
                }
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    /// Keyword or identifier (original case preserved in `String`, keyword
    /// matching is case-insensitive).
    Word(String),
    /// An integer literal's digits, kept exact: [`int_literal`] reads them
    /// with the sign the grammar gives them.
    Int(String),
    /// A numeric literal with a decimal point.
    Float(f64),
    Str(String),
    Comma,
    Dot,
    Star,
    LParen,
    RParen,
    Dollar,
    Semi,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Slash,
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Word(w) => write!(f, "'{w}'"),
            Token::Int(n) => write!(f, "number {n}"),
            Token::Float(n) => write!(f, "number {n}"),
            Token::Str(s) => write!(f, "string '{s}'"),
            Token::Comma => write!(f, "','"),
            Token::Dot => write!(f, "'.'"),
            Token::Star => write!(f, "'*'"),
            Token::LParen => write!(f, "'('"),
            Token::RParen => write!(f, "')'"),
            Token::Dollar => write!(f, "'$'"),
            Token::Semi => write!(f, "';'"),
            Token::Eq => write!(f, "'='"),
            Token::Ne => write!(f, "'<>'"),
            Token::Lt => write!(f, "'<'"),
            Token::Le => write!(f, "'<='"),
            Token::Gt => write!(f, "'>'"),
            Token::Ge => write!(f, "'>='"),
            Token::Plus => write!(f, "'+'"),
            Token::Minus => write!(f, "'-'"),
            Token::Slash => write!(f, "'/'"),
        }
    }
}

fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    lex(input, |token, _| {
        out.push(token);
        true
    })?;
    Ok(out)
}

/// The byte offset in `input` of its first `;` token, or `None` when the
/// text ends first. A `;` inside a string literal or a `--` comment is no
/// token, and lexing stops at the first one that is, so the text after
/// it may be anything: a `.view` file ends each tag query this way.
pub fn statement_end(input: &str) -> Result<Option<usize>> {
    let mut end = None;
    lex(input, |token, offset| {
        if token == Token::Semi {
            end = Some(offset);
        }
        end.is_none()
    })?;
    Ok(end)
}

/// Lexes `input`, handing each token and its byte offset to `emit` until
/// `emit` returns false or the text ends.
fn lex(input: &str, mut emit: impl FnMut(Token, usize) -> bool) -> Result<()> {
    let mut chars = input.char_indices().peekable();
    while let Some(&(offset, c)) = chars.peek() {
        let token = match c {
            c if c.is_whitespace() => {
                chars.next();
                continue;
            }
            ',' => {
                chars.next();
                Token::Comma
            }
            '.' => {
                chars.next();
                Token::Dot
            }
            '*' => {
                chars.next();
                Token::Star
            }
            '(' => {
                chars.next();
                Token::LParen
            }
            ')' => {
                chars.next();
                Token::RParen
            }
            '$' => {
                chars.next();
                Token::Dollar
            }
            ';' => {
                chars.next();
                Token::Semi
            }
            '=' => {
                chars.next();
                Token::Eq
            }
            '+' => {
                chars.next();
                Token::Plus
            }
            '-' => {
                chars.next();
                if chars.peek().map(|&(_, c)| c) == Some('-') {
                    // A `--` comment runs to the end of the line.
                    while chars.next_if(|&(_, c)| c != '\n').is_some() {}
                    continue;
                }
                Token::Minus
            }
            '/' => {
                chars.next();
                Token::Slash
            }
            '!' => {
                chars.next();
                if chars.peek().map(|&(_, c)| c) == Some('=') {
                    chars.next();
                    Token::Ne
                } else {
                    return Err(Error::Lex { found: '!', offset });
                }
            }
            '<' => {
                chars.next();
                match chars.peek().map(|&(_, c)| c) {
                    Some('=') => {
                        chars.next();
                        Token::Le
                    }
                    Some('>') => {
                        chars.next();
                        Token::Ne
                    }
                    _ => Token::Lt,
                }
            }
            '>' => {
                chars.next();
                if chars.peek().map(|&(_, c)| c) == Some('=') {
                    chars.next();
                    Token::Ge
                } else {
                    Token::Gt
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some((_, '\'')) => {
                            // '' is an escaped quote.
                            if chars.peek().map(|&(_, c)| c) == Some('\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some((_, c)) => s.push(c),
                        None => {
                            return Err(Error::UnexpectedEnd {
                                expected: "closing quote",
                            })
                        }
                    }
                }
                Token::Str(s)
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some((_, d)) = chars.next_if(|&(_, d)| d.is_ascii_digit()) {
                    text.push(d);
                }
                if chars.next_if(|&(_, d)| d == '.').is_some() {
                    text.push('.');
                    while let Some((_, d)) = chars.next_if(|&(_, d)| d.is_ascii_digit()) {
                        text.push(d);
                    }
                    let n = text
                        .parse::<f64>()
                        .map_err(|_| Error::Lex { found: c, offset })?;
                    Token::Float(n)
                } else {
                    Token::Int(text)
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut w = String::new();
                while matches!(chars.peek(), Some(&(_, d)) if d.is_alphanumeric() || d == '_') {
                    w.push(chars.next().unwrap().1);
                }
                Token::Word(w)
            }
            _ => return Err(Error::Lex { found: c, offset }),
        };
        if !emit(token, offset) {
            break;
        }
    }
    Ok(())
}

/// The `i64` an integer literal's digits spell, negated when `negative`.
/// Exact; digits outside the `i64` range are an error in every statement.
fn int_literal(digits: &str, negative: bool) -> Result<i64> {
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| {
            if negative {
                0i64.checked_sub_unsigned(n)
            } else {
                i64::try_from(n).ok()
            }
        })
        .ok_or_else(|| Error::UnexpectedToken {
            found: format!("{}{digits}", if negative { "-" } else { "" }),
            expected: "an integer in the 64-bit range",
        })
}

/// `NULL`, `TRUE` and `FALSE`, the literals spelled as words.
fn keyword_literal(w: &str) -> Option<Value> {
    match w.to_ascii_uppercase().as_str() {
        "NULL" => Some(Value::Null),
        "TRUE" => Some(Value::Bool(true)),
        "FALSE" => Some(Value::Bool(false)),
        _ => None,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The error for finding the next token where `expected` belongs.
    fn unexpected(&self, expected: &'static str) -> Error {
        match self.peek() {
            Some(t) => Error::UnexpectedToken {
                found: t.to_string(),
                expected,
            },
            None => Error::UnexpectedEnd { expected },
        }
    }

    /// Fails unless every token has been read.
    fn end(&self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(Error::TrailingTokens {
                found: t.to_string(),
            }),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.keyword_at(self.pos, kw)
    }

    fn keyword_at(&self, pos: usize, kw: &str) -> bool {
        matches!(self.tokens.get(pos), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes the two-word keyword `first second` if it comes next.
    fn eat_keywords(&mut self, first: &str, second: &str) -> bool {
        if self.at_keyword(first) && self.keyword_at(self.pos + 1, second) {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &'static str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(kw))
        }
    }

    fn ident(&mut self, expected: &'static str) -> Result<String> {
        match self.peek() {
            Some(Token::Word(w)) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn expect(&mut self, t: &Token, expected: &'static str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn dml(&mut self) -> Result<DmlStatement> {
        if self.eat_keyword("INSERT") {
            self.expect_keyword("INTO")?;
            let table = self.ident("a table name")?;
            self.expect_keyword("VALUES")?;
            let mut rows = vec![self.values_row()?];
            while self.eat(&Token::Comma) {
                rows.push(self.values_row()?);
            }
            Ok(DmlStatement::Insert { table, rows })
        } else if self.eat_keyword("DELETE") {
            self.expect_keyword("FROM")?;
            let table = self.ident("a table name")?;
            let predicate = if self.eat_keyword("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            Ok(DmlStatement::Delete { table, predicate })
        } else {
            Err(self.unexpected("INSERT or DELETE"))
        }
    }

    fn values_row(&mut self) -> Result<Vec<Value>> {
        self.expect(&Token::LParen, "'(' starting a VALUES row")?;
        let mut row = vec![self.value()?];
        while self.eat(&Token::Comma) {
            row.push(self.value()?);
        }
        self.expect(&Token::RParen, "')' ending a VALUES row")?;
        Ok(row)
    }

    /// A `VALUES` entry: an optionally signed number, a string, `NULL`,
    /// `TRUE` or `FALSE`.
    fn value(&mut self) -> Result<Value> {
        let negative = self.eat(&Token::Minus);
        if negative || self.eat(&Token::Plus) {
            let v = match self.peek() {
                Some(Token::Int(digits)) => Value::Int(int_literal(digits, negative)?),
                Some(Token::Float(f)) => Value::Float(if negative { -f } else { *f }),
                _ => return Err(self.unexpected("a number after its sign")),
            };
            self.pos += 1;
            return Ok(v);
        }
        self.literal()?
            .ok_or_else(|| self.unexpected("literal (number, 'string', NULL, TRUE, FALSE)"))
    }

    /// The literal at the cursor, consumed: an unsigned number, a string,
    /// `NULL`, `TRUE` or `FALSE`. `None`, consuming nothing, otherwise.
    fn literal(&mut self) -> Result<Option<Value>> {
        let v = match self.peek() {
            Some(Token::Int(digits)) => Value::Int(int_literal(digits, false)?),
            Some(Token::Float(f)) => Value::Float(*f),
            Some(Token::Str(s)) => Value::Str(s.clone()),
            Some(Token::Word(w)) => match keyword_literal(w) {
                Some(v) => v,
                None => return Ok(None),
            },
            _ => return Ok(None),
        };
        self.pos += 1;
        Ok(Some(v))
    }

    fn ddl(&mut self) -> Result<DdlStatement> {
        if !self.eat_keyword("CREATE") {
            return Err(self.unexpected("CREATE TABLE or CREATE INDEX"));
        }
        if self.eat_keyword("TABLE") {
            self.create_table().map(DdlStatement::CreateTable)
        } else if self.eat_keyword("INDEX") {
            self.create_index()
        } else {
            Err(self.unexpected("TABLE or INDEX after CREATE"))
        }
    }

    fn create_table(&mut self) -> Result<TableSchema> {
        let name = self.ident("a table name")?;
        self.expect(&Token::LParen, "'(' after the table name")?;
        let mut columns = vec![self.column_def()?];
        while self.eat(&Token::Comma) {
            columns.push(self.column_def()?);
        }
        self.expect(&Token::RParen, "')' closing the column list")?;
        TableSchema::new(name, columns)
    }

    fn column_def(&mut self) -> Result<ColumnDef> {
        let name = self.ident("a column name")?;
        let ty = match self.peek() {
            Some(Token::Word(w)) => column_type(w).ok_or_else(|| Error::UnexpectedToken {
                found: format!("'{w}'"),
                expected: "INT/FLOAT/TEXT-family type",
            })?,
            _ => return Err(self.unexpected("a column type")),
        };
        self.pos += 1;
        // Precision and scale, as in `VARCHAR(64)` or `DECIMAL(10,2)`.
        if self.eat(&Token::LParen) {
            self.type_arg()?;
            if self.eat(&Token::Comma) {
                self.type_arg()?;
            }
            self.expect(&Token::RParen, "')' closing the type's precision")?;
        }
        // Constraints: `PRIMARY KEY` and `NOT NULL` are recorded, any other
        // token is skipped up to the next `,` or `)` outside parentheses.
        let mut def = ColumnDef::new(name, ty);
        let mut depth = 0usize;
        loop {
            if depth == 0 {
                if self.eat_keywords("PRIMARY", "KEY") {
                    def = def.primary_key();
                    continue;
                }
                if self.eat_keywords("NOT", "NULL") {
                    def = def.not_null();
                    continue;
                }
            }
            match self.peek() {
                None | Some(Token::Semi) => return Ok(def),
                Some(Token::Comma | Token::RParen) if depth == 0 => return Ok(def),
                Some(Token::LParen) => depth += 1,
                Some(Token::RParen) => depth -= 1,
                Some(_) => {}
            }
            self.pos += 1;
        }
    }

    /// A type's precision or scale: an integer, read and ignored.
    fn type_arg(&mut self) -> Result<()> {
        match self.peek() {
            Some(Token::Int(digits)) => {
                int_literal(digits, false)?;
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.unexpected("an integer precision")),
        }
    }

    fn create_index(&mut self) -> Result<DdlStatement> {
        if !self.at_keyword("ON") {
            self.ident("an index name or ON")?;
        }
        self.expect_keyword("ON")?;
        let table = self.ident("a table name")?;
        self.expect(&Token::LParen, "'(' after the table name")?;
        let column = self.ident("the indexed column")?;
        self.expect(&Token::RParen, "')' after exactly one indexed column")?;
        if self.eat_keyword("USING") && !self.eat_keyword("HASH") && !self.eat_keyword("BTREE") {
            return Err(self.unexpected("USING HASH or USING BTREE"));
        }
        Ok(DdlStatement::CreateIndex {
            table,
            def: IndexDef { column },
        })
    }

    fn query(&mut self) -> Result<SelectQuery> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut select = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            select.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut from = vec![self.table_ref()?];
        while self.eat(&Token::Comma) {
            from.push(self.table_ref()?);
        }
        let mut q = SelectQuery {
            distinct,
            select,
            from,
            where_clause: None,
            group_by: Vec::new(),
            having: None,
        };
        if self.eat_keyword("WHERE") {
            q.where_clause = Some(self.expr()?);
        }
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            q.group_by.push(self.expr()?);
            while self.eat(&Token::Comma) {
                q.group_by.push(self.expr()?);
            }
        }
        if self.eat_keyword("HAVING") {
            q.having = Some(self.expr()?);
        }
        Ok(q)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Star);
        }
        // `ident.*` → qualified star.
        if let (Some(Token::Word(w)), Some(Token::Dot), Some(Token::Star)) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let alias = w.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedStar(alias));
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident("alias after AS")?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        // `OUTER (…) AS alias`: preserved-side derived table (see
        // `TableRef::Derived::preserved`).
        let preserved = self.eat_keyword("OUTER");
        if self.eat(&Token::LParen) {
            let q = self.query()?;
            self.expect(&Token::RParen, "')'")?;
            self.expect_keyword("AS")?;
            let alias = self.ident("derived-table alias")?;
            return Ok(TableRef::Derived {
                query: Box::new(q),
                alias,
                preserved,
            });
        }
        if preserved {
            return Err(Error::UnexpectedToken {
                found: "OUTER".into(),
                expected: "'(' after OUTER",
            });
        }
        let name = self.ident("table name")?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident("alias after AS")?)
        } else if matches!(self.peek(), Some(Token::Word(w))
            if !is_clause_keyword(w))
        {
            // `FROM hotel h` implicit alias.
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    // Expressions, precedence climbing: OR < AND < NOT < cmp < add < mul.

    fn expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = ScalarExpr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = ScalarExpr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<ScalarExpr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(ScalarExpr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<ScalarExpr> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL postfix.
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let e = ScalarExpr::IsNull(Box::new(lhs));
            return Ok(if negated {
                ScalarExpr::Not(Box::new(e))
            } else {
                e
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(ScalarExpr::binary(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = ScalarExpr::binary(op, lhs, rhs);
        }
    }

    fn mul_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.primary()?;
            lhs = ScalarExpr::binary(op, lhs, rhs);
        }
    }

    fn primary(&mut self) -> Result<ScalarExpr> {
        if let Some(v) = self.literal()? {
            return Ok(ScalarExpr::Literal(v));
        }
        match self.peek().cloned() {
            Some(Token::Minus) => {
                self.bump();
                let inner = self.primary()?;
                Ok(ScalarExpr::binary(BinOp::Sub, ScalarExpr::int(0), inner))
            }
            Some(Token::Dollar) => {
                self.bump();
                let var = self.ident("binding-variable name after '$'")?;
                self.expect(&Token::Dot, "'.' after binding variable")?;
                let column = self.ident("column after '$var.'")?;
                Ok(ScalarExpr::Param { var, column })
            }
            Some(Token::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(e)
            }
            Some(Token::Word(w)) => {
                if w.eq_ignore_ascii_case("EXISTS") {
                    self.bump();
                    self.expect(&Token::LParen, "'(' after EXISTS")?;
                    let q = self.query()?;
                    self.expect(&Token::RParen, "')'")?;
                    return Ok(ScalarExpr::Exists(Box::new(q)));
                }
                if let Some(func) = agg_func(&w) {
                    if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                        self.bump();
                        self.bump();
                        let arg = if self.eat(&Token::Star) {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect(&Token::RParen, "')'")?;
                        return Ok(ScalarExpr::Aggregate { func, arg });
                    }
                }
                // Plain or qualified column.
                self.bump();
                if self.eat(&Token::Dot) {
                    let name = self.ident("column after '.'")?;
                    Ok(ScalarExpr::Column {
                        qualifier: Some(w),
                        name,
                    })
                } else {
                    Ok(ScalarExpr::Column {
                        qualifier: None,
                        name: w,
                    })
                }
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

fn agg_func(w: &str) -> Option<AggFunc> {
    match w.to_ascii_uppercase().as_str() {
        "COUNT" => Some(AggFunc::Count),
        "SUM" => Some(AggFunc::Sum),
        "AVG" => Some(AggFunc::Avg),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        _ => None,
    }
}

fn column_type(name: &str) -> Option<ColumnType> {
    match name.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(ColumnType::Int),
        "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => Some(ColumnType::Float),
        "TEXT" | "STRING" | "VARCHAR" | "CHAR" | "DATE" | "TIMESTAMP" => Some(ColumnType::Str),
        _ => None,
    }
}

fn is_clause_keyword(w: &str) -> bool {
    matches!(
        w.to_ascii_uppercase().as_str(),
        "WHERE" | "GROUP" | "HAVING" | "ORDER" | "AS" | "ON" | "FROM" | "SELECT" | "OUTER"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_tag_queries() {
        // Every tag query from Figure 1 (and the composed queries' shapes).
        for src in [
            "SELECT metroid, metroname FROM metroarea",
            "SELECT * FROM hotel WHERE metro_id=$m.metroid AND starrating > 4",
            "SELECT SUM(capacity) FROM confroom WHERE chotel_id=$h.hotelid",
            "SELECT SUM(capacity) FROM confroom, hotel \
             WHERE chotel_id=hotelid AND metro_id=$m.metroid",
            "SELECT * FROM confroom WHERE chotel_id=$h.hotelid",
            "SELECT COUNT(a_id), startdate FROM availability, guestroom \
             WHERE rhotel_id=$h.hotelid AND a_r_id=r_id GROUP BY startdate",
            "SELECT COUNT(a_id) FROM availability, guestroom, hotel \
             WHERE rhotel_id=hotelid AND a_r_id=r_id AND metro_id=$m.metroid \
             AND startdate=$a.startdate",
        ] {
            parse_query(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn parses_derived_table_with_group_by_all() {
        let q = parse_query(
            "SELECT SUM(capacity), TEMP.* \
             FROM confroom, (SELECT * FROM hotel \
                             WHERE metro_id=$m.metroid AND starrating > 4) AS TEMP \
             WHERE chotel_id=TEMP.hotelid \
             GROUP BY TEMP.hotelid, TEMP.gym",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert!(matches!(q.select[1], SelectItem::QualifiedStar(ref a) if a == "TEMP"));
        assert!(matches!(q.from[1], TableRef::Derived { .. }));
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.parameters(), vec!["m".to_owned()]);
    }

    #[test]
    fn parses_exists_with_having() {
        fn count_exists(e: &ScalarExpr, n: &mut usize) {
            match e {
                ScalarExpr::Exists(_) => *n += 1,
                ScalarExpr::Binary { lhs, rhs, .. } => {
                    count_exists(lhs, n);
                    count_exists(rhs, n);
                }
                ScalarExpr::Not(e) => count_exists(e, n),
                _ => {}
            }
        }
        let q = parse_query(
            "SELECT * FROM confroom \
             WHERE chotel_id=$s_new.hotelid \
             AND EXISTS (SELECT COUNT(a_id), startdate \
                         FROM availability, guestroom \
                         WHERE rhotel_id=$s_new.hotelid AND a_r_id=r_id \
                         GROUP BY startdate) \
             AND EXISTS (SELECT SUM(capacity) FROM confroom \
                         WHERE chotel_id=$s_new.hotelid \
                         HAVING SUM(capacity)>100)",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        let mut count = 0;
        count_exists(&w, &mut count);
        assert_eq!(count, 2);
    }

    #[test]
    fn roundtrips_through_printer() {
        let srcs = [
            "SELECT metroid, metroname FROM metroarea",
            "SELECT * FROM hotel WHERE metro_id = $m.metroid AND starrating > 4",
            "SELECT COUNT(*) AS n, startdate FROM availability GROUP BY startdate",
            "SELECT SUM(capacity), TEMP.* FROM confroom, \
             (SELECT * FROM hotel WHERE starrating > 4) AS TEMP \
             WHERE chotel_id = TEMP.hotelid GROUP BY TEMP.hotelid",
            "SELECT * FROM t WHERE NOT (x IS NULL) OR y = 'a''b'",
            "SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE u_id = t_id)",
        ];
        for src in srcs {
            let q1 = parse_query(src).unwrap();
            let q2 = parse_query(&q1.to_sql()).unwrap();
            assert_eq!(q1, q2, "{src}");
        }
        // Every literal the printer emits lexes back to the same value.
        for (lit, want) in [
            ("TRUE", Value::Bool(true)),
            ("FALSE", Value::Bool(false)),
            ("9007199254740993", Value::Int(9_007_199_254_740_993)),
            ("9223372036854775807", Value::Int(i64::MAX)),
            ("1000000000000000.0", Value::Float(1e15)),
            ("100000000000000000000.0", Value::Float(1e20)),
            ("'o''hare'", Value::Str("o'hare".into())),
        ] {
            let src = format!("SELECT * FROM t WHERE a = {lit}");
            let q1 = parse_query(&src).unwrap();
            let Some(ScalarExpr::Binary { rhs, .. }) = &q1.where_clause else {
                panic!("{src}")
            };
            assert_eq!(**rhs, ScalarExpr::Literal(want), "{src}");
            let q2 = parse_query(&q1.to_sql()).unwrap();
            assert_eq!(q1, q2, "{src}");
        }
    }

    /// One grammar for every statement kind: exact integers, `TRUE` and
    /// `FALSE`, string literals in DDL constraints, trailing text, names
    /// that are no identifiers, and integers beyond `i64`. Each case gives
    /// the rows left in `t` after the script and the statements, or the
    /// first error.
    #[test]
    fn one_grammar_reads_every_statement() {
        type Rows = Vec<Vec<Value>>;
        fn outcome(ddl: &str, statements: &[&str]) -> Result<Rows> {
            let mut db = crate::ddl::database_from_ddl(ddl)?;
            for sql in statements {
                if sql.starts_with("SELECT") {
                    parse_query(sql)?;
                } else {
                    db.execute_dml(sql)?;
                }
            }
            Ok(db.table("t")?.rows().to_vec())
        }
        let int = |i: i64| vec![Value::Int(i)];
        let too_big = Err(Error::UnexpectedToken {
            found: "9223372036854775808".into(),
            expected: "an integer in the 64-bit range",
        });
        let cases: Vec<(&str, Vec<&str>, Result<Rows>)> = vec![
            // Integers are exact: 2^53 + 1 is not 2^53.
            (
                "CREATE TABLE t (a INT)",
                vec![
                    "INSERT INTO t VALUES (9007199254740992), (9007199254740993)",
                    "DELETE FROM t WHERE a = 9007199254740993",
                ],
                Ok(vec![int(9_007_199_254_740_992)]),
            ),
            // TRUE and FALSE are literals in a predicate, as in VALUES.
            (
                "CREATE TABLE t (a INT)",
                vec![
                    "INSERT INTO t VALUES (1), (2), (NULL)",
                    "DELETE FROM t WHERE (a > 1) = TRUE",
                ],
                Ok(vec![int(1), vec![Value::Null]]),
            ),
            (
                "CREATE TABLE t (a INT)",
                vec![
                    "INSERT INTO t VALUES (1), (2), (NULL)",
                    "DELETE FROM t WHERE (a > 1) = FALSE;",
                ],
                Ok(vec![int(2), vec![Value::Null]]),
            ),
            // A constraint's string literal may hold ',' or '--'.
            (
                "CREATE TABLE t (a TEXT DEFAULT 'x,y', b TEXT DEFAULT '--' NOT NULL) -- note",
                vec!["INSERT INTO t VALUES ('p', 'q')"],
                Ok(vec![vec![Value::Str("p".into()), Value::Str("q".into())]]),
            ),
            // Text after the column list, and a column name that is no
            // identifier, are parse errors.
            (
                "CREATE TABLE t (a INT) WITH GARBAGE",
                vec![],
                Err(Error::TrailingTokens {
                    found: "'WITH'".into(),
                }),
            ),
            (
                "CREATE TABLE t (a-b INT)",
                vec![],
                Err(Error::UnexpectedToken {
                    found: "'-'".into(),
                    expected: "a column type",
                }),
            ),
            // An integer beyond i64 is rejected in SELECT as in INSERT, and
            // a signed VALUES entry reaches i64::MIN.
            (
                "CREATE TABLE t (a INT)",
                vec!["SELECT a FROM t WHERE a = 9223372036854775808"],
                too_big.clone(),
            ),
            (
                "CREATE TABLE t (a INT)",
                vec!["INSERT INTO t VALUES (9223372036854775808)"],
                too_big,
            ),
            (
                "CREATE TABLE t (a INT)",
                vec!["INSERT INTO t VALUES (-9223372036854775808), (+7)"],
                Ok(vec![int(i64::MIN), int(7)]),
            ),
        ];
        for (ddl, statements, want) in cases {
            assert_eq!(outcome(ddl, &statements), want, "{ddl}; {statements:?}");
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("select a from t where a > 1 group by a having count(*) > 2").unwrap();
        assert!(q.having.is_some());
    }

    #[test]
    fn implicit_and_explicit_aliases() {
        let q = parse_query("SELECT h.hotelid FROM hotel h, metroarea AS m").unwrap();
        assert_eq!(q.from[0].binding_name(), "h");
        assert_eq!(q.from[1].binding_name(), "m");
    }

    #[test]
    fn distinct_flag() {
        assert!(parse_query("SELECT DISTINCT a FROM t").unwrap().distinct);
        assert!(!parse_query("SELECT a FROM t").unwrap().distinct);
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            parse_query("SELECT FROM t"),
            Err(Error::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse_query("SELECT a"),
            Err(Error::UnexpectedEnd { .. }) | Err(Error::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse_query("SELECT a FROM t extra junk ="),
            Err(Error::TrailingTokens { .. }) | Err(Error::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse_query("SELECT a FROM (SELECT b FROM u)"),
            Err(Error::UnexpectedEnd { .. }) | Err(Error::UnexpectedToken { .. })
        ));
        assert!(matches!(parse_query(""), Err(Error::UnexpectedEnd { .. })));
    }

    #[test]
    fn string_escape() {
        let q = parse_query("SELECT * FROM t WHERE a = 'o''hare'").unwrap();
        let Some(ScalarExpr::Binary { rhs, .. }) = q.where_clause else {
            panic!()
        };
        assert_eq!(*rhs, ScalarExpr::Literal(Value::Str("o'hare".into())));
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse_query("SELECT a + b * c FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.select[0] else {
            panic!()
        };
        let ScalarExpr::Binary { op, rhs, .. } = expr else {
            panic!()
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**rhs, ScalarExpr::Binary { op: BinOp::Mul, .. }));
    }
}
