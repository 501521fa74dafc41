//! A SQL subset parser and lowerer producing logical plans.
//!
//! Covers the surface the 22 TPC-H queries need:
//!
//! ```sql
//! SELECT [DISTINCT] expr [AS name], agg(expr), ...
//! FROM t [alias] | (SELECT ...) alias
//!   [[INNER] JOIN | LEFT [OUTER] JOIN t2 ON a.x = b.y [AND ...]] ...
//! [WHERE <boolean expr>]          -- incl. IN/EXISTS/scalar subqueries
//! [GROUP BY expr, ...]
//! [HAVING <boolean expr>]
//! [ORDER BY col|position [ASC|DESC], ...]
//! [LIMIT n]
//! ```
//!
//! Expressions: arithmetic, comparisons, `AND/OR/NOT`, `BETWEEN`, `IN`,
//! `LIKE`, `CASE WHEN`, `EXTRACT(YEAR FROM ...)`, `SUBSTRING`, decimal/
//! date/interval/string literals. Literals are coerced against column
//! types ('1995-03-05' becomes a date when compared to a date column;
//! numeric literals pick up a decimal column's scale).
//!
//! Subqueries are decorrelated at lowering time (see [`crate::subquery`]):
//! uncorrelated scalars become single-row cross joins, correlated scalars
//! become grouped joins on the correlation keys, IN/EXISTS become
//! Semi/Anti joins, and the Q21-style `EXISTS (... <> ...)` pattern is
//! rewritten through a grouped min/max. `count(distinct x)` is lowered to
//! two groupings (`split_distinct`).

use vectorh_common::types::date;
use vectorh_common::{DataType, Result, Schema, Value, VhError};
use vectorh_exec::aggr::AggFn;
use vectorh_exec::expr::{CmpOp, Expr};
use vectorh_exec::sort::Dir;

use crate::logical::{CatalogInfo, JoinKind, LogicalPlan};

// --- tokenizer ---------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Dec(String),
    Str(String),
    Sym(char),
    // two-char symbols
    Le,
    Ge,
    Ne,
}

fn tokenize(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let b = input.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < b.len() && matches!(b[i] as char, 'a'..='z' | 'A'..='Z' | '0'..='9' | '_')
                {
                    i += 1;
                }
                out.push(Tok::Ident(input[start..i].to_lowercase()));
            }
            '0'..='9' => {
                let start = i;
                let mut dec = false;
                while i < b.len() && matches!(b[i] as char, '0'..='9' | '.') {
                    if b[i] == b'.' {
                        dec = true;
                    }
                    i += 1;
                }
                if dec {
                    out.push(Tok::Dec(input[start..i].to_string()));
                } else {
                    out.push(Tok::Int(input[start..i].parse().map_err(|_| {
                        VhError::Plan(format!("bad integer literal '{}'", &input[start..i]))
                    })?));
                }
            }
            '\'' => {
                i += 1;
                let start = i;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                if i >= b.len() {
                    return Err(VhError::Plan("unterminated string literal".into()));
                }
                out.push(Tok::Str(input[start..i].to_string()));
                i += 1;
            }
            '<' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Tok::Le);
                i += 2;
            }
            '>' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Tok::Ge);
                i += 2;
            }
            '<' if i + 1 < b.len() && b[i + 1] == b'>' => {
                out.push(Tok::Ne);
                i += 2;
            }
            '!' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Tok::Ne);
                i += 2;
            }
            '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | '=' | '<' | '>' => {
                out.push(Tok::Sym(c));
                i += 1;
            }
            other => return Err(VhError::Plan(format!("unexpected character '{other}'"))),
        }
    }
    Ok(out)
}

// --- parse tree (pre-resolution) ---------------------------------------------

#[derive(Debug, Clone)]
pub(crate) enum Ast {
    Col(Option<String>, String),
    /// Already-resolved column position (introduced during lowering, never
    /// produced by the parser).
    ResolvedCol(usize),
    IntLit(i64),
    DecLit(String),
    StrLit(String),
    DateLit(i32),
    Star,
    Bin(String, Box<Ast>, Box<Ast>),
    Not(Box<Ast>),
    Between(Box<Ast>, Box<Ast>, Box<Ast>),
    InList(Box<Ast>, Vec<Ast>),
    Like(Box<Ast>, String, bool),
    Agg(String, bool, Box<Ast>), // fn, distinct, arg (Star for count(*))
    Case(Vec<(Ast, Ast)>, Box<Ast>),
    ExtractYear(Box<Ast>),
    Substr(Box<Ast>, usize, usize),
    /// Scalar subquery `( SELECT agg(...) ... )`.
    Scalar(Box<QueryAst>),
    /// `lhs [NOT] IN ( SELECT ... )`.
    InSub(Box<Ast>, Box<QueryAst>, bool),
    /// `[NOT] EXISTS ( SELECT ... )`.
    Exists(Box<QueryAst>, bool),
}

#[derive(Debug, Clone)]
pub(crate) enum OrderKey {
    Pos(usize),
    Name(String),
}

#[derive(Debug, Clone)]
pub(crate) enum FromItem {
    /// table name, alias
    Table(String, String),
    /// derived table (subquery in FROM), alias
    Derived(Box<QueryAst>, String),
}

#[derive(Debug, Clone)]
pub(crate) struct FromClause {
    pub kind: JoinKind,
    pub item: FromItem,
    /// None only for the first FROM entry.
    pub on: Option<Ast>,
}

/// One parsed SELECT block (possibly nested as a subquery).
#[derive(Debug, Clone)]
pub(crate) struct QueryAst {
    pub distinct: bool,
    pub items: Vec<(Ast, Option<String>)>,
    pub from: Vec<FromClause>,
    pub where_: Option<Ast>,
    pub group_by: Vec<Ast>,
    pub having: Option<Ast>,
    pub order_by: Vec<(OrderKey, Dir)>,
    pub limit: Option<usize>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Current expression-nesting depth; bounded so hostile inputs (200
    /// nested parens, towers of CASE) get a Plan error, not a stack overflow.
    depth: usize,
}

/// Recursion budget for nested expressions and subqueries. TPC-H tops out
/// around depth 6; 64 leaves generous headroom while keeping worst-case
/// stack usage far below thread limits.
const MAX_EXPR_DEPTH: usize = 64;

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.pos + off)
    }

    /// Non-consuming keyword lookahead (the join loop depends on this: a
    /// dangling `inner` with no `join` after it must NOT be swallowed).
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn peek_kw_at(&self, off: usize, kw: &str) -> bool {
        matches!(self.peek_at(off), Some(Tok::Ident(s)) if s == kw)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(VhError::Plan(format!(
                "expected '{kw}' at token {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            Err(VhError::Plan(format!(
                "expected '{c}' at token {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            t => Err(VhError::Plan(format!("expected identifier, got {t:?}"))),
        }
    }

    fn int_lit(&mut self) -> Result<i64> {
        match self.next() {
            Some(Tok::Int(n)) => Ok(n),
            t => Err(VhError::Plan(format!(
                "expected integer literal, got {t:?}"
            ))),
        }
    }

    // expr := or_expr
    fn expr(&mut self) -> Result<Ast> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(VhError::Plan(format!(
                "expression nesting deeper than {MAX_EXPR_DEPTH}"
            )));
        }
        let e = self.or_expr();
        self.depth -= 1;
        e
    }

    fn or_expr(&mut self) -> Result<Ast> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or") {
            let r = self.and_expr()?;
            e = Ast::Bin("or".into(), Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Ast> {
        let mut e = self.not_expr()?;
        while self.eat_kw("and") {
            let r = self.not_expr()?;
            e = Ast::Bin("and".into(), Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Ast> {
        // Count NOT prefixes iteratively — a `not not not ...` tower must
        // not consume a stack frame per token.
        let mut nots = 0usize;
        while self.peek_kw("not")
            && !self.peek_kw_at(1, "like")
            && !self.peek_kw_at(1, "in")
            && !self.peek_kw_at(1, "between")
        {
            self.pos += 1;
            nots += 1;
        }
        let mut e = self.cmp_expr()?;
        for _ in 0..nots {
            e = Ast::Not(Box::new(e));
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Ast> {
        let e = self.add_expr()?;
        if self.eat_kw("between") {
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            return Ok(Ast::Between(Box::new(e), Box::new(lo), Box::new(hi)));
        }
        if self.eat_kw("in") {
            return self.in_rest(e, false);
        }
        let negated = if self.eat_kw("not") {
            if self.eat_kw("in") {
                return self.in_rest(e, true);
            }
            if self.eat_kw("between") {
                let lo = self.add_expr()?;
                self.expect_kw("and")?;
                let hi = self.add_expr()?;
                return Ok(Ast::Not(Box::new(Ast::Between(
                    Box::new(e),
                    Box::new(lo),
                    Box::new(hi),
                ))));
            }
            self.expect_kw("like")?;
            true
        } else if self.eat_kw("like") {
            false
        } else {
            let op = match self.peek() {
                Some(Tok::Sym('=')) => Some("="),
                Some(Tok::Sym('<')) => Some("<"),
                Some(Tok::Sym('>')) => Some(">"),
                Some(Tok::Le) => Some("<="),
                Some(Tok::Ge) => Some(">="),
                Some(Tok::Ne) => Some("<>"),
                _ => None,
            };
            if let Some(op) = op {
                self.pos += 1;
                let r = self.add_expr()?;
                return Ok(Ast::Bin(op.into(), Box::new(e), Box::new(r)));
            }
            return Ok(e);
        };
        match self.next() {
            Some(Tok::Str(p)) => Ok(Ast::Like(Box::new(e), p, negated)),
            t => Err(VhError::Plan(format!(
                "LIKE expects a string pattern, got {t:?}"
            ))),
        }
    }

    /// Tail of `[NOT] IN ( ... )`: literal list or subquery.
    fn in_rest(&mut self, lhs: Ast, negated: bool) -> Result<Ast> {
        self.expect_sym('(')?;
        if self.eat_kw("select") {
            let q = self.parse_select()?;
            self.expect_sym(')')?;
            return Ok(Ast::InSub(Box::new(lhs), Box::new(q), negated));
        }
        let mut items = vec![self.add_expr()?];
        while self.eat_sym(',') {
            items.push(self.add_expr()?);
        }
        self.expect_sym(')')?;
        let inlist = Ast::InList(Box::new(lhs), items);
        Ok(if negated {
            Ast::Not(Box::new(inlist))
        } else {
            inlist
        })
    }

    fn add_expr(&mut self) -> Result<Ast> {
        let mut e = self.mul_expr()?;
        loop {
            if self.eat_sym('+') {
                e = Ast::Bin("+".into(), Box::new(e), Box::new(self.mul_expr()?));
            } else if self.eat_sym('-') {
                e = Ast::Bin("-".into(), Box::new(e), Box::new(self.mul_expr()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Ast> {
        let mut e = self.atom()?;
        loop {
            if self.eat_sym('*') {
                e = Ast::Bin("*".into(), Box::new(e), Box::new(self.atom()?));
            } else if self.eat_sym('/') {
                e = Ast::Bin("/".into(), Box::new(e), Box::new(self.atom()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn atom(&mut self) -> Result<Ast> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(Ast::IntLit(v)),
            Some(Tok::Dec(s)) => Ok(Ast::DecLit(s)),
            Some(Tok::Str(s)) => Ok(Ast::StrLit(s)),
            Some(Tok::Sym('(')) => {
                if self.eat_kw("select") {
                    let q = self.parse_select()?;
                    self.expect_sym(')')?;
                    return Ok(Ast::Scalar(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_sym(')')?;
                Ok(e)
            }
            Some(Tok::Sym('*')) => Ok(Ast::Star),
            Some(Tok::Sym('-')) => {
                // Unary minus; fold `--x` towers iteratively so each extra
                // sign costs an Ast node, not a stack frame.
                let mut negs = 1usize;
                while self.eat_sym('-') {
                    negs += 1;
                }
                let mut e = self.atom()?;
                for _ in 0..negs {
                    e = Ast::Bin("-".into(), Box::new(Ast::IntLit(0)), Box::new(e));
                }
                Ok(e)
            }
            Some(Tok::Ident(name)) => self.ident_atom(name),
            t => Err(VhError::Plan(format!("unexpected token {t:?}"))),
        }
    }

    /// An identifier atom: special forms (CASE, EXTRACT, SUBSTRING, DATE,
    /// INTERVAL, EXISTS, aggregates) are gated on their signature next-token
    /// so the same words keep working as plain column names.
    fn ident_atom(&mut self, name: String) -> Result<Ast> {
        match name.as_str() {
            "case" if self.peek_kw("when") => {
                let mut arms = Vec::new();
                while self.eat_kw("when") {
                    let c = self.expr()?;
                    self.expect_kw("then")?;
                    let v = self.expr()?;
                    arms.push((c, v));
                }
                self.expect_kw("else")?;
                let e = self.expr()?;
                self.expect_kw("end")?;
                return Ok(Ast::Case(arms, Box::new(e)));
            }
            "extract" if matches!(self.peek(), Some(Tok::Sym('('))) => {
                self.pos += 1;
                self.expect_kw("year")?;
                self.expect_kw("from")?;
                let e = self.expr()?;
                self.expect_sym(')')?;
                return Ok(Ast::ExtractYear(Box::new(e)));
            }
            "substring" | "substr" if matches!(self.peek(), Some(Tok::Sym('('))) => {
                self.pos += 1;
                let e = self.expr()?;
                let (start, len) = if self.eat_sym(',') {
                    let s = self.int_lit()?;
                    self.expect_sym(',')?;
                    (s, self.int_lit()?)
                } else {
                    self.expect_kw("from")?;
                    let s = self.int_lit()?;
                    self.expect_kw("for")?;
                    (s, self.int_lit()?)
                };
                self.expect_sym(')')?;
                if start < 1 {
                    return Err(VhError::Plan("SUBSTRING start is 1-based".into()));
                }
                if len < 0 {
                    return Err(VhError::Plan(
                        "SUBSTRING length must be non-negative".into(),
                    ));
                }
                return Ok(Ast::Substr(Box::new(e), start as usize, len as usize));
            }
            "date" if matches!(self.peek(), Some(Tok::Str(_))) => {
                if let Some(Tok::Str(s)) = self.next() {
                    let d = date::parse(&s)
                        .ok_or_else(|| VhError::Plan(format!("bad date literal '{s}'")))?;
                    return Ok(Ast::DateLit(d));
                }
                unreachable!()
            }
            "interval" if matches!(self.peek(), Some(Tok::Str(_))) => {
                if let Some(Tok::Str(s)) = self.next() {
                    let n: i64 = s
                        .parse()
                        .map_err(|_| VhError::Plan(format!("bad interval literal '{s}'")))?;
                    if !self.eat_kw("day") && !self.eat_kw("days") {
                        return Err(VhError::Plan("only DAY intervals are supported".into()));
                    }
                    return Ok(Ast::IntLit(n));
                }
                unreachable!()
            }
            "exists" if matches!(self.peek(), Some(Tok::Sym('('))) => {
                self.pos += 1;
                self.expect_kw("select")?;
                let q = self.parse_select()?;
                self.expect_sym(')')?;
                return Ok(Ast::Exists(Box::new(q), false));
            }
            _ => {}
        }
        let aggs = ["sum", "count", "avg", "min", "max"];
        if aggs.contains(&name.as_str()) && self.eat_sym('(') {
            let distinct = self.eat_kw("distinct");
            let arg = if matches!(self.peek(), Some(Tok::Sym('*'))) {
                self.pos += 1;
                Ast::Star
            } else {
                self.expr()?
            };
            self.expect_sym(')')?;
            return Ok(Ast::Agg(name, distinct, Box::new(arg)));
        }
        if self.eat_sym('.') {
            let col = self.ident()?;
            Ok(Ast::Col(Some(name), col))
        } else {
            Ok(Ast::Col(None, name))
        }
    }

    /// Parse one SELECT block. The leading `select` keyword has already been
    /// consumed by the caller.
    fn parse_select(&mut self) -> Result<QueryAst> {
        // Subqueries nest through here (scalar, EXISTS/IN, derived tables);
        // share the expression budget so `(select (select ...` towers error
        // out instead of exhausting the stack.
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(VhError::Plan(format!(
                "query nesting deeper than {MAX_EXPR_DEPTH}"
            )));
        }
        let q = self.parse_select_inner();
        self.depth -= 1;
        q
    }

    fn parse_select_inner(&mut self) -> Result<QueryAst> {
        let distinct = self.eat_kw("distinct");
        let mut items: Vec<(Ast, Option<String>)> = Vec::new();
        loop {
            if matches!(self.peek(), Some(Tok::Sym('*'))) && items.is_empty() {
                self.pos += 1;
                items.push((Ast::Star, None));
            } else {
                let e = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push((e, alias));
            }
            if !self.eat_sym(',') {
                break;
            }
        }

        self.expect_kw("from")?;
        let mut from = vec![FromClause {
            kind: JoinKind::Inner,
            item: self.parse_from_item()?,
            on: None,
        }];
        loop {
            let kind = if self.peek_kw("join") {
                self.pos += 1;
                JoinKind::Inner
            } else if self.peek_kw("inner") && self.peek_kw_at(1, "join") {
                self.pos += 2;
                JoinKind::Inner
            } else if self.peek_kw("left")
                && self.peek_kw_at(1, "outer")
                && self.peek_kw_at(2, "join")
            {
                self.pos += 3;
                JoinKind::LeftOuter
            } else if self.peek_kw("left") && self.peek_kw_at(1, "join") {
                self.pos += 2;
                JoinKind::LeftOuter
            } else {
                break;
            };
            let item = self.parse_from_item()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            from.push(FromClause {
                kind,
                item,
                on: Some(on),
            });
        }

        let where_ = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(',') {
                    break;
                }
            }
        }

        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let key = match self.next() {
                    Some(Tok::Int(n)) => OrderKey::Pos(
                        (n as usize)
                            .checked_sub(1)
                            .ok_or_else(|| VhError::Plan("ORDER BY position is 1-based".into()))?,
                    ),
                    Some(Tok::Ident(name)) => OrderKey::Name(name),
                    t => return Err(VhError::Plan(format!("bad ORDER BY key {t:?}"))),
                };
                let dir = if self.eat_kw("desc") {
                    Dir::Desc
                } else {
                    self.eat_kw("asc");
                    Dir::Asc
                };
                order_by.push((key, dir));
                if !self.eat_sym(',') {
                    break;
                }
            }
        }

        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as usize),
                t => return Err(VhError::Plan(format!("bad LIMIT {t:?}"))),
            }
        } else {
            None
        };

        Ok(QueryAst {
            distinct,
            items,
            from,
            where_,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        if self.eat_sym('(') {
            self.expect_kw("select")?;
            let q = self.parse_select()?;
            self.expect_sym(')')?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(FromItem::Derived(Box::new(q), alias));
        }
        let name = self.ident()?;
        const KEYWORDS: [&str; 12] = [
            "join", "inner", "left", "right", "outer", "on", "where", "group", "having", "order",
            "limit", "union",
        ];
        let alias = if self.eat_kw("as") {
            self.ident()?
        } else {
            match self.peek() {
                Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
                    let a = s.clone();
                    self.pos += 1;
                    a
                }
                _ => name.clone(),
            }
        };
        Ok(FromItem::Table(name, alias))
    }
}

// --- name scope & resolution --------------------------------------------------

/// Maps (qualifier, column) to positions in the running plan's output.
pub(crate) struct Scope {
    /// (alias, column name) per output position.
    pub cols: Vec<(String, String)>,
    /// (start, end, matched_col): column ranges made nullable by a LEFT
    /// OUTER join, with the position of that join's `__matched` indicator.
    pub nullable: Vec<(usize, usize, usize)>,
}

impl Scope {
    pub(crate) fn of(cols: Vec<(String, String)>) -> Scope {
        Scope {
            cols,
            nullable: Vec::new(),
        }
    }

    pub(crate) fn resolve(&self, qual: &Option<String>, name: &str) -> Result<usize> {
        let hits: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (a, c))| c == name && qual.as_ref().map(|q| q == a).unwrap_or(true))
            .map(|(i, _)| i)
            .collect();
        match hits.len() {
            1 => Ok(hits[0]),
            0 => Err(VhError::Plan(format!("unknown column '{name}'"))),
            _ => Err(VhError::Plan(format!("ambiguous column '{name}'"))),
        }
    }

    /// Quiet single-hit lookup (None on unknown or ambiguous).
    pub(crate) fn lookup(&self, qual: &Option<String>, name: &str) -> Option<usize> {
        self.resolve(qual, name).ok()
    }

    /// The `__matched` indicator guarding `col`, if `col` sits on the
    /// nullable side of a LEFT OUTER join.
    pub(crate) fn matched_of(&self, col: usize) -> Option<usize> {
        self.nullable
            .iter()
            .find(|(s, e, _)| col >= *s && col < *e)
            .map(|&(_, _, m)| m)
    }
}

/// Coerce a literal to a column type when the other comparison side is a
/// column (dates from strings, decimal scaling of ints). Overflowing
/// rescales keep the original value rather than panicking.
fn coerce(value: Value, target: DataType) -> Value {
    match (&value, target) {
        (Value::Str(s), DataType::Date) => date::parse(s).map(Value::Date).unwrap_or(value),
        (Value::I64(v), DataType::Decimal { scale }) => 10i64
            .checked_pow(scale as u32)
            .and_then(|f| v.checked_mul(f))
            .map(|raw| Value::Decimal(raw, scale))
            .unwrap_or(value),
        (Value::Decimal(raw, s), DataType::Decimal { scale }) if *s < scale => 10i64
            .checked_pow((scale - s) as u32)
            .and_then(|f| raw.checked_mul(f))
            .map(|r| Value::Decimal(r, scale))
            .unwrap_or(value),
        _ => value,
    }
}

/// Parse a decimal literal without panicking: scale capped at 4 (the
/// engine's MAX_SCALE, extra digits truncated), overflow rejected.
fn dec_lit_value(s: &str) -> Option<Value> {
    let (int_part, frac_part) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    if frac_part.contains('.') {
        return None; // "1.2.3"
    }
    let scale = frac_part.len().min(4);
    let frac = &frac_part[..scale];
    let int_v: i64 = if int_part.is_empty() {
        0
    } else {
        int_part.parse().ok()?
    };
    let frac_v: i64 = if frac.is_empty() {
        0
    } else {
        frac.parse().ok()?
    };
    let f = 10i64.checked_pow(scale as u32)?;
    let raw = int_v.checked_mul(f)?.checked_add(frac_v)?;
    Some(Value::Decimal(raw, scale as u8))
}

fn lit_of(ast: &Ast) -> Option<Value> {
    match ast {
        Ast::IntLit(v) => Some(Value::I64(*v)),
        Ast::DecLit(s) => dec_lit_value(s),
        Ast::StrLit(s) => Some(Value::Str(s.clone())),
        Ast::DateLit(d) => Some(Value::Date(*d)),
        _ => None,
    }
}

fn is_lit(ast: &Ast) -> bool {
    matches!(
        ast,
        Ast::IntLit(_) | Ast::DecLit(_) | Ast::StrLit(_) | Ast::DateLit(_)
    )
}

/// Resolve a (non-aggregate) AST into an executable expression.
pub(crate) fn resolve_expr(ast: &Ast, scope: &Scope, schema: &Schema) -> Result<Expr> {
    Ok(match ast {
        Ast::Col(q, n) => Expr::Col(scope.resolve(q, n)?),
        Ast::ResolvedCol(i) => Expr::Col(*i),
        Ast::IntLit(_) | Ast::DecLit(_) | Ast::StrLit(_) | Ast::DateLit(_) => Expr::Lit(
            lit_of(ast).ok_or_else(|| VhError::Plan(format!("bad numeric literal {ast:?}")))?,
        ),
        Ast::Star => return Err(VhError::Plan("'*' outside count(*)".into())),
        Ast::Not(e) => Expr::Not(Box::new(resolve_expr(e, scope, schema)?)),
        Ast::Between(e, lo, hi) => {
            let ex = resolve_expr(e, scope, schema)?;
            let t = ex.dtype(schema)?;
            let lo = coerce_resolved(lo, scope, schema, t)?;
            let hi = coerce_resolved(hi, scope, schema, t)?;
            Expr::Between(Box::new(ex), Box::new(lo), Box::new(hi))
        }
        Ast::InList(e, items) => {
            let ex = resolve_expr(e, scope, schema)?;
            let t = ex.dtype(schema)?;
            let vals: Result<Vec<Value>> = items
                .iter()
                .map(|i| {
                    lit_of(i)
                        .map(|v| coerce(v, t))
                        .ok_or_else(|| VhError::Plan("IN list items must be literals".into()))
                })
                .collect();
            Expr::InList(Box::new(ex), vals?)
        }
        Ast::Like(e, pat, negated) => {
            let ex = resolve_expr(e, scope, schema)?;
            if *negated {
                Expr::NotLike(Box::new(ex), pat.clone())
            } else {
                Expr::Like(Box::new(ex), pat.clone())
            }
        }
        Ast::Case(arms, else_e) => {
            let mut out = Vec::new();
            for (c, v) in arms {
                out.push((
                    resolve_expr(c, scope, schema)?,
                    resolve_expr(v, scope, schema)?,
                ));
            }
            Expr::Case(out, Box::new(resolve_expr(else_e, scope, schema)?))
        }
        Ast::ExtractYear(e) => Expr::ExtractYear(Box::new(resolve_expr(e, scope, schema)?)),
        Ast::Substr(e, start, len) => {
            Expr::Substr(Box::new(resolve_expr(e, scope, schema)?), *start, *len)
        }
        Ast::Bin(op, l, r) => {
            match op.as_str() {
                "and" => Expr::And(vec![
                    resolve_expr(l, scope, schema)?,
                    resolve_expr(r, scope, schema)?,
                ]),
                "or" => Expr::Or(vec![
                    resolve_expr(l, scope, schema)?,
                    resolve_expr(r, scope, schema)?,
                ]),
                "+" | "-" | "*" | "/" => {
                    let le = resolve_expr(l, scope, schema)?;
                    let re = resolve_expr(r, scope, schema)?;
                    match op.as_str() {
                        "+" => Expr::add(le, re),
                        "-" => Expr::sub(le, re),
                        "*" => Expr::mul(le, re),
                        _ => Expr::div(le, re),
                    }
                }
                cmp => {
                    // Comparisons get literal coercion against the column side.
                    let le = resolve_expr(l, scope, schema)?;
                    let lt = le.dtype(schema)?;
                    let re = coerce_resolved(r, scope, schema, lt)?;
                    // ... and symmetric when the literal is on the left.
                    let (le, re) = if is_lit(l) {
                        let rt = re.dtype(schema)?;
                        (coerce_resolved(l, scope, schema, rt)?, re)
                    } else {
                        (le, re)
                    };
                    let op = match cmp {
                        "=" => CmpOp::Eq,
                        "<>" => CmpOp::Ne,
                        "<" => CmpOp::Lt,
                        "<=" => CmpOp::Le,
                        ">" => CmpOp::Gt,
                        ">=" => CmpOp::Ge,
                        other => return Err(VhError::Plan(format!("unknown operator '{other}'"))),
                    };
                    Expr::Cmp(op, Box::new(le), Box::new(re))
                }
            }
        }
        Ast::Agg(..) => return Err(VhError::Plan("aggregate in unexpected position".into())),
        Ast::Scalar(_) | Ast::InSub(..) | Ast::Exists(..) => {
            return Err(VhError::Plan("subquery in unsupported position".into()))
        }
    })
}

fn coerce_resolved(ast: &Ast, scope: &Scope, schema: &Schema, target: DataType) -> Result<Expr> {
    if is_lit(ast) {
        let v = lit_of(ast).ok_or_else(|| VhError::Plan(format!("bad numeric literal {ast:?}")))?;
        Ok(Expr::Lit(coerce(v, target)))
    } else {
        resolve_expr(ast, scope, schema)
    }
}

// --- AST utilities ------------------------------------------------------------

/// Split a conjunction into its conjuncts, in textual order.
pub(crate) fn conjuncts(ast: Ast) -> Vec<Ast> {
    match ast {
        Ast::Bin(op, l, r) if op == "and" => {
            let mut v = conjuncts(*l);
            v.extend(conjuncts(*r));
            v
        }
        other => vec![other],
    }
}

/// Does this expression contain a subquery (without descending into
/// subquery bodies)?
pub(crate) fn has_subquery(ast: &Ast) -> bool {
    match ast {
        Ast::Scalar(_) | Ast::Exists(..) => true,
        Ast::InSub(l, _, _) => {
            let _ = l;
            true
        }
        Ast::Bin(_, l, r) => has_subquery(l) || has_subquery(r),
        Ast::Not(e) | Ast::Like(e, _, _) | Ast::ExtractYear(e) | Ast::Substr(e, _, _) => {
            has_subquery(e)
        }
        Ast::Between(a, b, c) => has_subquery(a) || has_subquery(b) || has_subquery(c),
        Ast::InList(e, items) => has_subquery(e) || items.iter().any(has_subquery),
        Ast::Agg(_, _, a) => has_subquery(a),
        Ast::Case(arms, else_e) => {
            arms.iter().any(|(c, v)| has_subquery(c) || has_subquery(v)) || has_subquery(else_e)
        }
        _ => false,
    }
}

pub(crate) fn contains_agg(ast: &Ast) -> bool {
    match ast {
        Ast::Agg(..) => true,
        Ast::Bin(_, l, r) => contains_agg(l) || contains_agg(r),
        Ast::Not(e) | Ast::Like(e, _, _) | Ast::ExtractYear(e) | Ast::Substr(e, _, _) => {
            contains_agg(e)
        }
        Ast::Between(a, b, c) => contains_agg(a) || contains_agg(b) || contains_agg(c),
        Ast::InList(e, items) => contains_agg(e) || items.iter().any(contains_agg),
        Ast::Case(arms, else_e) => {
            arms.iter().any(|(c, v)| contains_agg(c) || contains_agg(v)) || contains_agg(else_e)
        }
        Ast::InSub(l, _, _) => contains_agg(l),
        _ => false,
    }
}

/// Collect all column references, without descending into subquery bodies
/// (an `IN (subquery)` left side does count).
fn col_refs(ast: &Ast, out: &mut Vec<(Option<String>, String)>) {
    match ast {
        Ast::Col(q, n) => out.push((q.clone(), n.clone())),
        Ast::Bin(_, l, r) => {
            col_refs(l, out);
            col_refs(r, out);
        }
        Ast::Not(e) | Ast::Like(e, _, _) | Ast::ExtractYear(e) | Ast::Substr(e, _, _) => {
            col_refs(e, out)
        }
        Ast::Between(a, b, c) => {
            col_refs(a, out);
            col_refs(b, out);
            col_refs(c, out);
        }
        Ast::InList(e, items) => {
            col_refs(e, out);
            for i in items {
                col_refs(i, out);
            }
        }
        Ast::Agg(_, _, a) => col_refs(a, out),
        Ast::Case(arms, else_e) => {
            for (c, v) in arms {
                col_refs(c, out);
                col_refs(v, out);
            }
            col_refs(else_e, out);
        }
        Ast::InSub(l, _, _) => col_refs(l, out),
        _ => {}
    }
}

/// Fold `NOT` into EXISTS / IN-subquery nodes so the lowering sees plain
/// negated forms.
fn normalize_not(ast: Ast) -> Ast {
    match ast {
        Ast::Not(inner) => match normalize_not(*inner) {
            Ast::Exists(q, n) => Ast::Exists(q, !n),
            Ast::InSub(l, q, n) => Ast::InSub(l, q, !n),
            other => Ast::Not(Box::new(other)),
        },
        other => other,
    }
}

/// Does the resolved expression read any input column?
fn expr_reads_cols(e: &Expr) -> bool {
    match e {
        Expr::Col(_) => true,
        Expr::Lit(_) => false,
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => expr_reads_cols(a) || expr_reads_cols(b),
        Expr::And(v) | Expr::Or(v) => v.iter().any(expr_reads_cols),
        Expr::Not(a)
        | Expr::Like(a, _)
        | Expr::NotLike(a, _)
        | Expr::Substr(a, _, _)
        | Expr::ExtractYear(a) => expr_reads_cols(a),
        Expr::Between(a, b, c) => expr_reads_cols(a) || expr_reads_cols(b) || expr_reads_cols(c),
        Expr::InList(a, _) => expr_reads_cols(a),
        Expr::Case(arms, else_e) => {
            arms.iter()
                .any(|(c, v)| expr_reads_cols(c) || expr_reads_cols(v))
                || expr_reads_cols(else_e)
        }
    }
}

fn first_col_name(ast: &Ast) -> Option<String> {
    let mut refs = Vec::new();
    col_refs(ast, &mut refs);
    refs.first().map(|(_, n)| n.clone())
}

fn display_name(ast: &Ast, idx: usize) -> String {
    match ast {
        Ast::Col(_, n) => n.clone(),
        Ast::Agg(f, _, _) => format!("{f}_{idx}"),
        _ => format!("col{idx}"),
    }
}

pub(crate) fn take_plan(plan: &mut LogicalPlan) -> LogicalPlan {
    std::mem::replace(
        plan,
        LogicalPlan::Scan {
            table: String::new(),
            cols: Vec::new(),
        },
    )
}

// --- query lowering -----------------------------------------------------------

/// A correlated predicate between a subquery and its outer scope:
/// `inner_col = outer_col` (eq) or `inner_col <> outer_col`.
pub(crate) struct Correlation {
    pub eq: bool,
    pub outer: usize,
    pub inner: usize,
}

/// Parse a SQL query into a logical plan.
pub fn parse_query(sql: &str, catalog: &dyn CatalogInfo) -> Result<LogicalPlan> {
    let mut p = Parser {
        toks: tokenize(sql)?,
        pos: 0,
        depth: 0,
    };
    p.expect_kw("select")?;
    let q = p.parse_select()?;
    if let Some(t) = p.peek() {
        return Err(VhError::Plan(format!("trailing tokens starting at {t:?}")));
    }
    Ok(lower_select(&q, catalog)?.0)
}

/// Lower a full SELECT block into a plan; returns the output column names
/// (used by derived tables and ORDER BY name resolution).
pub(crate) fn lower_select(
    q: &QueryAst,
    catalog: &dyn CatalogInfo,
) -> Result<(LogicalPlan, Vec<String>)> {
    let mut corr = Vec::new();
    let (mut plan, scope) = lower_from_where(q, catalog, None, &mut corr)?;
    let has_aggs = !q.group_by.is_empty()
        || q.having.is_some()
        || q.items.iter().any(|(a, _)| contains_agg(a));
    let mut out_names;
    if has_aggs {
        let (p, names) = build_aggregate(
            plan,
            &scope,
            catalog,
            &q.group_by,
            &q.items,
            q.having.as_ref(),
        )?;
        plan = p;
        out_names = names;
    } else {
        let schema = plan.schema(catalog)?;
        let mut items: Vec<(Expr, String)> = Vec::new();
        out_names = Vec::new();
        for (idx, (ast, alias)) in q.items.iter().enumerate() {
            if matches!(ast, Ast::Star) {
                for (i, (a, name)) in scope.cols.iter().enumerate() {
                    // Hide lowering-internal bookkeeping columns.
                    if a.is_empty() && name.starts_with("__") {
                        continue;
                    }
                    items.push((Expr::Col(i), name.clone()));
                    out_names.push(name.clone());
                }
            } else {
                let name = alias.clone().unwrap_or_else(|| display_name(ast, idx));
                items.push((resolve_expr(ast, &scope, &schema)?, name.clone()));
                out_names.push(name);
            }
        }
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            items,
        };
    }

    if q.distinct {
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: (0..out_names.len()).collect(),
            aggs: vec![],
        };
    }

    if !q.order_by.is_empty() {
        let mut keys = Vec::new();
        for (key, dir) in &q.order_by {
            let pos = match key {
                OrderKey::Pos(p) => {
                    if *p >= out_names.len() {
                        return Err(VhError::Plan(format!(
                            "ORDER BY position {} is out of range",
                            p + 1
                        )));
                    }
                    *p
                }
                OrderKey::Name(name) => out_names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| VhError::Plan(format!("ORDER BY unknown column '{name}'")))?,
            };
            keys.push((pos, *dir));
        }
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
            limit: q.limit,
        };
    } else if let Some(n) = q.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok((plan, out_names))
}

struct Frag {
    plan: LogicalPlan,
    cols: Vec<(String, String)>,
    kind: JoinKind,
    on: Option<Ast>,
}

/// Lower FROM + WHERE: scan/derive each fragment, push single-fragment
/// WHERE conjuncts below the joins, build the join tree in FROM order, then
/// apply the residual predicates (subqueries lower here; predicates over
/// `outer` columns are returned through `corr` instead of being applied).
pub(crate) fn lower_from_where(
    q: &QueryAst,
    catalog: &dyn CatalogInfo,
    outer: Option<&Scope>,
    corr: &mut Vec<Correlation>,
) -> Result<(LogicalPlan, Scope)> {
    // 1. Lower each FROM fragment.
    let mut frags: Vec<Frag> = Vec::new();
    for fc in &q.from {
        let (plan, cols) = match &fc.item {
            FromItem::Table(name, alias) => {
                let meta = catalog.table(name)?;
                let cols: Vec<(String, String)> = meta
                    .schema
                    .fields()
                    .iter()
                    .map(|f| (alias.clone(), f.name.clone()))
                    .collect();
                (
                    LogicalPlan::Scan {
                        table: name.clone(),
                        cols: (0..meta.schema.len()).collect(),
                    },
                    cols,
                )
            }
            FromItem::Derived(sub, alias) => {
                let (plan, names) = lower_select(sub, catalog)?;
                (
                    plan,
                    names.iter().map(|n| (alias.clone(), n.clone())).collect(),
                )
            }
        };
        frags.push(Frag {
            plan,
            cols,
            kind: fc.kind,
            on: fc.on.clone(),
        });
    }

    // 2. Split WHERE into per-fragment pushdowns and residual conjuncts.
    let all = q.where_.clone().map(conjuncts).unwrap_or_default();
    let mut pushed: Vec<Vec<Ast>> = vec![Vec::new(); frags.len()];
    let mut residual: Vec<Ast> = Vec::new();
    'conj: for c in all {
        if has_subquery(&c) || contains_agg(&c) {
            residual.push(c);
            continue;
        }
        let mut refs = Vec::new();
        col_refs(&c, &mut refs);
        if refs.is_empty() {
            residual.push(c);
            continue;
        }
        let mut target: Option<usize> = None;
        for (qual, name) in &refs {
            let mut hit = None;
            for (fi, frag) in frags.iter().enumerate() {
                let n = frag
                    .cols
                    .iter()
                    .filter(|(a, cn)| cn == name && qual.as_ref().map(|q| q == a).unwrap_or(true))
                    .count();
                if n == 1 && hit.is_none() {
                    hit = Some(fi);
                } else if n >= 1 {
                    // Ambiguous within or across fragments: resolve later,
                    // surfacing the error with the full scope.
                    residual.push(c);
                    continue 'conj;
                }
            }
            match (hit, target) {
                (Some(fi), None) => target = Some(fi),
                (Some(fi), Some(t)) if fi == t => {}
                // Unknown column or a predicate spanning fragments.
                _ => {
                    residual.push(c);
                    continue 'conj;
                }
            }
        }
        let t = target.unwrap();
        if frags[t].kind == JoinKind::LeftOuter {
            // WHERE over the nullable side must stay above the outer join.
            residual.push(c);
        } else {
            pushed[t].push(c);
        }
    }
    for (frag, mut cs) in frags.iter_mut().zip(pushed) {
        if cs.is_empty() {
            continue;
        }
        let local = Scope::of(frag.cols.clone());
        let schema = frag.plan.schema(catalog)?;
        let mut pred = resolve_expr(&cs.remove(0), &local, &schema)?;
        for c in &cs {
            pred = Expr::And(vec![pred, resolve_expr(c, &local, &schema)?]);
        }
        let input = take_plan(&mut frag.plan);
        frag.plan = LogicalPlan::Select {
            input: Box::new(input),
            predicate: pred,
        };
    }

    // 3. Build the join tree in FROM order.
    let mut it = frags.into_iter();
    let first = it
        .next()
        .expect("grammar guarantees at least one FROM item");
    let mut plan = first.plan;
    let mut scope = Scope::of(first.cols);
    for frag in it {
        join_fragment(&mut plan, &mut scope, frag, catalog)?;
    }

    // 4. Residual predicates, in textual order.
    for c in residual {
        let c = normalize_not(c);
        match c {
            Ast::Exists(sub, neg) => {
                crate::subquery::lower_exists(&mut plan, &mut scope, &sub, neg, catalog)?;
            }
            Ast::InSub(lhs, sub, neg) => {
                crate::subquery::lower_in(&mut plan, &mut scope, &lhs, &sub, neg, catalog)?;
            }
            c => {
                if let Some(outer_scope) = outer {
                    if let Some(cr) = as_correlation(&c, &scope, outer_scope)? {
                        corr.push(cr);
                        continue;
                    }
                }
                let c = crate::subquery::substitute_scalars(c, &mut plan, &mut scope, catalog)?;
                let schema = plan.schema(catalog)?;
                let predicate = resolve_expr(&c, &scope, &schema)?;
                plan = LogicalPlan::Select {
                    input: Box::new(plan),
                    predicate,
                };
            }
        }
    }
    Ok((plan, scope))
}

/// Join one more FROM fragment onto the running plan, classifying the ON
/// conjuncts into equi-keys, build-side filters, probe-side filters and
/// post-join filters.
fn join_fragment(
    plan: &mut LogicalPlan,
    scope: &mut Scope,
    frag: Frag,
    catalog: &dyn CatalogInfo,
) -> Result<()> {
    let mut rplan = frag.plan;
    let rcols = frag.cols;
    let rscope = Scope::of(rcols.clone());
    let on = frag
        .on
        .ok_or_else(|| VhError::Plan("JOIN without ON clause".into()))?;
    let left_width = scope.cols.len();
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    let mut rpred: Vec<Ast> = Vec::new();
    let mut lpred: Vec<Ast> = Vec::new();
    let mut post: Vec<Ast> = Vec::new();
    for c in conjuncts(on) {
        if let Ast::Bin(op, l, r) = &c {
            if op == "=" {
                let try_keys = |a: &Ast, b: &Ast| -> Option<(usize, usize)> {
                    match (a, b) {
                        (Ast::Col(aq, an), Ast::Col(bq, bn)) => {
                            match (scope.lookup(aq, an), rscope.lookup(bq, bn)) {
                                (Some(li), Some(ri)) => Some((li, ri)),
                                _ => None,
                            }
                        }
                        _ => None,
                    }
                };
                if let Some((li, ri)) = try_keys(l, r).or_else(|| try_keys(r, l)) {
                    lkeys.push(li);
                    rkeys.push(ri);
                    continue;
                }
            }
        }
        let mut refs = Vec::new();
        col_refs(&c, &mut refs);
        let all_right = refs.iter().all(|(q, n)| rscope.lookup(q, n).is_some());
        let all_left = refs.iter().all(|(q, n)| scope.lookup(q, n).is_some());
        if all_right && !all_left {
            rpred.push(c);
        } else if all_left && !all_right {
            lpred.push(c);
        } else {
            post.push(c);
        }
    }
    if lkeys.is_empty() {
        return Err(VhError::Plan(
            "JOIN ON needs at least one equality between the two sides".into(),
        ));
    }
    // Build-side ON filters apply below the join — for LEFT OUTER this is
    // exactly the SQL semantics (unmatched probe rows survive).
    if !rpred.is_empty() {
        let schema = rplan.schema(catalog)?;
        for c in rpred {
            let predicate = resolve_expr(&c, &rscope, &schema)?;
            rplan = LogicalPlan::Select {
                input: Box::new(rplan),
                predicate,
            };
        }
    }
    if !lpred.is_empty() {
        if frag.kind == JoinKind::LeftOuter {
            return Err(VhError::Plan(
                "LEFT JOIN ON predicate over the left side is not supported".into(),
            ));
        }
        let schema = plan.schema(catalog)?;
        for c in lpred {
            let predicate = resolve_expr(&c, scope, &schema)?;
            *plan = LogicalPlan::Select {
                input: Box::new(take_plan(plan)),
                predicate,
            };
        }
    }
    if !post.is_empty() && frag.kind == JoinKind::LeftOuter {
        return Err(VhError::Plan(
            "LEFT JOIN ON predicate spanning both sides must be an equality".into(),
        ));
    }
    *plan = LogicalPlan::Join {
        left: Box::new(take_plan(plan)),
        right: Box::new(rplan),
        left_keys: lkeys,
        right_keys: rkeys,
        kind: frag.kind,
    };
    scope.cols.extend(rcols);
    if frag.kind == JoinKind::LeftOuter {
        // The executor appends a `__matched` indicator column.
        let matched = scope.cols.len();
        scope.nullable.push((left_width, matched, matched));
        scope.cols.push((String::new(), "__matched".into()));
    }
    if !post.is_empty() {
        let schema = plan.schema(catalog)?;
        for c in post {
            let predicate = resolve_expr(&c, scope, &schema)?;
            *plan = LogicalPlan::Select {
                input: Box::new(take_plan(plan)),
                predicate,
            };
        }
    }
    Ok(())
}

/// Recognize `inner_col = outer_col` / `inner_col <> outer_col` predicates
/// linking a subquery to its outer scope.
fn as_correlation(c: &Ast, inner: &Scope, outer: &Scope) -> Result<Option<Correlation>> {
    let (op, l, r) = match c {
        Ast::Bin(op, l, r) if op == "=" || op == "<>" => (op, l.as_ref(), r.as_ref()),
        _ => return Ok(None),
    };
    let ((lq, ln), (rq, rn)) = match (l, r) {
        (Ast::Col(lq, ln), Ast::Col(rq, rn)) => ((lq, ln), (rq, rn)),
        _ => return Ok(None),
    };
    match (inner.lookup(lq, ln), inner.lookup(rq, rn)) {
        // Both sides inner: a plain predicate, not a correlation.
        (Some(_), Some(_)) => Ok(None),
        (Some(i), None) => Ok(Some(Correlation {
            eq: op == "=",
            outer: outer.resolve(rq, rn)?,
            inner: i,
        })),
        (None, Some(i)) => Ok(Some(Correlation {
            eq: op == "=",
            outer: outer.resolve(lq, ln)?,
            inner: i,
        })),
        // Neither resolves: fall through so the residual path reports the
        // unknown column.
        (None, None) => Ok(None),
    }
}

// --- aggregation --------------------------------------------------------------

struct AggBuild<'a> {
    scope: &'a Scope,
    schema: &'a Schema,
    group_exprs: Vec<Expr>,
    pre_items: Vec<(Expr, String)>,
    /// The aggregates in output order; `None` is the distinct count.
    aggs: Vec<Option<AggFn>>,
    /// The pre-projection column `count(distinct …)` counts, if any.
    distinct: Option<usize>,
}

impl AggBuild<'_> {
    /// Reuse or append a pre-projection item; returns its position.
    fn push_pre(&mut self, e: Expr) -> usize {
        if let Some(pos) = self.pre_items.iter().position(|(x, _)| *x == e) {
            return pos;
        }
        let pos = self.pre_items.len();
        self.pre_items.push((e, format!("a{pos}")));
        pos
    }

    fn push_arg(&mut self, a: &Ast) -> Result<usize> {
        let e = resolve_expr(a, self.scope, self.schema)?;
        Ok(self.push_pre(e))
    }

    fn push_agg(&mut self, f: Option<AggFn>) -> usize {
        if let Some(pos) = self.aggs.iter().position(|x| *x == f) {
            return pos;
        }
        self.aggs.push(f);
        self.aggs.len() - 1
    }

    /// Rewrite a select/HAVING expression over the aggregate's output:
    /// grouping expressions and aggregates become `ResolvedCol`s, literals
    /// stay literal, anything else is an error. Scalar subqueries are kept
    /// verbatim (HAVING lowers them against the aggregate output later).
    fn rewrite_post(&mut self, ast: &Ast) -> Result<Ast> {
        if !contains_agg(ast) && !has_subquery(ast) {
            let e = resolve_expr(ast, self.scope, self.schema)?;
            if let Some(g) = self.group_exprs.iter().position(|x| *x == e) {
                return Ok(Ast::ResolvedCol(g));
            }
            if !expr_reads_cols(&e) {
                return Ok(ast.clone());
            }
            return Err(VhError::Plan(format!(
                "non-aggregated select column '{}' must appear in GROUP BY",
                first_col_name(ast).unwrap_or_else(|| "?".into())
            )));
        }
        Ok(match ast {
            Ast::Agg(f, distinct, arg) => {
                let fnc = match (f.as_str(), distinct, arg.as_ref()) {
                    ("count", false, Ast::Star) => Some(AggFn::CountStar),
                    ("count", true, a) => {
                        let col = self.push_arg(a)?;
                        let refuse = |what| {
                            let name = first_col_name(a).unwrap_or_default();
                            Err(VhError::Plan(format!("{what} '{name}'")))
                        };
                        if self.distinct.is_some_and(|d| d != col) {
                            return refuse("a second count(distinct) argument");
                        }
                        if self.pre_items[col].0.dtype(self.schema)? == DataType::F64 {
                            return refuse("count(distinct) over the float");
                        }
                        self.distinct = Some(col);
                        None
                    }
                    ("count", false, a) => {
                        // count(col) over the nullable side of a LEFT OUTER
                        // join counts matched rows: sum the join's
                        // `__matched` indicator (TPC-H Q13).
                        let e = resolve_expr(a, self.scope, self.schema)?;
                        match &e {
                            Expr::Col(i) => match self.scope.matched_of(*i) {
                                Some(m) => Some(AggFn::Sum(self.push_pre(Expr::Col(m)))),
                                None => Some(AggFn::Count(self.push_pre(e))),
                            },
                            _ => Some(AggFn::Count(self.push_pre(e))),
                        }
                    }
                    ("sum", _, a) => Some(AggFn::Sum(self.push_arg(a)?)),
                    ("avg", _, a) => Some(AggFn::Avg(self.push_arg(a)?)),
                    ("min", _, a) => Some(AggFn::Min(self.push_arg(a)?)),
                    ("max", _, a) => Some(AggFn::Max(self.push_arg(a)?)),
                    (other, ..) => {
                        return Err(VhError::Plan(format!("unknown aggregate '{other}'")))
                    }
                };
                let pos = self.push_agg(fnc);
                Ast::ResolvedCol(self.group_exprs.len() + pos)
            }
            Ast::Bin(op, l, r) => Ast::Bin(
                op.clone(),
                Box::new(self.rewrite_post(l)?),
                Box::new(self.rewrite_post(r)?),
            ),
            Ast::Not(e) => Ast::Not(Box::new(self.rewrite_post(e)?)),
            Ast::Scalar(q) => Ast::Scalar(q.clone()),
            _ => {
                return Err(VhError::Plan(
                    "aggregates may not appear inside this expression".into(),
                ))
            }
        })
    }
}

/// Build pre-project → Aggregate → HAVING filters → post-project for an
/// aggregated SELECT.
pub(crate) fn build_aggregate(
    plan: LogicalPlan,
    scope: &Scope,
    catalog: &dyn CatalogInfo,
    group_by: &[Ast],
    items: &[(Ast, Option<String>)],
    having: Option<&Ast>,
) -> Result<(LogicalPlan, Vec<String>)> {
    let schema = plan.schema(catalog)?;
    let mut group_exprs = Vec::new();
    for g in group_by {
        group_exprs.push(resolve_expr(g, scope, &schema)?);
    }
    let mut b = AggBuild {
        scope,
        schema: &schema,
        pre_items: group_exprs
            .iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), format!("g{i}")))
            .collect(),
        group_exprs,
        aggs: Vec::new(),
        distinct: None,
    };
    let mut post_asts = Vec::new();
    let mut out_names = Vec::new();
    for (idx, (ast, alias)) in items.iter().enumerate() {
        if matches!(ast, Ast::Star) {
            return Err(VhError::Plan("'*' in an aggregated select list".into()));
        }
        out_names.push(alias.clone().unwrap_or_else(|| display_name(ast, idx)));
        post_asts.push(b.rewrite_post(ast)?);
    }
    // HAVING conjuncts may introduce more aggregates (e.g. Q18's
    // `having sum(l_quantity) > 300`), so rewrite them before freezing the
    // aggregate list.
    let having_asts: Vec<Ast> = match having {
        Some(h) => conjuncts(h.clone())
            .iter()
            .map(|c| b.rewrite_post(c))
            .collect::<Result<_>>()?,
        None => Vec::new(),
    };
    let group_n = b.group_exprs.len();
    let aggs_n = b.aggs.len();
    let mut plan = plan;
    if !b.pre_items.is_empty() {
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            items: b.pre_items,
        };
    }
    plan = match b.distinct {
        Some(x) => split_distinct(plan, group_n, x, &b.aggs)?,
        None => LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: (0..group_n).collect(),
            aggs: b.aggs.into_iter().flatten().collect(),
        },
    };
    // HAVING runs over the aggregate output; scalar subqueries in it (Q11)
    // lower here, appending their columns past the aggregate's own.
    let mut post_scope = Scope::of(
        (0..group_n)
            .map(|i| (String::new(), format!("__g{i}")))
            .chain((0..aggs_n).map(|i| (String::new(), format!("__a{i}"))))
            .collect(),
    );
    for h in having_asts {
        let h = crate::subquery::substitute_scalars(h, &mut plan, &mut post_scope, catalog)?;
        let hschema = plan.schema(catalog)?;
        let predicate = resolve_expr(&h, &post_scope, &hschema)?;
        plan = LogicalPlan::Select {
            input: Box::new(plan),
            predicate,
        };
    }
    let pschema = plan.schema(catalog)?;
    let mut post_items = Vec::new();
    for (ast, name) in post_asts.iter().zip(&out_names) {
        post_items.push((resolve_expr(ast, &post_scope, &pschema)?, name.clone()));
    }
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        items: post_items,
    };
    Ok((plan, out_names))
}

/// `GROUP BY 0..group_n` with `count(distinct x)` (the `None` of `aggs`) as
/// an inner aggregate on the keys and `x` (just the keys if `x` is one)
/// under an outer one on the keys that counts the inner groups and merges
/// each other aggregate's inner part: a sum of counts or sums, a min of
/// minima, a max of maxima.
fn split_distinct(
    plan: LogicalPlan,
    group_n: usize,
    x: usize,
    aggs: &[Option<AggFn>],
) -> Result<LogicalPlan> {
    let inner_keys: Vec<usize> = (0..group_n).chain((x >= group_n).then_some(x)).collect();
    let mut inner_aggs = Vec::new();
    let mut outer_aggs = Vec::new();
    for &a in aggs {
        let merge: fn(usize) -> AggFn = match a {
            None => {
                outer_aggs.push(AggFn::CountStar);
                continue;
            }
            Some(AggFn::CountStar | AggFn::Count(_) | AggFn::Sum(_)) => AggFn::Sum,
            Some(AggFn::Min(_)) => AggFn::Min,
            Some(AggFn::Max(_)) => AggFn::Max,
            // A sum and a count merged and divided do not answer bit for
            // bit like the aggregate's own average.
            Some(AggFn::Avg(_)) => {
                return Err(VhError::Plan(
                    "avg beside count(distinct): write sum(…) / count(…)".into(),
                ))
            }
        };
        outer_aggs.push(merge(inner_keys.len() + inner_aggs.len()));
        inner_aggs.extend(a);
    }
    Ok(LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: inner_keys,
            aggs: inner_aggs,
        }),
        group_by: (0..group_n).collect(),
        aggs: outer_aggs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{MemoryCatalog, TableMeta};

    fn catalog() -> MemoryCatalog {
        let mut c = MemoryCatalog::new();
        c.add(TableMeta {
            name: "orders".into(),
            schema: Schema::of(&[
                ("o_orderkey", DataType::I64),
                ("o_custkey", DataType::I64),
                ("o_orderdate", DataType::Date),
                ("o_totalprice", DataType::Decimal { scale: 2 }),
                ("o_status", DataType::Str),
            ]),
            rows: 1000,
            partitioning: Some((vec![0], 4)),
            sort_order: Some(vec![2]),
        });
        c.add(TableMeta {
            name: "customer".into(),
            schema: Schema::of(&[("c_custkey", DataType::I64), ("c_name", DataType::Str)]),
            rows: 100,
            partitioning: Some((vec![0], 4)),
            sort_order: None,
        });
        c
    }

    fn find_join(plan: &LogicalPlan) -> Option<(Vec<usize>, Vec<usize>, JoinKind)> {
        match plan {
            LogicalPlan::Join {
                left_keys,
                right_keys,
                kind,
                ..
            } => Some((left_keys.clone(), right_keys.clone(), *kind)),
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Select { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => find_join(input),
            _ => None,
        }
    }

    #[test]
    fn simple_select_star() {
        let c = catalog();
        let p = parse_query("SELECT * FROM orders", &c).unwrap();
        let s = p.schema(&c).unwrap();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn where_with_date_coercion() {
        let c = catalog();
        let p = parse_query(
            "SELECT o_orderkey FROM orders WHERE o_orderdate < '1995-03-05'",
            &c,
        )
        .unwrap();
        // The literal became a Date value.
        fn find_date(plan: &LogicalPlan) -> bool {
            match plan {
                LogicalPlan::Select { predicate, .. } => format!("{predicate:?}").contains("Date("),
                LogicalPlan::Project { input, .. } => find_date(input),
                _ => false,
            }
        }
        assert!(find_date(&p), "{p:?}");
    }

    #[test]
    fn decimal_coercion_in_compare() {
        let c = catalog();
        let p = parse_query("SELECT o_orderkey FROM orders WHERE o_totalprice > 100", &c).unwrap();
        // 100 must be scaled to Decimal(10000, 2).
        assert!(format!("{p:?}").contains("Decimal(10000, 2)"), "{p:?}");
    }

    #[test]
    fn join_with_on_clause() {
        let c = catalog();
        let p = parse_query(
            "SELECT o.o_orderkey, c.c_name FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
            &c,
        )
        .unwrap();
        let (lk, rk, kind) = find_join(&p).expect("join");
        assert_eq!(lk, vec![1]); // o_custkey
        assert_eq!(rk, vec![0]); // c_custkey
        assert_eq!(kind, JoinKind::Inner);
        let s = p.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["o_orderkey", "c_name"]);
    }

    #[test]
    fn group_by_with_aggregates() {
        let c = catalog();
        let p = parse_query(
            "SELECT o_status, count(*) AS n, sum(o_totalprice) AS total, avg(o_totalprice) \
             FROM orders GROUP BY o_status ORDER BY n DESC LIMIT 5",
            &c,
        )
        .unwrap();
        let s = p.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["o_status", "n", "total", "avg_3"]);
        assert_eq!(s.dtype(2), DataType::Decimal { scale: 2 });
        assert_eq!(s.dtype(3), DataType::F64);
        assert!(matches!(p, LogicalPlan::Sort { limit: Some(5), .. }));
    }

    #[test]
    fn aggregate_over_expression() {
        let c = catalog();
        let p = parse_query("SELECT sum(o_totalprice * 2) FROM orders", &c).unwrap();
        assert!(p.schema(&c).is_ok());
    }

    #[test]
    fn between_in_like_not() {
        let c = catalog();
        let queries = [
            "SELECT o_orderkey FROM orders WHERE o_orderdate BETWEEN '1994-01-01' AND '1994-12-31'",
            "SELECT o_orderkey FROM orders WHERE o_status IN ('open', 'closed')",
            "SELECT o_orderkey FROM orders WHERE o_status LIKE 'o%'",
            "SELECT o_orderkey FROM orders WHERE o_status NOT LIKE '%x%'",
            "SELECT o_orderkey FROM orders WHERE NOT o_orderkey = 5 AND o_custkey > 3 OR o_custkey < 1",
            "SELECT o_orderkey FROM orders WHERE o_status NOT IN ('open') AND o_orderkey NOT BETWEEN 5 AND 9",
        ];
        for q in queries {
            parse_query(q, &c).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn count_distinct() {
        // The group keys and aggregates of each Aggregate, outermost first.
        fn levels(plan: &LogicalPlan) -> Vec<(Vec<usize>, Vec<AggFn>)> {
            match plan {
                LogicalPlan::Project { input, .. } => levels(input),
                LogicalPlan::Aggregate {
                    input,
                    group_by,
                    aggs,
                } => [(group_by.clone(), aggs.clone())]
                    .into_iter()
                    .chain(levels(input))
                    .collect(),
                _ => vec![],
            }
        }
        use AggFn::*;
        let c = catalog();
        let p = parse_query("SELECT count(distinct o_custkey) FROM orders", &c).unwrap();
        assert_eq!(levels(&p), [(vec![], vec![CountStar]), (vec![0], vec![])]);
        // The aggregates beside it split across the two levels.
        let sql = "SELECT o_orderkey, min(o_totalprice), count(*), count(distinct o_custkey), \
                   sum(o_totalprice), max(o_totalprice) FROM orders GROUP BY o_orderkey";
        let outer = vec![Min(2), Sum(3), CountStar, Sum(4), Max(5)];
        let inner = vec![Min(1), CountStar, Sum(1), Max(1)];
        let p = parse_query(sql, &c).unwrap();
        assert_eq!(levels(&p), [(vec![0], outer), (vec![0, 2], inner)]);
    }

    #[test]
    fn errors_are_reported() {
        let c = catalog();
        assert!(parse_query("SELECT FROM orders", &c).is_err());
        assert!(parse_query("SELECT nope FROM orders", &c).is_err());
        assert!(parse_query("SELECT o_orderkey FROM missing", &c).is_err());
        assert!(parse_query("SELECT o_orderkey FROM orders WHERE", &c).is_err());
        assert!(parse_query("SELECT o_orderkey FROM orders trailing junk", &c).is_err());
        assert!(parse_query("SELECT o_custkey, count(*) FROM orders", &c).is_err());
        assert!(parse_query("SELECT 'unterminated FROM orders", &c).is_err());
    }

    #[test]
    fn order_by_position() {
        let c = catalog();
        let p = parse_query(
            "SELECT o_orderkey, o_custkey FROM orders ORDER BY 2 DESC",
            &c,
        )
        .unwrap();
        match p {
            LogicalPlan::Sort { keys, .. } => assert_eq!(keys, vec![(1, Dir::Desc)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_unary_minus() {
        let c = catalog();
        let p = parse_query(
            "SELECT o_totalprice * (1 - 0.04) AS discounted FROM orders WHERE o_orderkey > -5",
            &c,
        )
        .unwrap();
        let s = p.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["discounted"]);
    }

    // --- new-frontend coverage ------------------------------------------------

    #[test]
    fn dangling_inner_is_not_swallowed() {
        let c = catalog();
        // Regression (sql.rs consuming-lookahead bug): a dangling `inner`
        // with no `join` was eaten, silently accepting the query.
        let err = parse_query("SELECT o_orderkey FROM orders inner", &c).unwrap_err();
        assert!(format!("{err}").contains("inner"), "{err}");
        // ... while identifiers merely *starting* with `inner` are aliases.
        parse_query("SELECT inner_tab.o_orderkey FROM orders inner_tab", &c).unwrap();
        parse_query(
            "SELECT o_orderkey FROM orders o INNER JOIN customer c ON o.o_custkey = c.c_custkey",
            &c,
        )
        .unwrap();
    }

    #[test]
    fn left_outer_join() {
        let c = catalog();
        for sql in [
            "SELECT c_custkey, count(o_orderkey) AS n FROM customer LEFT JOIN orders \
             ON c_custkey = o_custkey GROUP BY c_custkey",
            "SELECT c_custkey, count(o_orderkey) AS n FROM customer LEFT OUTER JOIN orders \
             ON c_custkey = o_custkey GROUP BY c_custkey",
        ] {
            let p = parse_query(sql, &c).unwrap();
            let (_, _, kind) = find_join(&p).expect("join");
            assert_eq!(kind, JoinKind::LeftOuter);
            // count(o_orderkey) over the nullable side becomes
            // sum(__matched), never a plain Count.
            fn agg_of(plan: &LogicalPlan) -> Option<AggFn> {
                match plan {
                    LogicalPlan::Aggregate { aggs, .. } => aggs.first().copied(),
                    LogicalPlan::Project { input, .. } | LogicalPlan::Select { input, .. } => {
                        agg_of(input)
                    }
                    _ => None,
                }
            }
            assert!(matches!(agg_of(&p), Some(AggFn::Sum(_))), "{p:?}");
        }
    }

    #[test]
    fn derived_table_in_from() {
        let c = catalog();
        let p = parse_query(
            "SELECT st, total FROM (SELECT o_status AS st, sum(o_totalprice) AS total \
             FROM orders GROUP BY o_status) t WHERE total > 10 ORDER BY st",
            &c,
        )
        .unwrap();
        let s = p.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["st", "total"]);
    }

    #[test]
    fn exists_and_in_subqueries() {
        let c = catalog();
        let p = parse_query(
            "SELECT o_orderkey FROM orders WHERE EXISTS \
             (SELECT * FROM customer WHERE c_custkey = o_custkey)",
            &c,
        )
        .unwrap();
        assert_eq!(find_join(&p).unwrap().2, JoinKind::Semi);
        let p = parse_query(
            "SELECT o_orderkey FROM orders WHERE NOT EXISTS \
             (SELECT * FROM customer WHERE c_custkey = o_custkey)",
            &c,
        )
        .unwrap();
        assert_eq!(find_join(&p).unwrap().2, JoinKind::Anti);
        let p = parse_query(
            "SELECT o_orderkey FROM orders WHERE o_custkey IN \
             (SELECT c_custkey FROM customer WHERE c_name LIKE 'A%')",
            &c,
        )
        .unwrap();
        assert_eq!(find_join(&p).unwrap().2, JoinKind::Semi);
        let p = parse_query(
            "SELECT o_orderkey FROM orders WHERE o_custkey NOT IN \
             (SELECT c_custkey FROM customer)",
            &c,
        )
        .unwrap();
        assert_eq!(find_join(&p).unwrap().2, JoinKind::Anti);
    }

    #[test]
    fn scalar_subqueries() {
        let c = catalog();
        // Uncorrelated: cross join (empty keys).
        let p = parse_query(
            "SELECT o_orderkey FROM orders WHERE o_totalprice > \
             (SELECT avg(o2.o_totalprice) FROM orders o2)",
            &c,
        )
        .unwrap();
        let (lk, rk, kind) = find_join(&p).unwrap();
        assert!(lk.is_empty() && rk.is_empty());
        assert_eq!(kind, JoinKind::Inner);
        // Correlated: grouped join on the correlation key.
        let p = parse_query(
            "SELECT o_orderkey FROM orders o WHERE o_totalprice > \
             (SELECT avg(o2.o_totalprice) FROM orders o2 WHERE o2.o_custkey = o.o_custkey)",
            &c,
        )
        .unwrap();
        let (lk, rk, kind) = find_join(&p).unwrap();
        assert_eq!((lk, rk, kind), (vec![1], vec![0], JoinKind::Inner));
    }

    #[test]
    fn having_distinct_case_extract_substring() {
        let c = catalog();
        let p = parse_query(
            "SELECT o_status, sum(o_totalprice) AS total FROM orders GROUP BY o_status \
             HAVING sum(o_totalprice) > 300 ORDER BY total DESC",
            &c,
        )
        .unwrap();
        // HAVING's literal picked up the decimal scale of the sum.
        assert!(format!("{p:?}").contains("Decimal(30000, 2)"), "{p:?}");
        parse_query("SELECT DISTINCT o_status FROM orders", &c).unwrap();
        parse_query(
            "SELECT sum(CASE WHEN o_status = 'open' THEN o_totalprice ELSE 0 END) FROM orders",
            &c,
        )
        .unwrap();
        let p = parse_query(
            "SELECT EXTRACT(YEAR FROM o_orderdate) AS y, count(*) FROM orders GROUP BY \
             EXTRACT(YEAR FROM o_orderdate) ORDER BY y",
            &c,
        )
        .unwrap();
        assert_eq!(p.schema(&c).unwrap().dtype(0), DataType::I32);
        parse_query(
            "SELECT SUBSTRING(o_status, 1, 2) AS code FROM orders WHERE \
             SUBSTRING(o_status, 1, 2) IN ('op', 'cl')",
            &c,
        )
        .unwrap();
        assert!(parse_query("SELECT SUBSTRING(o_status, 0, 2) FROM orders", &c).is_err());
    }

    #[test]
    fn date_arithmetic_and_intervals() {
        let c = catalog();
        let p = parse_query(
            "SELECT o_orderkey FROM orders WHERE o_orderdate <= date '1998-12-01' - interval '90' day",
            &c,
        )
        .unwrap();
        assert!(format!("{p:?}").contains("Date("), "{p:?}");
        assert!(parse_query("SELECT date 'not-a-date' FROM orders", &c).is_err());
        assert!(parse_query(
            "SELECT o_orderkey FROM orders WHERE o_orderdate < interval '1' month",
            &c
        )
        .is_err());
    }

    #[test]
    fn ambiguous_and_out_of_range_errors() {
        let c = catalog();
        let mut c2 = c;
        c2.add(TableMeta {
            name: "orders2".into(),
            schema: Schema::of(&[("o_orderkey", DataType::I64)]),
            rows: 10,
            partitioning: None,
            sort_order: None,
        });
        let err = parse_query(
            "SELECT o_orderkey FROM orders JOIN orders2 ON orders.o_orderkey = orders2.o_orderkey",
            &c2,
        )
        .unwrap_err();
        assert!(format!("{err}").contains("ambiguous"), "{err}");
        let err = parse_query("SELECT o_orderkey FROM orders ORDER BY 3", &c2).unwrap_err();
        assert!(format!("{err}").contains("out of range"), "{err}");
    }
}
