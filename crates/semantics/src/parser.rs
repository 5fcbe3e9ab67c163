//! Recursive-descent parser for the supported C subset.
//!
//! The grammar follows C11's expression precedence exactly (§6.5.1–§6.5.17)
//! so that the sequencing structure the evaluator relies on — which
//! operands are siblings of which operators — matches the standard's.
//! Anything outside the subset is a [`ParseError`], never a silent
//! reinterpretation.
//!
//! The parser builds directly into the [`TranslationUnit`]'s arenas:
//! every node push is an append to a flat `Vec`, identifiers are interned
//! [`Symbol`]s, and keyword tests are integer compares against the
//! pre-interned [`kw`] symbols. [`parse`] finishes by running the
//! [`crate::resolve`] pass, so the unit it returns is always
//! slot-resolved and ready to execute.

use crate::ast::{
    BinOp, Decl, Expr, ExprId, ExprKind, Function, Param, Quals, SlotId, Stmt, StmtId, SwitchTable,
    TranslationUnit, Ty, UnaryOp,
};
use crate::ctype::IntTy;
use crate::intern::{kw, Symbol};
use crate::lexer::{lex, LexError, Tok, Token};
use cundef_ub::SourceLoc;
use std::fmt;

/// Why a source file could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation, in terms of the supported subset.
    pub message: String,
    /// Where the parse failed.
    pub loc: SourceLoc,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.loc, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            loc: e.loc,
        }
    }
}

/// Parse a whole translation unit (a sequence of function definitions)
/// and resolve every variable reference to a frame slot.
///
/// # Examples
///
/// ```
/// use cundef_semantics::parser::parse;
///
/// let unit = parse("int main(void) { return 0; }").unwrap();
/// assert_eq!(unit.name_of(&unit.functions[0]), "main");
///
/// let err = parse("int main(void) { return 0 }").unwrap_err();
/// assert!(err.message.contains("expected `;`"));
/// ```
pub fn parse(source: &str) -> Result<TranslationUnit, ParseError> {
    parse_timed(source).map(|(unit, _)| unit)
}

/// Wall-clock durations of the three frontend stages, as measured by
/// [`parse_timed`] (and surfaced by `cundef --stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendTiming {
    /// Tokenization ([`crate::lexer`]).
    pub lex: std::time::Duration,
    /// Parsing proper: token stream to AST arenas.
    pub parse: std::time::Duration,
    /// Slot resolution ([`crate::resolve`]).
    pub resolve: std::time::Duration,
}

/// [`parse`], but also reporting how long each frontend stage took.
///
/// # Examples
///
/// ```
/// use cundef_semantics::parser::parse_timed;
///
/// let (unit, timing) = parse_timed("int main(void) { return 0; }").unwrap();
/// assert_eq!(unit.functions.len(), 1);
/// assert!(timing.lex + timing.parse + timing.resolve > std::time::Duration::ZERO);
/// ```
pub fn parse_timed(source: &str) -> Result<(TranslationUnit, FrontendTiming), ParseError> {
    let mut timing = FrontendTiming::default();
    let mut unit = TranslationUnit::default();
    let t0 = std::time::Instant::now();
    let toks = lex(source, &mut unit.interner)?;
    timing.lex = t0.elapsed();
    let mut p = Parser {
        toks,
        pos: 0,
        unit,
        switch_depth: 0,
    };
    let t1 = std::time::Instant::now();
    while !p.at_end() {
        let f = p.function()?;
        p.unit.functions.push(f);
    }
    timing.parse = t1.elapsed();
    let mut unit = p.unit;
    let t2 = std::time::Instant::now();
    crate::resolve::resolve(&mut unit);
    timing.resolve = t2.elapsed();
    Ok((unit, timing))
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    unit: TranslationUnit,
    /// Nesting depth of `switch` bodies, so `case`/`default` labels
    /// outside any `switch` are parse errors (they could belong to no
    /// statement, §6.8.1:2).
    switch_depth: u32,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<Token> {
        self.toks.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<Token> {
        self.toks.get(self.pos + 1).copied()
    }

    fn loc(&self) -> SourceLoc {
        self.peek()
            .map(|t| t.loc)
            .unwrap_or_else(|| self.toks.last().map(|t| t.loc).unwrap_or_default())
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            loc: self.loc(),
        })
    }

    fn mk(&mut self, kind: ExprKind, loc: SourceLoc) -> ExprId {
        self.unit.push_expr(Expr { kind, loc })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Token { tok: Tok::Punct(q), .. }) if q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<SourceLoc, ParseError> {
        let loc = self.loc();
        if self.eat_punct(p) {
            Ok(loc)
        } else {
            self.err(format!("expected `{p}`"))
        }
    }

    fn eat_keyword(&mut self, kw: Symbol) -> bool {
        if matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, kw: Symbol) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s == kw)
    }

    fn ident(&mut self) -> Result<(Symbol, SourceLoc), ParseError> {
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(s),
                loc,
            }) => {
                if s.is_keyword() {
                    return self.err(format!(
                        "unexpected keyword `{}`",
                        self.unit.interner.resolve(s)
                    ));
                }
                self.pos += 1;
                Ok((s, loc))
            }
            _ => self.err("expected identifier"),
        }
    }

    // ----- declarations and functions -----

    /// Consume a (possibly empty) run of type qualifiers.
    fn qual_list(&mut self) -> Quals {
        let mut q = Quals::default();
        loop {
            if self.eat_keyword(kw::CONST) {
                q.is_const = true;
            } else if self.eat_keyword(kw::VOLATILE) {
                q.is_volatile = true;
            } else if self.eat_keyword(kw::RESTRICT) {
                q.is_restrict = true;
            } else {
                return q;
            }
        }
    }

    /// `('*' qual*)*` — pointer declarator suffix. Returns the derived
    /// type and the qualifiers of the outermost `*` group (empty when no
    /// pointer declarator was present).
    fn pointer_suffix(&mut self, base: Ty) -> (Ty, Quals) {
        let mut ty = base;
        let mut outer = Quals::default();
        while self.eat_punct("*") {
            ty = Ty::Ptr(Box::new(ty));
            outer = self.qual_list();
        }
        (ty, outer)
    }

    /// The type-specifier and qualifier keywords that can begin a
    /// declaration (or a `sizeof` type-name).
    const DECL_START: &'static [Symbol] = &[
        kw::INT,
        kw::VOID,
        kw::CHAR,
        kw::SHORT,
        kw::LONG,
        kw::SIGNED,
        kw::UNSIGNED,
        kw::BOOL,
        kw::CONST,
        kw::VOLATILE,
        kw::RESTRICT,
    ];

    /// Whether the next token can begin a declaration.
    fn at_decl_start(&self) -> bool {
        Self::DECL_START.iter().any(|&k| self.peek_keyword(k))
    }

    /// Whether `t` is a token that can begin a type-name (for the
    /// `sizeof ( type-name )` vs `sizeof ( expression )` split).
    fn starts_type(t: Option<Token>) -> bool {
        matches!(t, Some(Token { tok: Tok::Ident(s), .. })
            if Self::DECL_START.contains(&s))
    }

    /// Parse a run of declaration specifiers (C11 §6.7): type-specifier
    /// keywords and qualifiers in any order, combined into one base type
    /// of the LP64 lattice. Multi-keyword spellings (`unsigned long long
    /// int`, `long unsigned`) are validated the way §6.7.2:2 enumerates
    /// them; contradictions (`signed unsigned`, `short long`, `void
    /// unsigned`) are parse errors, never reinterpreted.
    fn declaration_specifiers(&mut self) -> Result<(Ty, Quals), ParseError> {
        let mut quals = Quals::default();
        let mut saw_void = false;
        let mut saw_char = false;
        let mut saw_int = false;
        let mut saw_bool = false;
        let mut shorts: u8 = 0;
        let mut longs: u8 = 0;
        let mut signed = false;
        let mut unsigned = false;
        let mut any = false;
        loop {
            if self.eat_keyword(kw::CONST) {
                quals.is_const = true;
            } else if self.eat_keyword(kw::VOLATILE) {
                quals.is_volatile = true;
            } else if self.eat_keyword(kw::RESTRICT) {
                quals.is_restrict = true;
            } else if self.eat_keyword(kw::VOID) {
                saw_void = true;
                any = true;
            } else if self.eat_keyword(kw::CHAR) {
                saw_char = true;
                any = true;
            } else if self.eat_keyword(kw::INT) {
                saw_int = true;
                any = true;
            } else if self.eat_keyword(kw::BOOL) {
                saw_bool = true;
                any = true;
            } else if self.eat_keyword(kw::SHORT) {
                shorts += 1;
                any = true;
            } else if self.eat_keyword(kw::LONG) {
                longs += 1;
                any = true;
            } else if self.eat_keyword(kw::SIGNED) {
                signed = true;
                any = true;
            } else if self.eat_keyword(kw::UNSIGNED) {
                unsigned = true;
                any = true;
            } else {
                break;
            }
        }
        if !any {
            return self.err("expected a type specifier");
        }
        if signed && unsigned {
            return self.err("both `signed` and `unsigned` in declaration specifiers");
        }
        if saw_void {
            if saw_char || saw_int || saw_bool || shorts > 0 || longs > 0 || signed || unsigned {
                return self.err("`void` combined with other type specifiers");
            }
            return Ok((Ty::Void, quals));
        }
        if saw_bool {
            if saw_char || saw_int || shorts > 0 || longs > 0 || signed || unsigned {
                return self.err("`_Bool` combined with other type specifiers");
            }
            return Ok((Ty::Int(IntTy::Bool), quals));
        }
        if saw_char {
            if saw_int || shorts > 0 || longs > 0 {
                return self.err("invalid combination of type specifiers with `char`");
            }
            let it = if unsigned { IntTy::UChar } else { IntTy::Char };
            return Ok((Ty::Int(it), quals));
        }
        if shorts > 1 || longs > 2 || (shorts > 0 && longs > 0) {
            return self.err("invalid combination of `short`/`long` specifiers");
        }
        let it = match (shorts, longs, unsigned) {
            (1, _, false) => IntTy::Short,
            (1, _, true) => IntTy::UShort,
            (_, 0, false) => IntTy::Int,
            (_, 0, true) => IntTy::UInt,
            (_, 1, false) => IntTy::Long,
            (_, 1, true) => IntTy::ULong,
            (_, _, false) => IntTy::LongLong,
            (_, _, true) => IntTy::ULongLong,
        };
        Ok((Ty::Int(it), quals))
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let is_static = self.eat_keyword(kw::STATIC);
        // Qualifiers on the return type are legal and (like the return
        // type's pointer qualifiers) meaningless to the caller (§6.7.6.3);
        // the specifier scan swallows them.
        let (base, _) = self.declaration_specifiers()?;
        let returns_void = base == Ty::Void;
        let ret_scalar = base.base_scalar().unwrap_or(IntTy::Int);
        // Pointer return types are tracked by depth only: runtime values
        // are dynamically typed, but the analyzer's type checker wants
        // the declared shape.
        let mut ret_ptr: u8 = 0;
        while self.eat_punct("*") {
            ret_ptr = ret_ptr.saturating_add(1);
            self.qual_list();
        }
        let (name, loc) = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            if self.peek_keyword(kw::VOID)
                && matches!(
                    self.peek2(),
                    Some(Token {
                        tok: Tok::Punct(")"),
                        ..
                    })
                )
            {
                // The empty `(void)` parameter list (§6.7.6.3:10).
                self.pos += 2;
            } else {
                loop {
                    let (base, _) = self.declaration_specifiers()?;
                    let (ty, _) = self.pointer_suffix(base);
                    if ty == Ty::Void {
                        return self.err("parameter declared with incomplete type `void`");
                    }
                    let (pname, _) = self.ident()?;
                    params.push(Param { name: pname, ty });
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
        }
        // C's grammar has no qualifiers after the parameter list; accept
        // them anyway so the analyzer can report the qualified *function
        // type* (§6.7.3:9) instead of a parse failure.
        let fn_quals = self.qual_list();
        self.expect_punct("{")?;
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if self.at_end() {
                return self.err("unterminated function body");
            }
            let s = self.block_item()?;
            body.push(s);
        }
        Ok(Function {
            name,
            params,
            returns_void,
            ret_ptr,
            ret_scalar,
            is_static,
            fn_quals,
            body,
            loc,
            slots: Vec::new(), // filled by the resolver
            labels: Vec::new(),
            gotos: Vec::new(),
        })
    }

    fn decl(&mut self) -> Result<Decl, ParseError> {
        let (base, base_quals) = self.declaration_specifiers()?;
        let (ty, ptr_quals) = self.pointer_suffix(base);
        // The declared object's qualifiers are the outermost `*` group's
        // for a pointer declarator, the base specifier's otherwise; a
        // `restrict` stuck on the non-pointer base of a pointer
        // declarator is recorded for the analyzer (§6.7.3:2).
        let (quals, base_restrict) = if ty.ptr_depth() == 0 {
            (base_quals, false)
        } else {
            (ptr_quals, base_quals.is_restrict)
        };
        let (name, loc) = self.ident()?;
        let mut array_size = None;
        if self.eat_punct("[") {
            if !matches!(
                self.peek(),
                Some(Token {
                    tok: Tok::Punct("]"),
                    ..
                })
            ) {
                array_size = Some(self.expr()?);
            } else {
                return self.err("array declarations need an explicit size");
            }
            self.expect_punct("]")?;
        }
        let mut init = None;
        let mut array_init = None;
        if self.eat_punct("=") {
            if self.eat_punct("{") {
                let mut items = Vec::new();
                if !self.eat_punct("}") {
                    loop {
                        items.push(self.assignment()?);
                        if self.eat_punct("}") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                array_init = Some(items);
            } else {
                init = Some(self.assignment()?);
            }
        }
        self.expect_punct(";")?;
        if array_size.is_none() && array_init.is_some() {
            return self.err("brace initializers require an array declarator");
        }
        if array_size.is_some() && init.is_some() {
            // `int a[3] = 5;` violates §6.7.9:11; refuse it rather than
            // silently initializing element 0.
            return self.err("array initializers must be brace-enclosed");
        }
        Ok(Decl {
            name,
            ty,
            array_size,
            init,
            array_init,
            quals,
            base_restrict,
            loc,
            slot: SlotId(u32::MAX),
            const_size: false,
            redeclares: None,
        })
    }

    // ----- statements -----

    /// An item in block position (C11 §6.8.2): a declaration or a
    /// statement.
    fn block_item(&mut self) -> Result<StmtId, ParseError> {
        if self.at_decl_start() {
            let d = self.decl()?;
            return Ok(self.unit.push_stmt(Stmt::Decl(d)));
        }
        self.stmt()
    }

    fn stmt(&mut self) -> Result<StmtId, ParseError> {
        let loc = self.loc();
        if self.eat_punct(";") {
            return Ok(self.unit.push_stmt(Stmt::Empty(loc)));
        }
        if self.eat_punct("{") {
            let mut body = Vec::new();
            while !self.eat_punct("}") {
                if self.at_end() {
                    return self.err("unterminated block");
                }
                let s = self.block_item()?;
                body.push(s);
            }
            return Ok(self.unit.push_stmt(Stmt::Block(body, loc)));
        }
        if self.at_decl_start() {
            // In C11's grammar a declaration is not a statement: it can
            // appear in a block (§6.8.2) or a `for` init clause (§6.8.5),
            // but not as the lone body of `if`/`while`/`for`/`else`, nor
            // directly under a label (labels prefix statements, §6.8.1).
            return self.err("a declaration needs a surrounding block here");
        }
        if self.eat_keyword(kw::IF) {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then = self.stmt()?;
            let els = if self.eat_keyword(kw::ELSE) {
                Some(self.stmt()?)
            } else {
                None
            };
            return Ok(self.unit.push_stmt(Stmt::If(cond, then, els)));
        }
        if self.eat_keyword(kw::WHILE) {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.stmt()?;
            return Ok(self.unit.push_stmt(Stmt::While(cond, body)));
        }
        if self.eat_keyword(kw::FOR) {
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else if self.at_decl_start() {
                let d = self.decl()?;
                Some(self.unit.push_stmt(Stmt::Decl(d)))
            } else {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Some(self.unit.push_stmt(Stmt::Expr(e)))
            };
            let cond = if self.eat_punct(";") {
                None
            } else {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Some(e)
            };
            let step = if self.eat_punct(")") {
                None
            } else {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Some(e)
            };
            let body = self.stmt()?;
            return Ok(self.unit.push_stmt(Stmt::For(init, cond, step, body)));
        }
        if self.eat_keyword(kw::RETURN) {
            if self.eat_punct(";") {
                return Ok(self.unit.push_stmt(Stmt::Return(None, loc)));
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(self.unit.push_stmt(Stmt::Return(Some(e), loc)));
        }
        if self.eat_keyword(kw::BREAK) {
            self.expect_punct(";")?;
            return Ok(self.unit.push_stmt(Stmt::Break(loc)));
        }
        if self.eat_keyword(kw::CONTINUE) {
            self.expect_punct(";")?;
            return Ok(self.unit.push_stmt(Stmt::Continue(loc)));
        }
        if self.eat_keyword(kw::SWITCH) {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            self.switch_depth += 1;
            let body = self.stmt();
            self.switch_depth -= 1;
            let table = u32::try_from(self.unit.switches.len()).expect("fewer than 2^32 switches");
            self.unit.switches.push(SwitchTable::default());
            return Ok(self.unit.push_stmt(Stmt::Switch(cond, body?, loc, table)));
        }
        if self.peek_keyword(kw::CASE) {
            if self.switch_depth == 0 {
                return self.err("`case` label outside of a switch statement");
            }
            self.pos += 1;
            // A case expression is a constant expression, i.e. a
            // conditional expression in the grammar (§6.6:1) — its `:`
            // belongs to `?:`, the label's own `:` follows it.
            let e = self.conditional()?;
            self.expect_punct(":")?;
            let inner = self.stmt()?;
            return Ok(self.unit.push_stmt(Stmt::Case(e, inner, loc)));
        }
        if self.peek_keyword(kw::DEFAULT) {
            if self.switch_depth == 0 {
                return self.err("`default` label outside of a switch statement");
            }
            self.pos += 1;
            self.expect_punct(":")?;
            let inner = self.stmt()?;
            return Ok(self.unit.push_stmt(Stmt::Default(inner, loc)));
        }
        if self.eat_keyword(kw::GOTO) {
            let (target, _) = self.ident()?;
            self.expect_punct(";")?;
            return Ok(self.unit.push_stmt(Stmt::Goto(target, loc)));
        }
        // An ordinary label: `name: statement` (§6.8.1).
        if let (
            Some(Token {
                tok: Tok::Ident(s), ..
            }),
            Some(Token {
                tok: Tok::Punct(":"),
                ..
            }),
        ) = (self.peek(), self.peek2())
        {
            if !s.is_keyword() {
                self.pos += 2;
                let inner = self.stmt()?;
                return Ok(self.unit.push_stmt(Stmt::Label(s, inner, loc)));
            }
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(self.unit.push_stmt(Stmt::Expr(e)))
    }

    // ----- expressions, by C11 precedence -----

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.assignment()?;
        while matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Punct(","),
                ..
            })
        ) {
            let loc = self.loc();
            self.pos += 1;
            let rhs = self.assignment()?;
            e = self.mk(ExprKind::Comma(e, rhs), loc);
        }
        Ok(e)
    }

    fn assignment(&mut self) -> Result<ExprId, ParseError> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Some(Token {
                tok: Tok::Punct(p), ..
            }) => match p {
                "=" => Some(None),
                "+=" => Some(Some(BinOp::Add)),
                "-=" => Some(Some(BinOp::Sub)),
                "*=" => Some(Some(BinOp::Mul)),
                "/=" => Some(Some(BinOp::Div)),
                "%=" => Some(Some(BinOp::Rem)),
                "<<=" => Some(Some(BinOp::Shl)),
                ">>=" => Some(Some(BinOp::Shr)),
                "&=" => Some(Some(BinOp::BitAnd)),
                "^=" => Some(Some(BinOp::BitXor)),
                "|=" => Some(Some(BinOp::BitOr)),
                _ => None,
            },
            _ => None,
        };
        if let Some(op) = op {
            let loc = self.loc();
            self.pos += 1;
            let rhs = self.assignment()?;
            return Ok(self.mk(ExprKind::Assign(lhs, op, rhs), loc));
        }
        Ok(lhs)
    }

    fn conditional(&mut self) -> Result<ExprId, ParseError> {
        let cond = self.binary(0)?;
        if matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Punct("?"),
                ..
            })
        ) {
            let loc = self.loc();
            self.pos += 1;
            let then = self.expr()?;
            self.expect_punct(":")?;
            let els = self.conditional()?;
            return Ok(self.mk(ExprKind::Conditional(cond, then, els), loc));
        }
        Ok(cond)
    }

    /// Binary operators by precedence level, lowest first.
    fn binary(&mut self, level: usize) -> Result<ExprId, ParseError> {
        const LEVELS: &[&[(&str, Option<BinOp>)]] = &[
            &[("||", None)],
            &[("&&", None)],
            &[("|", Some(BinOp::BitOr))],
            &[("^", Some(BinOp::BitXor))],
            &[("&", Some(BinOp::BitAnd))],
            &[("==", Some(BinOp::Eq)), ("!=", Some(BinOp::Ne))],
            &[
                ("<=", Some(BinOp::Le)),
                (">=", Some(BinOp::Ge)),
                ("<", Some(BinOp::Lt)),
                (">", Some(BinOp::Gt)),
            ],
            &[("<<", Some(BinOp::Shl)), (">>", Some(BinOp::Shr))],
            &[("+", Some(BinOp::Add)), ("-", Some(BinOp::Sub))],
            &[
                ("*", Some(BinOp::Mul)),
                ("/", Some(BinOp::Div)),
                ("%", Some(BinOp::Rem)),
            ],
        ];
        if level == LEVELS.len() {
            return self.cast();
        }
        let mut lhs = self.binary(level + 1)?;
        'scan: loop {
            for (p, op) in LEVELS[level] {
                if matches!(self.peek(), Some(Token { tok: Tok::Punct(q), .. }) if q == *p) {
                    let loc = self.loc();
                    self.pos += 1;
                    let rhs = self.binary(level + 1)?;
                    let kind = match op {
                        Some(op) => ExprKind::Binary(*op, lhs, rhs),
                        None if *p == "&&" => ExprKind::LogicalAnd(lhs, rhs),
                        None => ExprKind::LogicalOr(lhs, rhs),
                    };
                    lhs = self.mk(kind, loc);
                    continue 'scan;
                }
            }
            return Ok(lhs);
        }
    }

    /// A cast-expression (§6.5.4): `( type-name ) cast-expression` or a
    /// unary-expression. The parenthesis is a cast exactly when a
    /// type-specifier keyword follows it — the same disambiguation
    /// `sizeof ( … )` uses.
    fn cast(&mut self) -> Result<ExprId, ParseError> {
        let loc = self.loc();
        if matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Punct("("),
                ..
            })
        ) && Self::starts_type(self.peek2())
        {
            self.pos += 1;
            let (base, _) = self.declaration_specifiers()?;
            let (ty, _) = self.pointer_suffix(base);
            self.expect_punct(")")?;
            let e = self.cast()?;
            return Ok(self.mk(ExprKind::Cast(ty, e), loc));
        }
        self.unary()
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        let loc = self.loc();
        if self.eat_keyword(kw::SIZEOF) {
            // `sizeof ( type-name )` when a type keyword follows the
            // parenthesis; otherwise `sizeof unary-expression` (which may
            // itself be parenthesized).
            if matches!(
                self.peek(),
                Some(Token {
                    tok: Tok::Punct("("),
                    ..
                })
            ) && Self::starts_type(self.peek2())
            {
                self.pos += 1;
                let (base, _) = self.declaration_specifiers()?;
                let (ty, _) = self.pointer_suffix(base);
                self.expect_punct(")")?;
                return Ok(self.mk(ExprKind::SizeofType(ty), loc));
            }
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::SizeofExpr(e), loc));
        }
        if self.eat_punct("++") {
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::PreIncDec(e, 1), loc));
        }
        if self.eat_punct("--") {
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::PreIncDec(e, -1), loc));
        }
        // The operand of `-`/`!`/`~`/`+`/`*`/`&` is a cast-expression
        // (§6.5.3:1), so `*(int *)p` and `-(long)x` parse as written.
        for (p, mk) in [
            ("-", Some(UnaryOp::Neg)),
            ("!", Some(UnaryOp::Not)),
            ("~", Some(UnaryOp::BitNot)),
            ("+", None),
        ] {
            if self.eat_punct(p) {
                let e = self.cast()?;
                return Ok(match mk {
                    Some(op) => self.mk(ExprKind::Unary(op, e), loc),
                    None => e, // unary plus only performs promotion
                });
            }
        }
        if self.eat_punct("*") {
            let e = self.cast()?;
            return Ok(self.mk(ExprKind::Deref(e), loc));
        }
        if self.eat_punct("&") {
            let e = self.cast()?;
            return Ok(self.mk(ExprKind::AddrOf(e), loc));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.primary()?;
        loop {
            let loc = self.loc();
            if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = self.mk(ExprKind::Index(e, idx), loc);
            } else if self.eat_punct("++") {
                e = self.mk(ExprKind::PostIncDec(e, 1), loc);
            } else if self.eat_punct("--") {
                e = self.mk(ExprKind::PostIncDec(e, -1), loc);
            } else if matches!(
                self.peek(),
                Some(Token {
                    tok: Tok::Punct("("),
                    ..
                })
            ) {
                let callee = self.unit.expr(e);
                let (name, name_loc) = match callee.kind {
                    ExprKind::Ident(name) => (name, callee.loc),
                    _ => return self.err("only direct calls of named functions are supported"),
                };
                // The Call node carries the symbol itself; reclaim the
                // callee's Ident node (it is the most recent push — no
                // postfix operator intervened, or `e` wouldn't be an
                // Ident) instead of leaking a dead arena slot per call.
                if e.0 as usize == self.unit.exprs.len() - 1 {
                    self.unit.exprs.pop();
                }
                self.pos += 1;
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.assignment()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                e = self.mk(ExprKind::Call(name, args), name_loc);
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let loc = self.loc();
        match self.peek() {
            Some(Token {
                tok: Tok::Int(v), ..
            }) => {
                self.pos += 1;
                Ok(self.mk(ExprKind::IntLit(v), loc))
            }
            Some(Token {
                tok: Tok::Ident(s), ..
            }) if !s.is_keyword() => {
                self.pos += 1;
                Ok(self.mk(ExprKind::Ident(s), loc))
            }
            Some(Token {
                tok: Tok::Punct("("),
                ..
            }) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ExprKind as E;

    /// The top-level expression of `int main(void) {{ {src}; }}`.
    fn unit_and_expr(src: &str) -> (TranslationUnit, ExprId) {
        let unit = parse(&format!("int main(void) {{ {src}; }}")).unwrap();
        let main = unit.function_named("main").unwrap();
        match unit.stmt(main.body[0]) {
            Stmt::Expr(e) => {
                let e = *e;
                (unit, e)
            }
            s => panic!("expected expr stmt, got {s:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let (unit, e) = unit_and_expr("1 + 2 * 3");
        match unit.expr(e).kind {
            E::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(unit.expr(rhs).kind, E::Binary(BinOp::Mul, _, _)));
            }
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn assignment_is_right_associative() {
        let (unit, e) = unit_and_expr("a = b = 1");
        match unit.expr(e).kind {
            E::Assign(_, None, rhs) => {
                assert!(matches!(unit.expr(rhs).kind, E::Assign(_, None, _)));
            }
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn postfix_binds_tighter_than_prefix() {
        let (unit, e) = unit_and_expr("*p++");
        match unit.expr(e).kind {
            E::Deref(inner) => {
                assert!(matches!(unit.expr(inner).kind, E::PostIncDec(_, 1)));
            }
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn array_and_pointer_declarations() {
        let unit = parse("int main(void) { int a[3]; int *p; int **q; }").unwrap();
        assert_eq!(unit.functions[0].body.len(), 3);
    }

    #[test]
    fn functions_with_parameters() {
        let unit =
            parse("int add(int a, int b) { return a + b; } int main(void) { return add(1, 2); }")
                .unwrap();
        assert_eq!(unit.functions.len(), 2);
        assert_eq!(unit.functions[0].params.len(), 2);
        assert_eq!(unit.name_of(&unit.functions[0]), "add");
    }

    #[test]
    fn goto_and_labels_parse() {
        let unit = parse("int main(void) { goto out; out: return 0; }").unwrap();
        let main = unit.function_named("main").unwrap();
        assert!(matches!(unit.stmt(main.body[0]), Stmt::Goto(_, _)));
        match unit.stmt(main.body[1]) {
            Stmt::Label(sym, _, _) => assert_eq!(unit.interner.resolve(*sym), "out"),
            s => panic!("expected label, got {s:?}"),
        }
    }

    #[test]
    fn switch_with_case_and_default_parses() {
        let unit = parse(
            "int main(void) { int x = 1; switch (x) { case 1: x = 2; break; default: x = 3; } return x; }",
        )
        .unwrap();
        let main = unit.function_named("main").unwrap();
        let Stmt::Switch(_, body, _, _) = unit.stmt(main.body[1]) else {
            panic!("expected switch");
        };
        let Stmt::Block(items, _) = unit.stmt(*body) else {
            panic!("expected block body");
        };
        assert!(matches!(unit.stmt(items[0]), Stmt::Case(_, _, _)));
        assert!(matches!(unit.stmt(items[2]), Stmt::Default(_, _)));
    }

    #[test]
    fn case_labels_outside_a_switch_are_rejected() {
        for src in [
            "int main(void) { case 1: return 0; }",
            "int main(void) { default: return 0; }",
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.message.contains("switch"), "{src}: {}", err.message);
        }
    }

    #[test]
    fn qualifiers_and_void_objects_parse() {
        let unit = parse(
            "int main(void) { const int x = 1; int * restrict p; restrict int q; void v; void *w; return x; }",
        )
        .unwrap();
        let decls: Vec<&Decl> = unit
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Decl(d) => Some(d),
                _ => None,
            })
            .collect();
        assert!(decls[0].quals.is_const && decls[0].ty == Ty::INT);
        assert!(decls[1].quals.is_restrict && decls[1].ty.ptr_depth() == 1);
        assert!(decls[2].quals.is_restrict && decls[2].ty.ptr_depth() == 0);
        assert_eq!(decls[3].ty, Ty::Void);
        assert_eq!(decls[4].ty, Ty::Ptr(Box::new(Ty::Void)));
    }

    #[test]
    fn multi_keyword_specifiers_combine() {
        let unit = parse(
            "int main(void) { unsigned long long x = 1; long unsigned y = 2; \
             short int s = 3; unsigned char c = 4; _Bool b = 1; signed q = -1; \
             long int l = 5; return 0; }",
        )
        .unwrap();
        let tys: Vec<&Ty> = unit
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Decl(d) => Some(&d.ty),
                _ => None,
            })
            .collect();
        assert_eq!(*tys[0], Ty::Int(IntTy::ULongLong));
        assert_eq!(*tys[1], Ty::Int(IntTy::ULong));
        assert_eq!(*tys[2], Ty::Int(IntTy::Short));
        assert_eq!(*tys[3], Ty::Int(IntTy::UChar));
        assert_eq!(*tys[4], Ty::Int(IntTy::Bool));
        assert_eq!(*tys[5], Ty::Int(IntTy::Int));
        assert_eq!(*tys[6], Ty::Int(IntTy::Long));
    }

    #[test]
    fn contradictory_specifiers_are_rejected() {
        for src in [
            "int main(void) { signed unsigned x; return 0; }",
            "int main(void) { short long x; return 0; }",
            "int main(void) { long long long x; return 0; }",
            "int main(void) { _Bool int x; return 0; }",
            "int main(void) { void unsigned x; return 0; }",
            "int main(void) { char short x; return 0; }",
        ] {
            assert!(parse(src).is_err(), "{src} should not parse");
        }
    }

    #[test]
    fn sizeof_forms_parse() {
        // Type form.
        let (unit, e) = unit_and_expr("sizeof(unsigned long)");
        assert_eq!(unit.expr(e).kind, E::SizeofType(Ty::Int(IntTy::ULong)));
        let (unit, e) = unit_and_expr("sizeof(int *)");
        assert!(matches!(unit.expr(e).kind, E::SizeofType(Ty::Ptr(_))));
        // Expression forms: parenthesized and bare, binding tighter than
        // binary operators.
        let unit = parse(
            "int main(void) { int x = 1; int y = sizeof x + 1; int z = sizeof(x); return 0; }",
        )
        .unwrap();
        let sizeofs = unit
            .exprs
            .iter()
            .filter(|ex| matches!(ex.kind, E::SizeofExpr(_)))
            .count();
        assert_eq!(sizeofs, 2);
        let adds = unit
            .exprs
            .iter()
            .find(|ex| matches!(ex.kind, E::Binary(BinOp::Add, _, _)))
            .expect("sizeof x + 1 parses as (sizeof x) + 1");
        let E::Binary(_, lhs, _) = adds.kind else {
            unreachable!()
        };
        assert!(matches!(unit.expr(lhs).kind, E::SizeofExpr(_)));
    }

    #[test]
    fn casts_parse_at_cast_precedence() {
        // (long)1 + 2 is ((long)1) + 2 — the cast binds tighter than
        // binary operators.
        let (unit, e) = unit_and_expr("(long)1 + 2");
        match unit.expr(e).kind {
            E::Binary(BinOp::Add, lhs, _) => {
                assert!(matches!(
                    unit.expr(lhs).kind,
                    E::Cast(Ty::Int(IntTy::Long), _)
                ));
            }
            ref k => panic!("unexpected {k:?}"),
        }
        // The operand of `*` is a cast-expression: *(int *)p.
        let (unit, e) = unit_and_expr("*(int *)p");
        match unit.expr(e).kind {
            E::Deref(inner) => {
                assert!(matches!(unit.expr(inner).kind, E::Cast(Ty::Ptr(_), _)))
            }
            ref k => panic!("unexpected {k:?}"),
        }
        // Casts nest rightward: (char)(int)x.
        let (unit, e) = unit_and_expr("(char)(int)x");
        match &unit.expr(e).kind {
            E::Cast(Ty::Int(IntTy::Char), inner) => {
                assert!(matches!(
                    unit.expr(*inner).kind,
                    E::Cast(Ty::Int(IntTy::Int), _)
                ))
            }
            k => panic!("unexpected {k:?}"),
        }
        // A parenthesized expression is not a cast.
        let (unit, e) = unit_and_expr("(x) + 1");
        assert!(matches!(unit.expr(e).kind, E::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn typed_parameters_and_returns() {
        let unit = parse(
            "long widen(unsigned int u, char c) { return u + c; } \
             int main(void) { return 0; }",
        )
        .unwrap();
        let f = &unit.functions[0];
        assert_eq!(f.ret_scalar, IntTy::Long);
        assert_eq!(f.params[0].ty, Ty::Int(IntTy::UInt));
        assert_eq!(f.params[1].ty, Ty::Int(IntTy::Char));
        // A bare `void` parameter among others is rejected.
        assert!(parse("int f(void v) { return 0; } int main(void) { return 0; }").is_err());
    }

    #[test]
    fn static_functions_and_return_pointer_depth() {
        let unit = parse(
            "static int helper(void) { return 1; } int **deep(void) { return 0; } \
             int main(void) { return helper(); }",
        )
        .unwrap();
        assert!(unit.functions[0].is_static);
        assert_eq!(unit.functions[0].ret_ptr, 0);
        assert_eq!(unit.functions[1].ret_ptr, 2);
        assert!(!unit.functions[2].is_static);
    }

    #[test]
    fn trailing_function_qualifiers_parse_for_the_analyzer() {
        let unit = parse("int f(void) const { return 1; } int main(void) { return f(); }").unwrap();
        assert!(unit.functions[0].fn_quals.is_const);
        assert!(!unit.functions[1].fn_quals.any());
    }

    #[test]
    fn scalar_initializer_on_array_declarator_is_rejected() {
        let err = parse("int main(void) { int a[3] = 5; return 0; }").unwrap_err();
        assert!(err.message.contains("brace"), "{}", err.message);
    }

    #[test]
    fn goto_cannot_be_used_as_an_identifier() {
        assert!(parse("int main(void) { int goto = 1; return 0; }").is_err());
    }

    #[test]
    fn comma_operator_parses_at_expression_level() {
        let (unit, e) = unit_and_expr("(a = 1, a + 1)");
        assert!(matches!(unit.expr(e).kind, E::Comma(_, _)));
    }

    #[test]
    fn declarations_are_block_items_not_statements() {
        // C11 §6.8.2/§6.8.5: a declaration may appear in a block or a
        // `for` init clause, but not as the lone body of a control
        // statement.
        assert!(parse("int main(void) { for (int i = 0; i < 1; i++) { } return 0; }").is_ok());
        for src in [
            "int main(void) { if (1) int x = 1; return 0; }",
            "int main(void) { while (0) int x = 1; return 0; }",
            "int main(void) { for (;;) int x = 1; return 0; }",
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.message.contains("declaration"),
                "{src}: {}",
                err.message
            );
        }
    }

    #[test]
    fn call_nodes_intern_the_callee_name() {
        let (unit, e) = unit_and_expr("f(1, 2)");
        match &unit.expr(e).kind {
            E::Call(name, args) => {
                assert_eq!(unit.interner.resolve(*name), "f");
                assert_eq!(args.len(), 2);
            }
            k => panic!("unexpected {k:?}"),
        }
    }
}
