//! Recursive-descent parser for the monitor language.

use crate::ast::{BinOp, Ccr, CcrId, Expr, Field, Method, Monitor, Param, Stmt, Type, UnOp};
use crate::lexer::{tokenize, Keyword, LexError, Punct, SpannedToken, Token, Tokens};
use std::fmt;
use std::sync::Arc;

/// Errors produced while parsing monitor source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation of the problem.
    pub message: String,
    /// 1-based source line: of the token the parser stopped at, or of the
    /// last one when the input ended too early (the last line of the input
    /// when it holds no token at all).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Parses the source text of an implicit-signal monitor.
///
/// Consecutive non-blocking statements at the top level of a method are folded
/// into a single conditional critical region with guard `true`, matching the
/// paper's convention that a plain statement is a degenerate `waituntil`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
///
/// # Example
///
/// ```
/// let src = r#"
///     monitor RWLock {
///         int readers = 0;
///         bool writerIn = false;
///         atomic void enterReader() {
///             waituntil (!writerIn) { readers++; }
///         }
///     }
/// "#;
/// let monitor = expresso_monitor_lang::parse_monitor(src).unwrap();
/// assert_eq!(monitor.name, "RWLock");
/// assert_eq!(monitor.methods.len(), 1);
/// ```
pub fn parse_monitor(source: &str) -> Result<Monitor, ParseError> {
    let _span = expresso_obs::span!("parse.monitor");
    let mut parser = Parser::new(tokenize(source)?);
    let monitor = parser.monitor()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("trailing input after monitor declaration"));
    }
    Ok(monitor)
}

/// Parses a single expression (useful in tests and in the suite's expected
/// signalling tables).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_expr(source: &str) -> Result<Expr, ParseError> {
    let mut parser = Parser::new(tokenize(source)?);
    let expr = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("trailing input after expression"));
    }
    Ok(expr)
}

/// Deepest nesting a monitor may have: statements inside statements,
/// operands of unary operators, parenthesised and indexing sub-expressions,
/// and the links of an operator chain each count a level. The parser refuses
/// deeper source, and the artifact decoder of `expresso-persist` deeper
/// payloads: both — and every pass over the tree after them — recurse once
/// per level, so an unbounded depth is a stack overflow, an abort rather than
/// an error. Far above anything a real monitor reaches.
pub const MAX_NESTING: usize = 256;

/// The lists of a monitor while its body is parsed; frozen into the
/// monitor's shared slices once the closing brace is read.
#[derive(Default)]
struct MonitorBody {
    fields: Vec<Field>,
    methods: Vec<Method>,
    ccrs: Vec<Ccr>,
}

struct Parser<'src> {
    tokens: Vec<SpannedToken<'src>>,
    pos: usize,
    /// Levels of nesting around the token at `pos` (see [`MAX_NESTING`]).
    depth: usize,
    /// The line the input ends on: where an error in a source with no
    /// token at all is.
    last_line: usize,
}

impl<'src> Parser<'src> {
    fn new(Tokens { tokens, last_line }: Tokens<'src>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            last_line,
        }
    }

    /// Enters one more level of nesting, or fails past [`MAX_NESTING`].
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one level of nesting deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.enter()?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn peek(&self) -> Option<Token<'src>> {
        self.tokens.get(self.pos).map(|t| t.token)
    }

    fn peek2(&self) -> Option<Token<'src>> {
        self.tokens.get(self.pos + 1).map(|t| t.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(self.last_line, |t| t.line)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line(),
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Punct(found)) if found == p => {
                self.pos += 1;
                Ok(())
            }
            Some(other) => Err(self.error(format!("expected `{p:?}`, found {other}"))),
            None => Err(self.error(format!("expected `{p:?}`, found end of input"))),
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Keyword(found)) if found == k => {
                self.pos += 1;
                Ok(())
            }
            Some(other) => Err(self.error(format!("expected keyword `{k:?}`, found {other}"))),
            None => Err(self.error(format!("expected keyword `{k:?}`, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(name)) => {
                self.pos += 1;
                Ok(name.to_owned())
            }
            Some(other) => Err(self.error(format!("expected identifier, found {other}"))),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), Some(Token::Punct(found)) if found == p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        matches!(self.peek(), Some(Token::Keyword(found)) if found == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Monitor structure
    // ------------------------------------------------------------------

    fn monitor(&mut self) -> Result<Monitor, ParseError> {
        self.expect_keyword(Keyword::Monitor)?;
        let name = self.expect_ident()?;
        let params = if self.at_punct(Punct::LParen) {
            self.param_list()?
        } else {
            Vec::new()
        };
        let requires = if self.eat_keyword(Keyword::Requires) {
            Some(Arc::new(self.expr()?))
        } else {
            None
        };
        self.expect_punct(Punct::LBrace)?;
        let mut body = MonitorBody::default();
        while !self.at_punct(Punct::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unexpected end of input inside monitor body"));
            }
            self.item(&mut body)?;
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(Monitor {
            name,
            params: params.into(),
            requires,
            fields: body.fields.into(),
            methods: body.methods.into(),
            ccrs: body.ccrs.into(),
        })
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                let ty = self.scalar_type()?;
                let name = self.expect_ident()?;
                params.push(Param { name, ty });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(params)
    }

    fn scalar_type(&mut self) -> Result<Type, ParseError> {
        if self.eat_keyword(Keyword::Int) {
            Ok(Type::Int)
        } else if self.eat_keyword(Keyword::Bool) {
            Ok(Type::Bool)
        } else {
            Err(self.error("expected a parameter type (`int` or `bool`)"))
        }
    }

    /// Parses either a field declaration or a method.
    fn item(&mut self, monitor: &mut MonitorBody) -> Result<(), ParseError> {
        // A method starts with optional `atomic` then `void`/type then ident then `(`.
        let start = self.pos;
        let is_method = {
            let mut probe = self.pos;
            if matches!(
                self.tokens.get(probe).map(|t| &t.token),
                Some(Token::Keyword(Keyword::Atomic))
            ) {
                probe += 1;
            }
            // Skip a type keyword (void/int/bool).
            if matches!(
                self.tokens.get(probe).map(|t| &t.token),
                Some(Token::Keyword(Keyword::Void | Keyword::Int | Keyword::Bool))
            ) {
                probe += 1;
            }
            // Possible array marker `[]` — only for fields.
            let mut is_field_array = false;
            if matches!(
                self.tokens.get(probe).map(|t| &t.token),
                Some(Token::Punct(Punct::LBracket))
            ) {
                is_field_array = true;
            }
            if !is_field_array
                && matches!(
                    self.tokens.get(probe).map(|t| &t.token),
                    Some(Token::Ident(_))
                )
            {
                probe += 1;
                matches!(
                    self.tokens.get(probe).map(|t| &t.token),
                    Some(Token::Punct(Punct::LParen))
                )
            } else {
                false
            }
        };
        self.pos = start;
        if is_method {
            self.method(monitor)
        } else {
            let field = self.field()?;
            monitor.fields.push(field);
            Ok(())
        }
    }

    fn field(&mut self) -> Result<Field, ParseError> {
        if self.eat_keyword(Keyword::Int) {
            if self.eat_punct(Punct::LBracket) {
                self.expect_punct(Punct::RBracket)?;
                let name = self.expect_ident()?;
                self.expect_punct(Punct::Assign)?;
                self.expect_keyword(Keyword::New)?;
                self.expect_keyword(Keyword::Int)?;
                self.expect_punct(Punct::LBracket)?;
                let len = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                self.expect_punct(Punct::Semi)?;
                return Ok(Field {
                    name,
                    ty: Type::IntArray,
                    init: None,
                    array_len: Some(len),
                });
            }
            let name = self.expect_ident()?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(Punct::Semi)?;
            return Ok(Field {
                name,
                ty: Type::Int,
                init,
                array_len: None,
            });
        }
        if self.eat_keyword(Keyword::Bool) {
            let name = self.expect_ident()?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(Punct::Semi)?;
            return Ok(Field {
                name,
                ty: Type::Bool,
                init,
                array_len: None,
            });
        }
        Err(self.error("expected a field declaration (`int`, `bool` or `int[]`)"))
    }

    fn method(&mut self, monitor: &mut MonitorBody) -> Result<(), ParseError> {
        self.eat_keyword(Keyword::Atomic);
        // Return types are accepted but ignored; the language models procedures.
        if !self.eat_keyword(Keyword::Void) {
            let _ = self.eat_keyword(Keyword::Int) || self.eat_keyword(Keyword::Bool);
        }
        let name = self.expect_ident()?;
        let params = self.param_list()?;
        self.expect_punct(Punct::LBrace)?;
        let method_index = monitor.methods.len();
        let mut method = Method {
            name,
            params,
            ccrs: Vec::new(),
        };
        let mut pending: Vec<Stmt> = Vec::new();
        let mut position = 0usize;
        while !self.at_punct(Punct::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unexpected end of input inside method body"));
            }
            if self.at_keyword(Keyword::Waituntil) {
                if !pending.is_empty() {
                    let id = CcrId(monitor.ccrs.len());
                    monitor.ccrs.push(Ccr {
                        id,
                        method: method_index,
                        position,
                        guard: Arc::new(Expr::Bool(true)),
                        body: Stmt::seq(std::mem::take(&mut pending)),
                    });
                    method.ccrs.push(id);
                    position += 1;
                }
                self.expect_keyword(Keyword::Waituntil)?;
                self.expect_punct(Punct::LParen)?;
                let guard = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = if self.at_punct(Punct::LBrace) {
                    self.block()?
                } else if self.eat_punct(Punct::Semi) {
                    Stmt::Skip
                } else {
                    self.stmt()?
                };
                let id = CcrId(monitor.ccrs.len());
                monitor.ccrs.push(Ccr {
                    id,
                    method: method_index,
                    position,
                    guard: Arc::new(guard),
                    body,
                });
                method.ccrs.push(id);
                position += 1;
            } else {
                pending.push(self.stmt()?);
            }
        }
        self.expect_punct(Punct::RBrace)?;
        if !pending.is_empty() || method.ccrs.is_empty() {
            let id = CcrId(monitor.ccrs.len());
            monitor.ccrs.push(Ccr {
                id,
                method: method_index,
                position,
                guard: Arc::new(Expr::Bool(true)),
                body: Stmt::seq(pending),
            });
            method.ccrs.push(id);
        }
        monitor.methods.push(method);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(Stmt::seq(stmts))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::statement)
    }

    /// Dispatches on the statement's first token. Each form is parsed by a
    /// function of its own, so the frames a nested statement stacks up stay
    /// small.
    fn statement(&mut self) -> Result<Stmt, ParseError> {
        if self.at_punct(Punct::LBrace) {
            self.block()
        } else if self.eat_keyword(Keyword::Skip) {
            self.expect_punct(Punct::Semi)?;
            Ok(Stmt::Skip)
        } else if self.eat_keyword(Keyword::If) {
            self.if_rest()
        } else if self.eat_keyword(Keyword::While) {
            self.while_rest()
        } else if self.at_keyword(Keyword::Int) || self.at_keyword(Keyword::Bool) {
            self.local()
        } else {
            self.assignment()
        }
    }

    fn if_rest(&mut self) -> Result<Stmt, ParseError> {
        let cond = self.condition()?;
        let then_branch = self.stmt()?;
        let else_branch = if self.eat_keyword(Keyword::Else) {
            self.stmt()?
        } else {
            Stmt::Skip
        };
        Ok(Stmt::If(cond, Box::new(then_branch), Box::new(else_branch)))
    }

    fn while_rest(&mut self) -> Result<Stmt, ParseError> {
        let cond = self.condition()?;
        let body = self.stmt()?;
        Ok(Stmt::While(cond, Box::new(body)))
    }

    /// `( expr )`.
    fn condition(&mut self) -> Result<Expr, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        Ok(cond)
    }

    fn local(&mut self) -> Result<Stmt, ParseError> {
        let ty = self.scalar_type()?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::Assign)?;
        let init = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Local(name, ty, init))
    }

    /// The assignment forms, which start with an identifier.
    fn assignment(&mut self) -> Result<Stmt, ParseError> {
        let name = self.expect_ident()?;
        if self.eat_punct(Punct::LBracket) {
            let index = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            self.expect_punct(Punct::Assign)?;
            let value = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::ArrayAssign(name, index, value));
        }
        let update = if self.eat_punct(Punct::PlusPlus) {
            Some((BinOp::Add, Expr::Int(1)))
        } else if self.eat_punct(Punct::MinusMinus) {
            Some((BinOp::Sub, Expr::Int(1)))
        } else if self.eat_punct(Punct::PlusAssign) {
            Some((BinOp::Add, self.expr()?))
        } else if self.eat_punct(Punct::MinusAssign) {
            Some((BinOp::Sub, self.expr()?))
        } else {
            None
        };
        let value = match update {
            Some((op, rhs)) => Expr::binary(op, Expr::Var(name.clone()), rhs),
            None => {
                self.expect_punct(Punct::Assign)?;
                self.expr()?
            }
        };
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Assign(name, value))
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|parser| parser.binary(1))
    }

    /// The binary operator at the cursor and its precedence: higher binds
    /// tighter, and every operator is left-associative.
    fn binary_operator(&self) -> Option<(BinOp, u8)> {
        let Some(Token::Punct(punct)) = self.peek() else {
            return None;
        };
        Some(match punct {
            Punct::OrOr => (BinOp::Or, 1),
            Punct::AndAnd => (BinOp::And, 2),
            Punct::EqEq => (BinOp::Eq, 3),
            Punct::NotEq => (BinOp::Ne, 3),
            Punct::Lt => (BinOp::Lt, 4),
            Punct::Le => (BinOp::Le, 4),
            Punct::Gt => (BinOp::Gt, 4),
            Punct::Ge => (BinOp::Ge, 4),
            Punct::Plus => (BinOp::Add, 5),
            Punct::Minus => (BinOp::Sub, 5),
            Punct::Star => (BinOp::Mul, 6),
            Punct::Percent => (BinOp::Rem, 6),
            _ => return None,
        })
    }

    /// An operand followed by every operator of precedence `min` or more,
    /// each taking as its right operand what binds tighter than itself. One
    /// function for all six levels keeps a parenthesised sub-expression a
    /// few frames deep. Every operator applied is one more level of the tree
    /// built, so it counts towards [`MAX_NESTING`].
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut lhs = self.unary_expr()?;
        while let Some((op, precedence)) = self.binary_operator() {
            if precedence < min {
                break;
            }
            self.pos += 1;
            self.enter()?;
            let rhs = self.binary(precedence + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let op = if self.eat_punct(Punct::Bang) {
            UnOp::Not
        } else if self.eat_punct(Punct::Minus) {
            UnOp::Neg
        } else {
            return self.primary_expr();
        };
        let inner = self.nested(Self::unary_expr)?;
        Ok(Expr::Unary(op, Box::new(inner)))
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Int(v))
            }
            Some(Token::Keyword(Keyword::True)) => {
                self.pos += 1;
                Ok(Expr::Bool(true))
            }
            Some(Token::Keyword(Keyword::False)) => {
                self.pos += 1;
                Ok(Expr::Bool(false))
            }
            Some(Token::Punct(Punct::LParen)) => {
                self.pos += 1;
                let inner = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                if self.at_punct(Punct::LBracket)
                    && !matches!(self.peek2(), Some(Token::Punct(Punct::RBracket)))
                {
                    self.expect_punct(Punct::LBracket)?;
                    let index = self.expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    Ok(Expr::Index(name.to_owned(), Box::new(index)))
                } else {
                    Ok(Expr::Var(name.to_owned()))
                }
            }
            Some(other) => Err(self.error(format!("expected an expression, found {other}"))),
            None => Err(self.error("expected an expression, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READERS_WRITERS: &str = r#"
        monitor RWLock {
            int readers = 0;
            bool writerIn = false;

            atomic void enterReader() {
                waituntil (!writerIn) { readers++; }
            }
            atomic void exitReader() {
                if (readers > 0) readers--;
            }
            atomic void enterWriter() {
                waituntil (readers == 0 && !writerIn) { writerIn = true; }
            }
            atomic void exitWriter() {
                writerIn = false;
            }
        }
    "#;

    #[test]
    fn parses_readers_writers() {
        let m = parse_monitor(READERS_WRITERS).unwrap();
        assert_eq!(m.name, "RWLock");
        assert_eq!(m.fields.len(), 2);
        assert_eq!(m.methods.len(), 4);
        assert_eq!(m.ccrs.len(), 4);
        let enter_reader = m.method("enterReader").unwrap();
        let ccr = m.ccr(enter_reader.ccrs[0]);
        assert_eq!(ccr.guard.to_string(), "!writerIn");
        assert!(!ccr.never_blocks());
        let exit_reader = m.method("exitReader").unwrap();
        assert!(m.ccr(exit_reader.ccrs[0]).never_blocks());
    }

    #[test]
    fn guards_excludes_trivial_true() {
        let m = parse_monitor(READERS_WRITERS).unwrap();
        let guards = m.guards();
        assert_eq!(guards.len(), 2);
    }

    #[test]
    fn consecutive_plain_statements_form_one_ccr() {
        let src = r#"
            monitor M {
                int x = 0;
                int y = 0;
                atomic void both() {
                    x = x + 1;
                    y = y + 1;
                }
            }
        "#;
        let m = parse_monitor(src).unwrap();
        let both = m.method("both").unwrap();
        assert_eq!(both.ccrs.len(), 1);
        match &m.ccr(both.ccrs[0]).body {
            Stmt::Seq(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected a sequence, got {other:?}"),
        }
    }

    #[test]
    fn plain_run_before_waituntil_becomes_its_own_ccr() {
        let src = r#"
            monitor M {
                int x = 0;
                atomic void f(int n) {
                    x = x + n;
                    waituntil (x > 0) { x = x - 1; }
                    x = x + 1;
                }
            }
        "#;
        let m = parse_monitor(src).unwrap();
        let f = m.method("f").unwrap();
        assert_eq!(f.ccrs.len(), 3);
        assert!(m.ccr(f.ccrs[0]).never_blocks());
        assert!(!m.ccr(f.ccrs[1]).never_blocks());
        assert!(m.ccr(f.ccrs[2]).never_blocks());
    }

    #[test]
    fn constructor_params_requires_and_arrays() {
        let src = r#"
            monitor BoundedBuffer(int capacity) requires capacity > 0 {
                int[] buffer = new int[capacity];
                int count = 0;
                atomic void put(int item) {
                    waituntil (count < capacity) {
                        buffer[count] = item;
                        count++;
                    }
                }
                atomic void take() {
                    waituntil (count > 0) { count--; }
                }
            }
        "#;
        let m = parse_monitor(src).unwrap();
        assert_eq!(m.params.len(), 1);
        assert!(m.requires.is_some());
        assert_eq!(m.fields[0].ty, Type::IntArray);
        assert!(m.fields[0].array_len.is_some());
        let put = m.method("put").unwrap();
        assert_eq!(put.params.len(), 1);
        let body = &m.ccr(put.ccrs[0]).body;
        assert!(matches!(body, Stmt::Seq(_)));
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("a + b * 2 < c && !d || e == 1").unwrap();
        assert_eq!(e.to_string(), "((((a + (b * 2)) < c) && !d) || (e == 1))");
    }

    #[test]
    fn compound_assignment_sugar() {
        let src = r#"
            monitor M {
                int x = 0;
                atomic void f() { x += 2; x -= 1; x++; x--; }
            }
        "#;
        let m = parse_monitor(src).unwrap();
        let body = &m.ccr(m.method("f").unwrap().ccrs[0]).body;
        match body {
            Stmt::Seq(parts) => {
                assert_eq!(parts.len(), 4);
                assert!(parts
                    .iter()
                    .all(|s| matches!(s, Stmt::Assign(v, _) if v == "x")));
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let src = "monitor M {\n  int x = ;\n}";
        let err = parse_monitor(src).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_method_gets_a_trivial_ccr() {
        let src = "monitor M { int x = 0; atomic void nop() { } }";
        let m = parse_monitor(src).unwrap();
        let nop = m.method("nop").unwrap();
        assert_eq!(nop.ccrs.len(), 1);
        assert!(m.ccr(nop.ccrs[0]).never_blocks());
        assert_eq!(m.ccr(nop.ccrs[0]).body, Stmt::Skip);
    }

    /// `s` nested `depth` levels deep in `open` … `close`.
    fn wrapped(open: &str, s: &str, close: &str, depth: usize) -> String {
        format!("{}{s}{}", open.repeat(depth), close.repeat(depth))
    }

    fn assert_too_deep(err: ParseError, line: usize) {
        assert!(err.message.contains("deeper than 256 levels"), "{err}");
        assert_eq!(err.line, line, "{err}");
    }

    #[test]
    fn deep_expressions_are_an_error_not_a_stack_overflow() {
        const DEEP: usize = 100_000;
        assert_too_deep(parse_expr(&wrapped("(", "x", ")", DEEP)).unwrap_err(), 1);
        assert_too_deep(parse_expr(&wrapped("!", "x", "", DEEP)).unwrap_err(), 1);
        // A chain builds a tree as deep as it is long.
        assert_too_deep(parse_expr(&wrapped("", "x", " + x", DEEP)).unwrap_err(), 1);
    }

    #[test]
    fn a_deep_waituntil_is_an_error_not_a_stack_overflow() {
        const DEEP: usize = 100_000;
        let monitor = |guard: &str, body: &str| {
            format!("monitor M {{\n  int x = 0;\n  atomic void f() {{\n    waituntil ({guard}) {body}\n  }}\n}}")
        };
        let deep_guard = monitor(&wrapped("(", "x > 0", ")", DEEP), "{ x = 0; }");
        assert_too_deep(parse_monitor(&deep_guard).unwrap_err(), 4);
        let deep_body = monitor("x > 0", &wrapped("{", "x = 0;", "}", DEEP));
        assert_too_deep(parse_monitor(&deep_body).unwrap_err(), 4);
        let deep_ifs = monitor("x > 0", &wrapped("if (x > 0) ", "x = 0;", "", DEEP));
        assert_too_deep(parse_monitor(&deep_ifs).unwrap_err(), 4);
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // The expression itself is the first level.
        let deepest = MAX_NESTING - 1;
        let parens = parse_expr(&wrapped("(", "x", ")", deepest)).unwrap();
        assert_eq!(parens, Expr::Var("x".into()));
        assert!(parse_expr(&wrapped("!", "x", "", deepest)).is_ok());
        assert!(parse_expr(&wrapped("", "x", " + x", deepest)).is_ok());
        assert_too_deep(
            parse_expr(&wrapped("(", "x", ")", deepest + 1)).unwrap_err(),
            1,
        );
    }

    #[test]
    fn display_round_trips_through_parser() {
        let m = parse_monitor(READERS_WRITERS).unwrap();
        let printed = m.to_string();
        let reparsed = parse_monitor(&printed).unwrap();
        assert_eq!(m, reparsed);
    }
}
