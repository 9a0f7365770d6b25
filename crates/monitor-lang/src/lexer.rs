//! Lexer for the monitor language: a byte scanner over the source text.
//!
//! [`tokenize`] returns each token with the line it starts on, and the line
//! the source ends on. A token holds no heap data: an identifier borrows its
//! text from the source, and the parser allocates its `String` once, for the
//! tree. Every token is ASCII, so the scanner decodes a `char` only at a
//! non-ASCII byte, which can only be whitespace or an error.

use std::fmt;

/// Tokens produced by the lexer. An identifier borrows its text from the
/// source, so lexing allocates nothing per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'src> {
    /// Identifier (may contain `.` to model simple member accesses like `queue.size`).
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// A keyword.
    Keyword(Keyword),
    /// Punctuation or operator.
    Punct(Punct),
}

/// Reserved words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Monitor,
    Atomic,
    Void,
    Int,
    Bool,
    If,
    Else,
    While,
    Waituntil,
    True,
    False,
    Requires,
    New,
    Skip,
}

/// Operators and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Assign,
    Plus,
    Minus,
    Star,
    Percent,
    Bang,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    PlusPlus,
    MinusMinus,
    PlusAssign,
    MinusAssign,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Int(v) => write!(f, "integer `{v}`"),
            Token::Keyword(k) => write!(f, "keyword `{k:?}`"),
            Token::Punct(p) => write!(f, "`{p:?}`"),
        }
    }
}

/// A token together with the line it starts on (1-based), for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpannedToken<'src> {
    /// The token.
    pub token: Token<'src>,
    /// 1-based source line.
    pub line: usize,
}

/// What [`tokenize`] makes of a source: its tokens and the line it ends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tokens<'src> {
    /// The tokens, in source order.
    pub tokens: Vec<SpannedToken<'src>>,
    /// The 1-based line the source ends on (one more than its `\n`s):
    /// where an error in a source with no token at all is.
    pub last_line: usize,
}

/// Errors produced by the lexer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Explanation of the problem.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenises monitor source text.
///
/// Line comments (`// ...`) and block comments (`/* ... */`) are skipped,
/// and so is whitespace: every character [`char::is_whitespace`] accepts,
/// `\x0B` and the Unicode spaces included; only `\n` starts a new line.
///
/// The scanner walks the source's bytes. Every token is ASCII, and a
/// comment ends at an ASCII byte, which never occurs inside a multi-byte
/// character; so a `char` is decoded only at a non-ASCII byte outside a
/// comment, to skip it as whitespace or to report it.
///
/// # Errors
///
/// Returns a [`LexError`] on unrecognised characters, malformed literals and
/// an unterminated block comment.
pub fn tokenize(source: &str) -> Result<Tokens<'_>, LexError> {
    let bytes = source.as_bytes();
    // The suite and generated sources run 4.2 to 6 bytes a token: one
    // allocation instead of a growth step every doubling.
    let mut tokens = Vec::with_capacity(bytes.len() / 4);
    let mut i = 0usize;
    let mut line = 1usize;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let token = match b {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i = run_end(bytes, i, |b| b != b'\n');
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let body = &bytes[i + 2..];
                let Some(end) = body.windows(2).position(|w| w == b"*/") else {
                    // The error is on the line of the source's last byte.
                    line += newlines(&body[..body.len().saturating_sub(1)]);
                    return Err(LexError {
                        message: "unterminated block comment".into(),
                        line,
                    });
                };
                line += newlines(&body[..end]);
                i += 2 + end + 2;
                continue;
            }
            b'0'..=b'9' => {
                i = run_end(bytes, i, |b| b.is_ascii_digit());
                let text = &source[start..i];
                let value = text.parse::<i64>().map_err(|_| LexError {
                    message: format!("integer literal `{text}` is out of range"),
                    line,
                })?;
                Token::Int(value)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                i = run_end(bytes, i, |b| {
                    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
                });
                word(&source[start..i])
            }
            _ if b.is_ascii() => {
                // `char::is_whitespace`, not `u8::is_ascii_whitespace`: the
                // latter leaves out `\x0B`.
                if char::from(b).is_whitespace() {
                    i += 1;
                    continue;
                }
                let (punct, len) = punct(b, bytes.get(i + 1).copied()).ok_or_else(|| LexError {
                    message: format!("unexpected character `{}`", char::from(b)),
                    line,
                })?;
                i += len;
                Token::Punct(punct)
            }
            _ => {
                let c = source[i..].chars().next().expect("a char starts here");
                if !c.is_whitespace() {
                    return Err(LexError {
                        message: format!("unexpected character `{c}`"),
                        line,
                    });
                }
                i += c.len_utf8();
                continue;
            }
        };
        tokens.push(SpannedToken { token, line });
    }
    Ok(Tokens {
        tokens,
        last_line: line,
    })
}

/// The index just past the run of bytes from `start` on that `part_of` accepts.
fn run_end(bytes: &[u8], start: usize, part_of: impl Fn(u8) -> bool) -> usize {
    bytes[start..]
        .iter()
        .position(|&b| !part_of(b))
        .map_or(bytes.len(), |len| start + len)
}

fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The keyword `text` spells, or else the identifier.
fn word(text: &str) -> Token<'_> {
    Token::Keyword(match text {
        "monitor" => Keyword::Monitor,
        "atomic" => Keyword::Atomic,
        "void" => Keyword::Void,
        "int" => Keyword::Int,
        "bool" | "boolean" => Keyword::Bool,
        "if" => Keyword::If,
        "else" => Keyword::Else,
        "while" => Keyword::While,
        "waituntil" => Keyword::Waituntil,
        "true" => Keyword::True,
        "false" => Keyword::False,
        "requires" => Keyword::Requires,
        "new" => Keyword::New,
        "skip" => Keyword::Skip,
        _ => return Token::Ident(text),
    })
}

/// The operator starting with byte `b` (followed by `next`) and its length
/// in bytes; a two-byte operator wins over its one-byte prefix.
fn punct(b: u8, next: Option<u8>) -> Option<(Punct, usize)> {
    let pair = match (b, next) {
        (b'=', Some(b'=')) => Punct::EqEq,
        (b'!', Some(b'=')) => Punct::NotEq,
        (b'<', Some(b'=')) => Punct::Le,
        (b'>', Some(b'=')) => Punct::Ge,
        (b'&', Some(b'&')) => Punct::AndAnd,
        (b'|', Some(b'|')) => Punct::OrOr,
        (b'+', Some(b'+')) => Punct::PlusPlus,
        (b'-', Some(b'-')) => Punct::MinusMinus,
        (b'+', Some(b'=')) => Punct::PlusAssign,
        (b'-', Some(b'=')) => Punct::MinusAssign,
        _ => {
            let single = match b {
                b'(' => Punct::LParen,
                b')' => Punct::RParen,
                b'{' => Punct::LBrace,
                b'}' => Punct::RBrace,
                b'[' => Punct::LBracket,
                b']' => Punct::RBracket,
                b';' => Punct::Semi,
                b',' => Punct::Comma,
                b'=' => Punct::Assign,
                b'+' => Punct::Plus,
                b'-' => Punct::Minus,
                b'*' => Punct::Star,
                b'%' => Punct::Percent,
                b'!' => Punct::Bang,
                b'<' => Punct::Lt,
                b'>' => Punct::Gt,
                _ => return None,
            };
            return Some((single, 1));
        }
    };
    Some((pair, 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_readers_writers_header() {
        let tokens = tokenize("monitor RWLock { int readers = 0; }")
            .unwrap()
            .tokens;
        assert_eq!(tokens[0].token, Token::Keyword(Keyword::Monitor));
        assert_eq!(tokens[1].token, Token::Ident("RWLock"));
        assert_eq!(tokens[3].token, Token::Keyword(Keyword::Int));
        assert_eq!(tokens[5].token, Token::Punct(Punct::Assign));
        assert_eq!(tokens[6].token, Token::Int(0));
    }

    #[test]
    fn two_character_operators() {
        let tokens = tokenize("a <= b && c != d || e++ >= 3").unwrap().tokens;
        let puncts: Vec<Punct> = tokens
            .iter()
            .filter_map(|t| match t.token {
                Token::Punct(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts,
            vec![
                Punct::Le,
                Punct::AndAnd,
                Punct::NotEq,
                Punct::OrOr,
                Punct::PlusPlus,
                Punct::Ge
            ]
        );
    }

    #[test]
    fn dotted_identifiers_are_single_tokens() {
        let tokens = tokenize("queue.size < maxQueueSize").unwrap().tokens;
        assert_eq!(tokens[0].token, Token::Ident("queue.size"));
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let src = "// line comment\nint x; /* block\ncomment */ bool y;";
        let tokens = tokenize(src).unwrap().tokens;
        assert_eq!(tokens[0].token, Token::Keyword(Keyword::Int));
        assert_eq!(tokens[0].line, 2);
        let y_decl = tokens
            .iter()
            .find(|t| t.token == Token::Keyword(Keyword::Bool))
            .unwrap();
        assert_eq!(y_decl.line, 3);
    }

    #[test]
    fn unexpected_character_is_an_error() {
        let err = tokenize("int x = #;").unwrap_err();
        assert!(err.message.contains('#'));
    }

    #[test]
    fn boolean_keyword_alias() {
        let tokens = tokenize("boolean writerIn = false;").unwrap().tokens;
        assert_eq!(tokens[0].token, Token::Keyword(Keyword::Bool));
        assert_eq!(tokens[3].token, Token::Keyword(Keyword::False));
    }
}
