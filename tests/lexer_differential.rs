//! The byte lexer against the `char` lexer it replaced.
//!
//! `monitor_lang::lexer::tokenize` scans bytes and borrows identifiers from
//! the source. `reference::tokenize` below is the lexer before it, kept as
//! the oracle: it collects the source into a `Vec<char>`, makes a `String`
//! of every identifier, and leaves the last line to be counted apart. The
//! two must give the same tokens on the same lines, the same last line, and
//! the same `LexError` (message and line), on the suite sources, on two
//! 500-monitor generated corpora and on seeded random strings drawn from
//! the characters where a byte scanner and a `char` scanner can part:
//! whitespace that only `char::is_whitespace` knows (`\x0B`, U+0085,
//! U+00A0, U+2028), a non-ASCII letter, comment delimiters, every ASCII
//! punctuation byte and literals past `i64`.

use expresso_repro::logic::Lcg;
use expresso_repro::monitor_lang::lexer::{self, LexError};
use expresso_repro::suite::benchmarks;
use expresso_repro::suite::corpusgen::{generate, CorpusSpec};

mod reference {
    //! The `Vec<char>` tokenizer, as it was before the byte scanner.

    use expresso_repro::monitor_lang::lexer::{Keyword, LexError, Punct};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Token {
        Ident(String),
        Int(i64),
        Keyword(Keyword),
        Punct(Punct),
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpannedToken {
        pub token: Token,
        pub line: usize,
    }

    pub fn tokenize(source: &str) -> Result<Vec<SpannedToken>, LexError> {
        let chars: Vec<char> = source.chars().collect();
        let mut tokens = Vec::new();
        let mut i = 0usize;
        let mut line = 1usize;
        while i < chars.len() {
            let c = chars[i];
            if c == '\n' {
                line += 1;
                i += 1;
                continue;
            }
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            // Comments.
            if c == '/' && i + 1 < chars.len() {
                if chars[i + 1] == '/' {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                    continue;
                }
                if chars[i + 1] == '*' {
                    i += 2;
                    while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    if i + 1 >= chars.len() {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            line,
                        });
                    }
                    i += 2;
                    continue;
                }
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let value = text.parse::<i64>().map_err(|_| LexError {
                    message: format!("integer literal `{text}` is out of range"),
                    line,
                })?;
                tokens.push(SpannedToken {
                    token: Token::Int(value),
                    line,
                });
                continue;
            }
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let token = match text.as_str() {
                    "monitor" => Token::Keyword(Keyword::Monitor),
                    "atomic" => Token::Keyword(Keyword::Atomic),
                    "void" => Token::Keyword(Keyword::Void),
                    "int" => Token::Keyword(Keyword::Int),
                    "bool" | "boolean" => Token::Keyword(Keyword::Bool),
                    "if" => Token::Keyword(Keyword::If),
                    "else" => Token::Keyword(Keyword::Else),
                    "while" => Token::Keyword(Keyword::While),
                    "waituntil" => Token::Keyword(Keyword::Waituntil),
                    "true" => Token::Keyword(Keyword::True),
                    "false" => Token::Keyword(Keyword::False),
                    "requires" => Token::Keyword(Keyword::Requires),
                    "new" => Token::Keyword(Keyword::New),
                    "skip" => Token::Keyword(Keyword::Skip),
                    _ => Token::Ident(text),
                };
                tokens.push(SpannedToken { token, line });
                continue;
            }
            let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
            let (punct, len) = match two.as_str() {
                "==" => (Punct::EqEq, 2),
                "!=" => (Punct::NotEq, 2),
                "<=" => (Punct::Le, 2),
                ">=" => (Punct::Ge, 2),
                "&&" => (Punct::AndAnd, 2),
                "||" => (Punct::OrOr, 2),
                "++" => (Punct::PlusPlus, 2),
                "--" => (Punct::MinusMinus, 2),
                "+=" => (Punct::PlusAssign, 2),
                "-=" => (Punct::MinusAssign, 2),
                _ => match c {
                    '(' => (Punct::LParen, 1),
                    ')' => (Punct::RParen, 1),
                    '{' => (Punct::LBrace, 1),
                    '}' => (Punct::RBrace, 1),
                    '[' => (Punct::LBracket, 1),
                    ']' => (Punct::RBracket, 1),
                    ';' => (Punct::Semi, 1),
                    ',' => (Punct::Comma, 1),
                    '=' => (Punct::Assign, 1),
                    '+' => (Punct::Plus, 1),
                    '-' => (Punct::Minus, 1),
                    '*' => (Punct::Star, 1),
                    '%' => (Punct::Percent, 1),
                    '!' => (Punct::Bang, 1),
                    '<' => (Punct::Lt, 1),
                    '>' => (Punct::Gt, 1),
                    other => {
                        return Err(LexError {
                            message: format!("unexpected character `{other}`"),
                            line,
                        })
                    }
                },
            };
            tokens.push(SpannedToken {
                token: Token::Punct(punct),
                line,
            });
            i += len;
        }
        Ok(tokens)
    }
}

/// What a lexer made of a source: each token (identifiers owned) with its
/// line and the last line, or the error.
type Lexed = Result<(Vec<(reference::Token, usize)>, usize), LexError>;

fn production(source: &str) -> Lexed {
    let lexed = lexer::tokenize(source)?;
    let tokens = lexed
        .tokens
        .iter()
        .map(|spanned| {
            let token = match spanned.token {
                lexer::Token::Ident(name) => reference::Token::Ident(name.to_owned()),
                lexer::Token::Int(v) => reference::Token::Int(v),
                lexer::Token::Keyword(k) => reference::Token::Keyword(k),
                lexer::Token::Punct(p) => reference::Token::Punct(p),
            };
            (token, spanned.line)
        })
        .collect();
    Ok((tokens, lexed.last_line))
}

/// The reference, with the last line counted the way the parser counted it.
fn oracle(source: &str) -> Lexed {
    let tokens = reference::tokenize(source)?;
    let last_line = 1 + source.matches('\n').count();
    Ok((
        tokens.into_iter().map(|t| (t.token, t.line)).collect(),
        last_line,
    ))
}

fn assert_same(source: &str) {
    assert_eq!(production(source), oracle(source), "source {source:?}");
}

#[test]
fn suite_and_corpus_sources_lex_alike() {
    let mut sources: Vec<String> = benchmarks::all()
        .iter()
        .map(|benchmark| benchmark.source.to_owned())
        .collect();
    for seed in [1, 2] {
        sources.extend(
            generate(&CorpusSpec { size: 500, seed })
                .into_iter()
                .map(|variant| variant.source),
        );
    }
    assert_eq!(sources.len(), 1016);
    for source in &sources {
        assert!(production(source).is_ok());
        assert_same(source);
    }
}

/// What a random source is drawn from: the characters the two scanners
/// could part on, and enough of the language to make tokens of.
const PIECES: &[&str] = &[
    // Whitespace: `\x0B` is what `u8::is_ascii_whitespace` leaves out and
    // `char::is_whitespace` takes; then the Unicode ones.
    "\x0B",
    "\x0C",
    "\r",
    "\t",
    " ",
    "\n",
    "\u{85}",
    "\u{A0}",
    "\u{2028}",
    // Not whitespace, not a token.
    "é",
    "\u{0}",
    "\u{1C}",
    "\u{7F}",
    // Comment delimiters, halves of them, and identifier parts.
    "/",
    "*",
    "//",
    "/*",
    "*/",
    ".",
    "_",
    // Every ASCII punctuation byte.
    "!",
    "\"",
    "#",
    "$",
    "%",
    "&",
    "'",
    "(",
    ")",
    "+",
    ",",
    "-",
    ":",
    ";",
    "<",
    "=",
    ">",
    "?",
    "@",
    "[",
    "\\",
    "]",
    "^",
    "`",
    "{",
    "|",
    "}",
    "~",
    // Literals: past `i64`, at its edge, small.
    "12345678901234567890",
    "9223372036854775807",
    "9223372036854775808",
    "0",
    "7",
    // Words: identifiers, keywords, a keyword's prefix.
    "x",
    "a1",
    "Z",
    "q.size",
    "monitor",
    "int",
    "boolean",
    "bool",
    "waituntil",
    "whil",
];

#[test]
fn random_strings_lex_alike() {
    let mut rng = Lcg::new(0x1E_C5E5);
    let mut errors = 0;
    for _ in 0..20_000 {
        let source: String = (0..rng.index(40))
            .map(|_| PIECES[rng.index(PIECES.len())])
            .collect();
        errors += usize::from(production(&source).is_err());
        assert_same(&source);
    }
    // Both outcomes are exercised.
    assert!((1_000..19_000).contains(&errors), "{errors} errors");
}

#[test]
fn edge_cases_lex_alike() {
    for source in [
        "",
        "\n",
        "/",
        "/*",
        "/*/",
        "/**/",
        "/*\n",
        "/*\n\n",
        "/*é",
        "/*a\n*",
        "//",
        "// é\nx",
        "x\x0By",
        "1x",
        "x.1",
        "a==b",
        "a=",
        "!",
        "&",
        "|",
        "+",
        "-",
        "é",
        "\u{2028}\n\u{85}é",
        "99999999999999999999",
    ] {
        assert_same(source);
    }
}
