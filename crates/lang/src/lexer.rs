//! Lexer for the paper's surface syntax.
//!
//! Notable multi-character tokens: the nested-comprehension brackets
//! `[*` and `*]`, the s/v pair operator `:=`, the generator arrow `<-`,
//! append `++`, the range ellipsis `..`, and the `letrec*` keyword.
//! Comments run from `--` to end of line, as in Haskell.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // literals / names
    Int(i64),
    Float(f64),
    Ident(String),
    // keywords
    Param,
    Input,
    Let,
    LetrecStar,
    And,
    In,
    Where,
    Array,
    AccumArray,
    BigUpd,
    If,
    Then,
    Else,
    Result,
    Mod,
    Not,
    Min,
    Max,
    // punctuation
    LParen,
    RParen,
    LBracket,
    RBracket,
    LStarBracket, // [*
    StarRBracket, // *]
    Comma,
    Semi,
    Bar,
    Bang,
    Assign,   // :=
    Equals,   // =
    Arrow,    // <-
    DotDot,   // ..
    PlusPlus, // ++
    Plus,
    Minus,
    Star,
    Slash,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne, // /=
    AndAnd,
    OrOr,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Param => write!(f, "param"),
            Tok::Input => write!(f, "input"),
            Tok::Let => write!(f, "let"),
            Tok::LetrecStar => write!(f, "letrec*"),
            Tok::And => write!(f, "and"),
            Tok::In => write!(f, "in"),
            Tok::Where => write!(f, "where"),
            Tok::Array => write!(f, "array"),
            Tok::AccumArray => write!(f, "accumArray"),
            Tok::BigUpd => write!(f, "bigupd"),
            Tok::If => write!(f, "if"),
            Tok::Then => write!(f, "then"),
            Tok::Else => write!(f, "else"),
            Tok::Result => write!(f, "result"),
            Tok::Mod => write!(f, "mod"),
            Tok::Not => write!(f, "not"),
            Tok::Min => write!(f, "min"),
            Tok::Max => write!(f, "max"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LStarBracket => write!(f, "[*"),
            Tok::StarRBracket => write!(f, "*]"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Bar => write!(f, "|"),
            Tok::Bang => write!(f, "!"),
            Tok::Assign => write!(f, ":="),
            Tok::Equals => write!(f, "="),
            Tok::Arrow => write!(f, "<-"),
            Tok::DotDot => write!(f, ".."),
            Tok::PlusPlus => write!(f, "++"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::EqEq => write!(f, "=="),
            Tok::Ne => write!(f, "/="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
        }
    }
}

/// A token plus its 1-based source line (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    pub tok: Tok,
    pub line: u32,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a source string.
///
/// # Errors
/// Returns [`LexError`] on unexpected characters or malformed numeric
/// literals.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, LexError> {
    let bytes: Vec<char> = src.chars().collect();
    // Byte offset of each char, plus the end: token text is sliced from
    // `src`, never collected.
    let offsets: Vec<usize> = src
        .char_indices()
        .map(|(at, _)| at)
        .chain(std::iter::once(src.len()))
        .collect();
    let text = |start: usize, end: usize| &src[offsets[start]..offsets[end]];
    let mut out = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    macro_rules! push {
        ($t:expr) => {
            out.push(SpannedTok { tok: $t, line })
        };
    }

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < n && bytes[i + 1] == '-' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                push!(Tok::LParen);
                i += 1;
            }
            ')' => {
                push!(Tok::RParen);
                i += 1;
            }
            '[' if i + 1 < n && bytes[i + 1] == '*' => {
                push!(Tok::LStarBracket);
                i += 2;
            }
            '[' => {
                push!(Tok::LBracket);
                i += 1;
            }
            ']' => {
                push!(Tok::RBracket);
                i += 1;
            }
            '*' if i + 1 < n && bytes[i + 1] == ']' => {
                push!(Tok::StarRBracket);
                i += 2;
            }
            '*' => {
                push!(Tok::Star);
                i += 1;
            }
            ',' => {
                push!(Tok::Comma);
                i += 1;
            }
            ';' => {
                push!(Tok::Semi);
                i += 1;
            }
            '|' if i + 1 < n && bytes[i + 1] == '|' => {
                push!(Tok::OrOr);
                i += 2;
            }
            '|' => {
                push!(Tok::Bar);
                i += 1;
            }
            '!' => {
                push!(Tok::Bang);
                i += 1;
            }
            ':' if i + 1 < n && bytes[i + 1] == '=' => {
                push!(Tok::Assign);
                i += 2;
            }
            '=' if i + 1 < n && bytes[i + 1] == '=' => {
                push!(Tok::EqEq);
                i += 2;
            }
            '=' => {
                push!(Tok::Equals);
                i += 1;
            }
            '<' if i + 1 < n && bytes[i + 1] == '-' => {
                push!(Tok::Arrow);
                i += 2;
            }
            '<' if i + 1 < n && bytes[i + 1] == '=' => {
                push!(Tok::Le);
                i += 2;
            }
            '<' => {
                push!(Tok::Lt);
                i += 1;
            }
            '>' if i + 1 < n && bytes[i + 1] == '=' => {
                push!(Tok::Ge);
                i += 2;
            }
            '>' => {
                push!(Tok::Gt);
                i += 1;
            }
            '+' if i + 1 < n && bytes[i + 1] == '+' => {
                push!(Tok::PlusPlus);
                i += 2;
            }
            '+' => {
                push!(Tok::Plus);
                i += 1;
            }
            '-' => {
                push!(Tok::Minus);
                i += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == '=' => {
                push!(Tok::Ne);
                i += 2;
            }
            '/' => {
                push!(Tok::Slash);
                i += 1;
            }
            '&' if i + 1 < n && bytes[i + 1] == '&' => {
                push!(Tok::AndAnd);
                i += 2;
            }
            '.' if i + 1 < n && bytes[i + 1] == '.' => {
                push!(Tok::DotDot);
                i += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // A '.' begins a float only if followed by a digit
                // (so `1..n` lexes as Int DotDot Ident).
                let is_float = i + 1 < n && bytes[i] == '.' && bytes[i + 1].is_ascii_digit();
                if is_float {
                    i += 1;
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i < n && (bytes[i] == 'e' || bytes[i] == 'E') {
                        i += 1;
                        if i < n && (bytes[i] == '+' || bytes[i] == '-') {
                            i += 1;
                        }
                        while i < n && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    let text = text(start, i);
                    let v = text.parse::<f64>().map_err(|e| LexError {
                        line,
                        message: format!("bad float literal `{text}`: {e}"),
                    })?;
                    push!(Tok::Float(v));
                } else {
                    let text = text(start, i);
                    let v = text.parse::<i64>().map_err(|e| LexError {
                        line,
                        message: format!("bad integer literal `{text}`: {e}"),
                    })?;
                    push!(Tok::Int(v));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_' || bytes[i] == '\'') {
                    i += 1;
                }
                let text = text(start, i);
                let tok = match text {
                    "param" => Tok::Param,
                    "input" => Tok::Input,
                    "let" => Tok::Let,
                    "letrec" => {
                        if i < n && bytes[i] == '*' {
                            i += 1;
                            Tok::LetrecStar
                        } else {
                            return Err(LexError {
                                line,
                                message: "plain `letrec` is not supported; use `letrec*` \
                                          (strict-context recursive bindings)"
                                    .into(),
                            });
                        }
                    }
                    "and" => Tok::And,
                    "in" => Tok::In,
                    "where" => Tok::Where,
                    "array" => Tok::Array,
                    "accumArray" => Tok::AccumArray,
                    "bigupd" => Tok::BigUpd,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "result" => Tok::Result,
                    "mod" => Tok::Mod,
                    "not" => Tok::Not,
                    "min" => Tok::Min,
                    "max" => Tok::Max,
                    _ => Tok::Ident(text.to_string()),
                };
                push!(tok);
            }
            other => {
                return Err(LexError {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_nested_brackets() {
        assert_eq!(
            toks("[* x *]"),
            vec![Tok::LStarBracket, Tok::Ident("x".into()), Tok::StarRBracket]
        );
    }

    #[test]
    fn star_bracket_vs_multiplication() {
        assert_eq!(
            toks("i * j *]"),
            vec![
                Tok::Ident("i".into()),
                Tok::Star,
                Tok::Ident("j".into()),
                Tok::StarRBracket
            ]
        );
    }

    #[test]
    fn range_does_not_eat_float() {
        assert_eq!(
            toks("[1..n]"),
            vec![
                Tok::LBracket,
                Tok::Int(1),
                Tok::DotDot,
                Tok::Ident("n".into()),
                Tok::RBracket
            ]
        );
        assert_eq!(toks("1.5"), vec![Tok::Float(1.5)]);
    }

    #[test]
    fn letrec_star_keyword() {
        assert_eq!(
            toks("letrec* a"),
            vec![Tok::LetrecStar, Tok::Ident("a".into())]
        );
        assert!(lex("letrec a").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks(":= <- <= < ++ + == = /= / .."),
            vec![
                Tok::Assign,
                Tok::Arrow,
                Tok::Le,
                Tok::Lt,
                Tok::PlusPlus,
                Tok::Plus,
                Tok::EqEq,
                Tok::Equals,
                Tok::Ne,
                Tok::Slash,
                Tok::DotDot
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a -- Clause 1\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into())]
        );
    }

    #[test]
    fn lines_tracked() {
        let ts = lex("a\nb\nc").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[2].line, 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a # b").is_err());
    }

    #[test]
    fn primes_allowed_in_idents() {
        assert_eq!(toks("a'"), vec![Tok::Ident("a'".into())]);
    }
}
