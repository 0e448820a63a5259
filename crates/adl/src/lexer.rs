//! Pull lexer for the AAS architecture description language.
//!
//! [`Lexer`] scans the source's bytes in place and hands out one
//! [`Token`] per call: identifiers and string literals borrow from the
//! source, so lexing allocates nothing unless it fails. Columns count
//! chars, not bytes.

use core::fmt;

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Integer literal.
    Int(u64),
    /// Float literal (also produced for ints followed by `.`).
    Float(f64),
    /// String literal (double-quoted), without its quotes.
    Str(&'a str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `->`
    Arrow,
    /// `--`
    DashDash,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Float(x) => write!(f, "{x}"),
            TokenKind::Str(s) => write!(f, "{s:?}"),
            TokenKind::LBrace => f.write_str("{"),
            TokenKind::RBrace => f.write_str("}"),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Colon => f.write_str(":"),
            TokenKind::Semi => f.write_str(";"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Eq => f.write_str("="),
            TokenKind::Arrow => f.write_str("->"),
            TokenKind::DashDash => f.write_str("--"),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::Ge => f.write_str(">="),
            TokenKind::Le => f.write_str("<="),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}

/// A lexical error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Offending character or message.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenizes ADL source on demand. `//` comments run to end of line.
///
/// As an iterator it yields each token, then one [`TokenKind::Eof`],
/// then nothing; after a [`LexError`] (an unknown character, an
/// unterminated string, a malformed number) it yields nothing more.
///
/// # Examples
///
/// ```
/// use aas_adl::lexer::{Lexer, TokenKind};
///
/// let tokens: Vec<_> = Lexer::new("system S { }").collect::<Result<_, _>>().unwrap();
/// assert_eq!(tokens[0].kind, TokenKind::Ident("system"));
/// assert_eq!(tokens.last().unwrap().kind, TokenKind::Eof);
/// ```
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    line: usize,
    col: usize,
    /// The `Eof` token or an error has been handed out.
    done: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    #[must_use]
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
            done: false,
        }
    }

    fn byte_at(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(i).copied()
    }

    fn error(&mut self, message: String, col: usize) -> LexError {
        self.done = true;
        LexError {
            message,
            line: self.line,
            col,
        }
    }

    /// The token that spans `len` ASCII bytes from here.
    fn token(&mut self, kind: TokenKind<'a>, len: usize) -> Token<'a> {
        let token = Token {
            kind,
            line: self.line,
            col: self.col,
        };
        self.pos += len;
        self.col += len;
        token
    }

    fn string(&mut self) -> Result<Token<'a>, LexError> {
        let body = &self.src[self.pos + 1..];
        match body.find(['"', '\n']) {
            Some(end) if body.as_bytes()[end] == b'"' => {
                let text = &body[..end];
                let token = Token {
                    kind: TokenKind::Str(text),
                    line: self.line,
                    col: self.col,
                };
                self.pos += end + 2;
                self.col += text.chars().count() + 2;
                Ok(token)
            }
            _ => Err(self.error("unterminated string".into(), self.col)),
        }
    }

    fn number(&mut self) -> Result<Token<'a>, LexError> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut j = start + usize::from(bytes[start] == b'-');
        let mut is_float = false;
        while let Some(&b) = bytes.get(j) {
            let sign_of_exponent = (b == b'+' || b == b'-') && matches!(bytes[j - 1], b'e' | b'E');
            if !(b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E') || sign_of_exponent) {
                break;
            }
            is_float |= matches!(b, b'.' | b'e' | b'E');
            j += 1;
        }
        let text = &self.src[start..j];
        let kind = if is_float || text.starts_with('-') {
            match text.parse() {
                Ok(v) => TokenKind::Float(v),
                Err(_) => return Err(self.error(format!("bad number `{text}`"), self.col)),
            }
        } else {
            match text.parse() {
                Ok(v) => TokenKind::Int(v),
                Err(_) => return Err(self.error(format!("bad integer `{text}`"), self.col)),
            }
        };
        Ok(self.token(kind, j - start))
    }

    fn ident(&mut self) -> Token<'a> {
        let rest = &self.src.as_bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
            .unwrap_or(rest.len());
        let text = &self.src[self.pos..self.pos + len];
        self.token(TokenKind::Ident(text), len)
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let Some(c) = self.byte_at(self.pos) else {
                self.done = true;
                return Some(Ok(self.token(TokenKind::Eof, 0)));
            };
            let next = self.byte_at(self.pos + 1);
            let token = match c {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    self.col += 1;
                    continue;
                }
                // A comment moves no column: the newline that ends it resets it.
                b'/' if next == Some(b'/') => {
                    let rest = &self.src[self.pos..];
                    self.pos += rest.find('\n').unwrap_or(rest.len());
                    continue;
                }
                b'{' => self.token(TokenKind::LBrace, 1),
                b'}' => self.token(TokenKind::RBrace, 1),
                b'(' => self.token(TokenKind::LParen, 1),
                b')' => self.token(TokenKind::RParen, 1),
                b':' => self.token(TokenKind::Colon, 1),
                b';' => self.token(TokenKind::Semi, 1),
                b',' => self.token(TokenKind::Comma, 1),
                b'.' => self.token(TokenKind::Dot, 1),
                b'=' => self.token(TokenKind::Eq, 1),
                b'>' if next == Some(b'=') => self.token(TokenKind::Ge, 2),
                b'<' if next == Some(b'=') => self.token(TokenKind::Le, 2),
                b'>' => self.token(TokenKind::Gt, 1),
                b'<' => self.token(TokenKind::Lt, 1),
                b'-' if next == Some(b'>') => self.token(TokenKind::Arrow, 2),
                b'-' if next == Some(b'-') => self.token(TokenKind::DashDash, 2),
                b'"' => return Some(self.string()),
                c if c.is_ascii_digit()
                    || (c == b'-' && next.is_some_and(|d| d.is_ascii_digit())) =>
                {
                    return Some(self.number())
                }
                c if c.is_ascii_alphabetic() || c == b'_' => self.ident(),
                _ => {
                    let other = self.src[self.pos..].chars().next().unwrap_or_default();
                    return Some(Err(
                        self.error(format!("unexpected character `{other}`"), self.col)
                    ));
                }
            };
            return Some(Ok(token));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(src: &str) -> Result<Vec<Token<'_>>, LexError> {
        Lexer::new(src).collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("a . b -> c ; { } ( ) : , = -- > < >= <="),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Dot,
                TokenKind::Ident("b"),
                TokenKind::Arrow,
                TokenKind::Ident("c"),
                TokenKind::Semi,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Colon,
                TokenKind::Comma,
                TokenKind::Eq,
                TokenKind::DashDash,
                TokenKind::Gt,
                TokenKind::Lt,
                TokenKind::Ge,
                TokenKind::Le,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers_ints_and_floats() {
        assert_eq!(
            kinds("42 2.5 1e6 -3.5"),
            vec![
                TokenKind::Int(42),
                TokenKind::Float(2.5),
                TokenKind::Float(1e6),
                TokenKind::Float(-3.5),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_and_comments() {
        assert_eq!(
            kinds("\"hello world\" // comment to end\nx"),
            vec![
                TokenKind::Str("hello world"),
                TokenKind::Ident("x"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn columns_count_chars_not_bytes() {
        let toks = tokenize("\"né→\" x").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Str("né→"));
        assert_eq!((toks[1].line, toks[1].col), (1, 7));
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("\"oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn unknown_character_errors() {
        let err = tokenize("a @ b").unwrap_err();
        assert!(err.to_string().contains('@'));
        assert_eq!(err.col, 3);
    }

    #[test]
    fn nothing_follows_eof_or_an_error() {
        let mut lexer = Lexer::new("a");
        assert!(matches!(lexer.next(), Some(Ok(t)) if t.kind == TokenKind::Ident("a")));
        assert!(matches!(lexer.next(), Some(Ok(t)) if t.kind == TokenKind::Eof));
        assert!(lexer.next().is_none());
        let mut lexer = Lexer::new("é b");
        assert_eq!(
            lexer.next().unwrap().unwrap_err().message,
            "unexpected character `é`"
        );
        assert!(lexer.next().is_none());
    }
}
