//! A minimal Rust lexer.
//!
//! The manifest check needs just enough lexical structure to find `pub`
//! items without being fooled by comments, string literals or lifetimes.
//! No external crates (`syn` is
//! unavailable in the build environment), so this hand-rolled lexer covers
//! the token shapes that actually occur in the workspace: identifiers,
//! punctuation, lifetimes, numeric/char/byte/string literals (including
//! raw strings with `#` guards) and both comment styles (block comments
//! nest, as in real Rust).
//!
//! The lexer is loss-tolerant: an unterminated literal or a stray byte
//! yields a [`TokenKind::Error`] token and lexing continues, so a syntax
//! error in one corner of a file cannot hide items elsewhere.

/// The kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`foo`, `fn`, `r#type`).
    Ident,
    /// A single punctuation byte (`.`, `!`, `[`, …).
    Punct(u8),
    /// A numeric, string, char or byte literal.
    Literal,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A `//…` or `/*…*/` comment, doc comments included.
    Comment,
    /// An unrecognised or unterminated construct.
    Error,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// The text of an identifier or lifetime; empty for every other kind.
    pub text: String,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: u8) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Lexes `src` into a token stream, comments included.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        bytes: src.as_bytes(),
        pos: 0,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        Some(b)
    }

    fn push(&mut self, kind: TokenKind, text: String) {
        self.out.push(Token { kind, text });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' | b'c' if self.raw_or_byte_literal() => {}
                b'"' => self.string_literal(),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                _ if b < 0x80 => {
                    self.bump();
                    self.push(TokenKind::Punct(b), String::new());
                }
                _ => {
                    // Non-ASCII outside literals/comments: skip the byte.
                    self.bump();
                    self.push(TokenKind::Error, String::new());
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        self.push(TokenKind::Comment, String::new());
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump(); // consume "/*"
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: tolerate
            }
        }
        self.push(TokenKind::Comment, String::new());
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`, `b'x'` and raw
    /// identifiers (`r#type`). Returns `false` when the `r`/`b`/`c` at the
    /// cursor is just the start of a plain identifier.
    fn raw_or_byte_literal(&mut self) -> bool {
        let b0 = match self.peek(0) {
            Some(b) => b,
            None => return false,
        };
        // Byte char literal: b'x'
        if b0 == b'b' && self.peek(1) == Some(b'\'') {
            self.bump();
            self.char_body();
            return true;
        }
        // Count an optional second prefix byte (br / rb do not both exist,
        // but br"…" does).
        let mut idx = 1;
        if b0 == b'b' && self.peek(1) == Some(b'r') {
            idx = 2;
        }
        // Raw guard hashes.
        let mut hashes = 0usize;
        while self.peek(idx + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(idx + hashes) != Some(b'"') {
            // `r#ident` raw identifier: let the ident path handle it so the
            // identifier text round-trips (minus nothing — keep `r#`).
            if b0 == b'r' && hashes == 1 {
                if let Some(c) = self.peek(2) {
                    if c == b'_' || c.is_ascii_alphabetic() {
                        self.ident_raw();
                        return true;
                    }
                }
            }
            return false; // plain identifier starting with r/b/c
        }
        // Only `r`-flavoured prefixes introduce *raw* strings; `b"` / `c"`
        // are escaped strings with a one-byte prefix.
        let raw = b0 == b'r' || (b0 == b'b' && idx == 2);
        for _ in 0..idx + hashes {
            self.bump();
        }
        if raw {
            self.raw_string_body(hashes);
        } else {
            self.string_literal();
        }
        true
    }

    fn ident_raw(&mut self) {
        let start = self.pos;
        self.bump(); // r
        self.bump(); // #
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(TokenKind::Ident, text);
    }

    fn raw_string_body(&mut self, hashes: usize) {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek(0) == Some(b'#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
                None => {
                    self.push(TokenKind::Error, String::new());
                    return;
                }
            }
        }
        self.push(TokenKind::Literal, String::new());
    }

    fn string_literal(&mut self) {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    self.bump();
                }
                Some(_) => {}
                None => {
                    self.push(TokenKind::Error, String::new());
                    return;
                }
            }
        }
        self.push(TokenKind::Literal, String::new());
    }

    /// After a `'`: lifetime (`'a`), loop label (`'outer:`) or char literal
    /// (`'x'`, `'\n'`). A lifetime is an identifier not followed by a
    /// closing quote.
    fn char_or_lifetime(&mut self) {
        let next = self.peek(1);
        let is_ident_start = matches!(next, Some(b) if b == b'_' || b.is_ascii_alphabetic());
        if is_ident_start && self.peek(2) != Some(b'\'') {
            self.bump(); // '
            let start = self.pos;
            while let Some(b) = self.peek(0) {
                if b == b'_' || b.is_ascii_alphanumeric() {
                    self.bump();
                } else {
                    break;
                }
            }
            let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            self.push(TokenKind::Lifetime, text);
        } else {
            self.char_body();
        }
    }

    fn char_body(&mut self) {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some(b'\'') => break,
                Some(b'\\') => {
                    self.bump();
                }
                Some(_) => {}
                None => {
                    self.push(TokenKind::Error, String::new());
                    return;
                }
            }
        }
        self.push(TokenKind::Literal, String::new());
    }

    fn number(&mut self) {
        // Digits, underscores, type suffixes and hex letters. `.` is left
        // to punctuation so `0..n` and `x.1` lex predictably; `1.5` becomes
        // three tokens, which is fine for every rule here.
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Literal, String::new());
    }

    fn ident(&mut self) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(TokenKind::Ident, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn comments_hide_their_contents() {
        let toks = lex("a // x.unwrap()\nb /* panic! /* nested */ still */ c");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["a", "b", "c"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = lex(r#"let s = "x.unwrap() // not a comment"; t"#);
        assert!(toks.iter().all(|t| !t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("t")));
    }

    #[test]
    fn raw_strings_with_guards() {
        let toks = lex(r###"let s = r#"quote " inside"#; after"###);
        assert!(toks.iter().any(|t| t.is_ident("after")));
        let toks = lex("let b = br\"bytes\"; after");
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Literal).count(),
            2
        );
    }

    #[test]
    fn raw_identifier() {
        let toks = lex("let r#type = 1;");
        assert!(toks.iter().any(|t| t.is_ident("r#type")));
    }

    #[test]
    fn unterminated_literal_is_tolerated() {
        let toks = lex("let s = \"oops");
        assert!(toks.iter().any(|t| t.kind == TokenKind::Error));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let k = kinds("0..10");
        assert_eq!(
            k,
            vec![
                TokenKind::Literal,
                TokenKind::Punct(b'.'),
                TokenKind::Punct(b'.'),
                TokenKind::Literal
            ]
        );
    }
}
