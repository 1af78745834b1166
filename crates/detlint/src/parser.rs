//! Item-level parsing on top of the lexer: fn / enum extraction, plus
//! the test-span scanner shared with the engine.
//!
//! This is not a Rust parser — it is a linear scan that recovers just
//! enough structure for the T rules: which functions exist (with their
//! body token range) and which enums declare which variants. The token
//! ranges let a rule scan a function body without re-lexing.
//!
//! Deliberate approximations (each safe for a lint with governed
//! suppressions): nested functions are recorded flat, function-pointer
//! types (`fn(u32) -> u32`) are skipped because no identifier follows
//! `fn`, and const-generic brace expressions in signatures are not
//! handled (none exist in this workspace).

use crate::lexer::{Lexed, TokKind, Token};

/// An inclusive line range.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// One function item (free fn, method, or trait fn with a default or
/// absent body).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body (inside the braces); empty for
    /// body-less trait fns.
    pub body: std::ops::Range<usize>,
}

/// One variant of a declared enum.
#[derive(Debug, Clone)]
pub struct EnumVariant {
    pub name: String,
    pub line: u32,
}

/// One enum declaration.
#[derive(Debug, Clone)]
pub struct EnumItem {
    pub name: String,
    pub line: u32,
    pub variants: Vec<EnumVariant>,
}

/// Everything item-level the parser recovers from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub enums: Vec<EnumItem>,
}

pub(crate) fn is_punct(tokens: &[Token], i: usize, p: &str) -> bool {
    matches!(tokens.get(i), Some(Token { kind: TokKind::Punct(q), .. }) if q == p)
}

pub(crate) fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i) {
        Some(Token { kind: TokKind::Ident(s), .. }) => Some(s.as_str()),
        _ => None,
    }
}

/// Parses the token stream into items.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let tokens = &lexed.tokens;
    let mut out = ParsedFile::default();
    let mut i = 0usize;
    while i < tokens.len() {
        match ident_at(tokens, i) {
            Some("fn") => {
                if let Some(name) = ident_at(tokens, i + 1) {
                    let body = fn_body(tokens, i + 2);
                    out.fns.push(FnItem { name: name.to_string(), line: tokens[i].line, body });
                    i += 2; // scan inside the body too (nested items)
                    continue;
                }
            }
            Some("enum") => {
                if let Some((item, end)) = parse_enum(tokens, i) {
                    out.enums.push(item);
                    i = end;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// From a token just after `fn name`, finds the body token range
/// (inside braces; empty for `;`-terminated trait fns).
fn fn_body(tokens: &[Token], mut i: usize) -> std::ops::Range<usize> {
    let mut depth = 0i32;
    while i < tokens.len() {
        if let TokKind::Punct(p) = &tokens[i].kind {
            match p.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => return i..i,
                "{" if depth == 0 => return i + 1..match_braces(tokens, i).saturating_sub(1),
                _ => {}
            }
        }
        i += 1;
    }
    i..i
}

/// Index one past the `}` matching the `{` at `open`.
pub(crate) fn match_braces(tokens: &[Token], open: usize) -> usize {
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < tokens.len() && depth > 0 {
        if let TokKind::Punct(p) = &tokens[i].kind {
            if p == "{" {
                depth += 1;
            } else if p == "}" {
                depth -= 1;
            }
        }
        i += 1;
    }
    i
}

/// Parses `enum Name { … }` at `i`; returns the item and the index one
/// past it.
fn parse_enum(tokens: &[Token], i: usize) -> Option<(EnumItem, usize)> {
    let name = ident_at(tokens, i + 1)?.to_string();
    let line = tokens[i].line;
    // Find the body brace (skip generics / where clause; no parens occur
    // before an enum body).
    let mut j = i + 2;
    while j < tokens.len() && !is_punct(tokens, j, "{") {
        if is_punct(tokens, j, ";") {
            return None; // not an enum declaration after all
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    let end = match_braces(tokens, j);
    let mut variants = Vec::new();
    let mut k = j + 1;
    let mut expect_variant = true;
    let mut depth = 0i32;
    while k + 1 < end.max(1) && k < tokens.len() {
        match &tokens[k].kind {
            TokKind::Punct(p) => match p.as_str() {
                "#" if depth == 0 && is_punct(tokens, k + 1, "[") => {
                    // Skip a variant attribute.
                    let mut d = 1i32;
                    k += 2;
                    while k < tokens.len() && d > 0 {
                        if let TokKind::Punct(q) = &tokens[k].kind {
                            if q == "[" {
                                d += 1;
                            } else if q == "]" {
                                d -= 1;
                            }
                        }
                        k += 1;
                    }
                    continue;
                }
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "," if depth == 0 => expect_variant = true,
                _ => {}
            },
            TokKind::Ident(id) if depth == 0 && expect_variant => {
                variants.push(EnumVariant { name: id.clone(), line: tokens[k].line });
                expect_variant = false;
            }
            _ => {}
        }
        k += 1;
    }
    Some((EnumItem { name, line, variants }, end))
}

// ---------------------------------------------------------------------------
// Test spans (moved here from the engine so the parser and the engine
// share one definition).
// ---------------------------------------------------------------------------

/// Finds line spans of items annotated `#[test]`-ish (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, …))]`). An attribute mentioning
/// `not` is conservatively treated as non-test (`#[cfg(not(test))]`
/// guards production code).
pub fn test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_punct(tokens, i, "#") || !is_punct(tokens, i + 1, "[") {
            i += 1;
            continue;
        }
        let attr_start_line = tokens[i].line;
        // Bracket-match the attribute body.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut has_test = false;
        let mut has_not = false;
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                TokKind::Punct(p) if p == "[" => depth += 1,
                TokKind::Punct(p) if p == "]" => depth -= 1,
                TokKind::Ident(id) if id == "test" => has_test = true,
                TokKind::Ident(id) if id == "not" => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Skip any further stacked attributes, then brace-match the item.
        while is_punct(tokens, j, "#") && is_punct(tokens, j + 1, "[") {
            let mut depth = 1i32;
            j += 2;
            while j < tokens.len() && depth > 0 {
                match &tokens[j].kind {
                    TokKind::Punct(p) if p == "[" => depth += 1,
                    TokKind::Punct(p) if p == "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let end = skip_item(tokens, j);
        let end_line = tokens.get(end.saturating_sub(1)).map(|t| t.line).unwrap_or(u32::MAX);
        spans.push(Span { start: attr_start_line, end: end_line });
        i = end;
    }
    spans
}

/// Advances past one item starting at `i`: to the matching `}` of its
/// body, or past a terminating `;` for body-less items. Returns the
/// index just past the item.
pub(crate) fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    let mut paren = 0i32;
    while i < tokens.len() {
        if let TokKind::Punct(p) = &tokens[i].kind {
            match p.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" if paren == 0 => return i + 1,
                "{" if paren == 0 => return match_braces(tokens, i),
                _ => {}
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_fns_methods_and_nested_fns() {
        let p = parsed(
            "fn top() {}\n\
             impl<A: Clone> Server<A> {\n    fn absorb(&mut self) { self.top(); }\n}\n\
             impl Host {\n\
               pub fn on_body(&mut self, port: &mut impl Port<A>) -> impl Iterator<Item = u8> {\n\
                   fn inner() {}\n\
               }\n\
             }\n\
             trait Application {\n    fn classify() -> u32 { 0 }\n    fn locality();\n}\n",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["top", "absorb", "on_body", "inner", "classify", "locality"]);
        // Body-less trait fn has an empty body range.
        assert!(p.fns[5].body.is_empty());
        assert!(!p.fns[4].body.is_empty());
    }

    #[test]
    fn enums_with_all_variant_shapes() {
        let p = parsed(
            "pub enum Payload<A> {\n\
               Exec { cmd: A, attempt: u32 },\n\
               #[allow(dead_code)]\n\
               Plan(Vec<(u64, u32)>),\n\
               Noop,\n\
               Tagged = 3,\n\
             }\n",
        );
        assert_eq!(p.enums.len(), 1);
        let vs: Vec<&str> = p.enums[0].variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(vs, vec!["Exec", "Plan", "Noop", "Tagged"]);
    }

    #[test]
    fn test_items_are_spanned() {
        let lexed = lex("#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn live() {}\n");
        let spans = test_spans(&lexed.tokens);
        assert!(spans.iter().any(|s| s.contains(3)));
        assert!(!spans.iter().any(|s| s.contains(5)));
    }
}
