//! Item-level parsing on top of the lexer: fn / enum / impl / trait /
//! use extraction, plus the test-span scanner shared with the engine.
//!
//! This is not a Rust parser — it is a linear scan that recovers just
//! enough structure for cross-file analysis: which functions exist
//! (with their impl/trait owner and body token range), which enums
//! declare which variants, and what each `use` item pulls in. The
//! token ranges let the call-graph and rule modules scan function
//! bodies without re-lexing, and the line spans let findings be
//! attributed to their enclosing function.
//!
//! Deliberate approximations (each safe for a lint with governed
//! suppressions): `impl` opens a block only where an item can start
//! (elsewhere it is `impl Trait` in a signature), nested functions are
//! recorded flat (the innermost
//! enclosing span wins for line attribution), function-pointer types
//! (`fn(u32) -> u32`) are skipped because no identifier follows `fn`,
//! and const-generic brace expressions in signatures are not handled
//! (none exist in this workspace).

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
    /// The `impl`/`trait` type the function belongs to, when any.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line span of the whole item (signature through closing brace).
    pub span: Span,
    /// Token index range of the body (inside the braces); empty for
    /// body-less trait fns.
    pub body: std::ops::Range<usize>,
    /// Whether the item sits inside a `#[test]`/`#[cfg(test)]` span.
    pub is_test: bool,
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
    pub is_test: bool,
}

/// One `use` item, flattened to the identifiers it mentions (grouped
/// imports contribute every name in the group).
#[derive(Debug, Clone)]
pub struct UseItem {
    pub line: u32,
    pub idents: Vec<String>,
}

/// Everything item-level the parser recovers from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub enums: Vec<EnumItem>,
    pub uses: Vec<UseItem>,
}

impl ParsedFile {
    /// Index (into `fns`) of the innermost function whose span contains
    /// `line`.
    pub fn fn_at(&self, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.span.contains(line))
            .min_by_key(|(_, f)| f.span.end - f.span.start)
            .map(|(i, _)| i)
    }
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

/// Parses the token stream into items. `test_spans` (from
/// [`test_spans`]) marks which items live in test code.
pub fn parse(lexed: &Lexed, test_spans: &[Span]) -> ParsedFile {
    let tokens = &lexed.tokens;
    let in_test = |line: u32| test_spans.iter().any(|s| s.contains(line));
    let mut out = ParsedFile::default();
    // Stack of (owner type, token index one past the impl/trait body).
    let mut owners: Vec<(String, usize)> = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        while let Some(&(_, end)) = owners.last() {
            if i >= end {
                owners.pop();
            } else {
                break;
            }
        }
        match ident_at(tokens, i) {
            Some("impl") | Some("trait") if at_item_start(tokens, i) => {
                if let Some((owner, body)) = parse_owner_block(tokens, i) {
                    owners.push((owner, body.end));
                    i = body.start; // descend into the block
                    continue;
                }
            }
            Some("fn") => {
                if let Some(name) = ident_at(tokens, i + 1) {
                    let line = tokens[i].line;
                    let (body, end) = fn_body(tokens, i + 2);
                    let end_line =
                        tokens.get(end.saturating_sub(1)).map(|t| t.line).unwrap_or(line);
                    out.fns.push(FnItem {
                        name: name.to_string(),
                        owner: owners.last().map(|(o, _)| o.clone()),
                        line,
                        span: Span { start: line, end: end_line },
                        body,
                        is_test: in_test(line),
                    });
                    i += 2; // scan inside the body too (nested items)
                    continue;
                }
            }
            Some("enum") => {
                if let Some(item) = parse_enum(tokens, i, &in_test) {
                    let skip_to = item.1;
                    out.enums.push(item.0);
                    i = skip_to;
                    continue;
                }
            }
            Some("use") => {
                let line = tokens[i].line;
                let mut idents = Vec::new();
                let mut j = i + 1;
                while j < tokens.len() && !is_punct(tokens, j, ";") {
                    if let Some(id) = ident_at(tokens, j) {
                        idents.push(id.to_string());
                    }
                    j += 1;
                }
                out.uses.push(UseItem { line, idents });
                i = j + 1;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Whether the keyword at `i` can begin an item: it follows the end of
/// another item, an attribute, a block opening or a visibility/`unsafe`
/// qualifier. An `impl` anywhere else is `impl Trait` in a signature —
/// taking that for a block header swallows the functions after it.
fn at_item_start(tokens: &[Token], i: usize) -> bool {
    match i.checked_sub(1).map(|p| &tokens[p].kind) {
        None => true,
        Some(TokKind::Punct(p)) => matches!(p.as_str(), "}" | ";" | "]" | "{" | ")"),
        Some(TokKind::Ident(id)) => matches!(id.as_str(), "pub" | "unsafe" | "default"),
        Some(_) => false,
    }
}

/// Parses an `impl`/`trait` header starting at `i`; returns the owner
/// type name and the token range of the block body (inside the braces).
fn parse_owner_block(tokens: &[Token], i: usize) -> Option<(String, std::ops::Range<usize>)> {
    // Collect header tokens up to the opening `{` (at bracket depth 0).
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut names: Vec<&str> = Vec::new();
    let mut after_for: Option<usize> = None;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct(p) => match p.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" => depth -= 1,
                // `>` closes a generic list unless it is the tail of a
                // `->` arrow (Fn-trait bounds lex as `-` `>`).
                ">" if !(j > 0 && is_punct(tokens, j - 1, "-")) => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => return None, // e.g. `impl Trait for T;` — nothing to own
                _ => {}
            },
            TokKind::Ident(id) if depth == 0 => {
                if id == "for" {
                    after_for = Some(names.len());
                } else if id == "where" {
                    // `where` clause: type names after it are bounds, not
                    // the owner — stop collecting.
                    if after_for.is_none() {
                        after_for = None;
                    }
                    // Keep scanning for the `{` but collect no more names.
                    j += 1;
                    while j < tokens.len() && !is_punct(tokens, j, "{") {
                        j += 1;
                    }
                    break;
                } else {
                    names.push(id);
                }
            }
            _ => {}
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    // `impl Trait for Type` → the segment after `for`; otherwise the last
    // path identifier before the brace (skipping generic parameter names
    // is unnecessary: the self type's final segment is always last).
    let owner = match after_for {
        Some(k) => tokens_name(&names[k..]),
        None => tokens_name(&names),
    }?;
    let end = match_braces(tokens, j);
    Some((owner, j + 1..end.saturating_sub(1)))
}

/// The owner name from collected header idents: the last identifier
/// (final path segment of the self type).
fn tokens_name(names: &[&str]) -> Option<String> {
    names.last().map(|s| s.to_string())
}

/// From a token just after `fn name`, finds the body token range
/// (inside braces; empty for `;`-terminated trait fns) and the index
/// one past the item.
fn fn_body(tokens: &[Token], mut i: usize) -> (std::ops::Range<usize>, usize) {
    let mut depth = 0i32;
    while i < tokens.len() {
        if let TokKind::Punct(p) = &tokens[i].kind {
            match p.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => return (i..i, i + 1),
                "{" if depth == 0 => {
                    let end = match_braces(tokens, i);
                    return (i + 1..end.saturating_sub(1), end);
                }
                _ => {}
            }
        }
        i += 1;
    }
    (i..i, i)
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
fn parse_enum(
    tokens: &[Token],
    i: usize,
    in_test: &dyn Fn(u32) -> bool,
) -> Option<(EnumItem, usize)> {
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
    Some((EnumItem { name, line, variants, is_test: in_test(line) }, end))
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
        let lexed = lex(src);
        let spans = test_spans(&lexed.tokens);
        parse(&lexed, &spans)
    }

    #[test]
    fn free_fns_and_methods_with_owners() {
        let p = parsed(
            "fn top() {}\n\
             impl<A: Clone> Server<A> {\n    fn absorb(&mut self) { self.top(); }\n}\n\
             impl fmt::Display for Ballot {\n    fn fmt(&self) {}\n}\n\
             trait Application {\n    fn classify() -> u32 { 0 }\n    fn locality();\n}\n",
        );
        let names: Vec<(String, Option<String>)> =
            p.fns.iter().map(|f| (f.name.clone(), f.owner.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("top".into(), None),
                ("absorb".into(), Some("Server".into())),
                ("fmt".into(), Some("Ballot".into())),
                ("classify".into(), Some("Application".into())),
                ("locality".into(), Some("Application".into())),
            ]
        );
        // Body-less trait fn has an empty body range.
        assert!(p.fns[4].body.is_empty());
        assert!(!p.fns[3].body.is_empty());
    }

    #[test]
    fn impl_trait_in_a_signature_opens_no_block() {
        let p = parsed(
            "impl Host {\n\
               pub fn on_body(&mut self, port: &mut impl Port<A>) -> impl Iterator<Item = u8> {\n\
                   self.step(port, |role| role.tick())\n\
               }\n\
               fn step(&mut self, call: impl FnOnce(&mut Role) -> Vec<u8>) {}\n\
               fn drain(&mut self) {}\n\
             }\n\
             pub(crate) trait Port {\n    fn now(&self);\n}\n",
        );
        let names: Vec<(&str, Option<&str>)> =
            p.fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        let host = Some("Host");
        assert_eq!(
            names,
            [("on_body", host), ("step", host), ("drain", host), ("now", Some("Port"))]
        );
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
    fn uses_are_flattened() {
        let p = parsed("use std::time::{Duration, Instant};\nuse std::thread;\n");
        assert_eq!(p.uses.len(), 2);
        assert_eq!(p.uses[0].idents, vec!["std", "time", "Duration", "Instant"]);
        assert_eq!(p.uses[1].idents, vec!["std", "thread"]);
    }

    #[test]
    fn innermost_fn_wins_attribution() {
        let p = parsed("fn outer() {\n    fn inner() {\n        let x = 1;\n    }\n}\n");
        let idx = p.fn_at(3).unwrap();
        assert_eq!(p.fns[idx].name, "inner");
        assert_eq!(p.fns[p.fn_at(1).unwrap()].name, "outer");
    }

    #[test]
    fn test_items_are_marked() {
        let p = parsed("#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn live() {}\n");
        assert!(p.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(!p.fns.iter().find(|f| f.name == "live").unwrap().is_test);
    }
}
