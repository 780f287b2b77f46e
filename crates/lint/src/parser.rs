//! A lightweight Rust *item* parser on top of the line lexer.
//!
//! [`crate::lexer::scan`] gives every rule comment-free, literal-blanked
//! code text; this module recovers the item structure the rules read, so
//! no rule brace-matches on its own: `fn` items with their signature and
//! body spans, `impl` blocks with the trait and type they name, and
//! `struct` items with their named fields.
//!
//! It is deliberately *not* a full Rust parser. The workspace is
//! rustfmt-formatted, which the parser leans on in exactly three places:
//! an `impl` header starts its line (so `-> impl Iterator` return types
//! are never mistaken for blocks), a `fn` signature never shares its line
//! with an unrelated earlier `{`, and a named struct field starts its
//! line. Everything else — multi-line signatures, where-clauses, nested
//! modules, `#[cfg(test)]` items — is handled structurally via brace
//! matching.

use crate::lexer::{find_word, LineScan};
use crate::workspace::{find_code_char, match_brace};

/// One `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    pub is_pub: bool,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Line of the `{` or `;` that ends the signature.
    pub sig_end: usize,
    /// Line of the closing brace (the body spans `sig_end..=body_end`);
    /// `None` for bodyless trait method declarations.
    pub body_end: Option<usize>,
    /// The fn sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// One `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplItem {
    /// Lines of the `impl` keyword and of the closing brace.
    pub start: usize,
    pub end: usize,
    /// `Engine` for `impl ExecutionBackend for Engine<'a>`.
    pub self_ty: String,
    /// `ExecutionBackend` above; `None` for inherent impls.
    pub trait_name: Option<String>,
}

/// One named field of a braced struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldItem {
    pub name: String,
    /// Plain `pub` (restricted visibility such as `pub(crate)` is not).
    pub is_pub: bool,
    pub line: usize,
}

/// One braced `struct` item (tuple and unit structs have no named fields
/// and are not recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    pub name: String,
    pub is_pub: bool,
    pub fields: Vec<FieldItem>,
}

/// Everything parsed out of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplItem>,
    pub structs: Vec<StructItem>,
}

/// The identifier `s` starts with (empty if it starts with none).
fn leading_ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(s.len());
    s.get(..end).unwrap_or("")
}

/// Last path segment of a type expression, generics/refs stripped:
/// `&'a mut Engine<'a>` → `Engine`, `fmt::Display` → `Display`.
fn last_type_segment(expr: &str) -> String {
    let mut cleaned = String::new();
    let mut depth = 0i32;
    for c in expr.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ if depth == 0 => cleaned.push(c),
            _ => {}
        }
    }
    cleaned
        .split("::")
        .last()
        .unwrap_or("")
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Span of the item whose header starts at `(li, ci)`: line and column of
/// the first `{` or `;` at *bracket depth zero* — semicolons inside `(...)`
/// / `[...]` (array types like `[f64; N]` in a signature) do not end a
/// header — and, when that char is `{`, the line of its matching `}`.
pub(crate) fn item_span(
    lines: &[LineScan],
    li: usize,
    ci: usize,
) -> Option<(usize, usize, Option<usize>)> {
    let mut depth = 0i32;
    let mut cur = (li, ci);
    loop {
        let (bl, bc) = find_code_char(lines, cur.0, cur.1, |c| {
            matches!(c, '{' | ';' | '(' | ')' | '[' | ']')
        })?;
        let c = lines.get(bl)?.code.get(bc..)?.chars().next()?;
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '{' if depth == 0 => {
                return Some((bl, bc, Some(match_brace(lines, bl, bc).unwrap_or(bl))))
            }
            ';' if depth == 0 => return Some((bl, bc, None)),
            _ => {}
        }
        cur = (bl, bc + 1);
    }
}

/// Parse the `impl` blocks of a file.
fn parse_impls(lines: &[LineScan]) -> Vec<ImplItem> {
    let mut out = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        // `impl` must start the line as a keyword, not an identifier prefix.
        let Some(rest) = code.trim_start().strip_prefix("impl") else {
            continue;
        };
        if !leading_ident(rest).is_empty() {
            continue;
        }
        let kw_end = code.len() - rest.len();
        let Some((bl, bc, Some(end))) = item_span(lines, li, kw_end) else {
            continue;
        };
        // Header text between the keyword and the opening brace.
        let mut header = String::new();
        for (i, l) in lines.iter().enumerate().take(bl + 1).skip(li) {
            let s = l.code.as_str();
            let lo = if i == li { kw_end } else { 0 };
            let hi = if i == bl { bc } else { s.len() };
            header.push_str(s.get(lo..hi).unwrap_or(""));
            header.push(' ');
        }
        // Drop leading generic parameters `<…>` of the impl itself.
        let header = header.trim_start();
        let header = if header.starts_with('<') {
            let mut depth = 0i32;
            let mut cut = header.len();
            for (at, c) in header.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = at + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            header.get(cut..).unwrap_or("")
        } else {
            header
        };
        let (self_ty, trait_name) = match split_on_for(header) {
            Some((trait_part, type_part)) => (
                last_type_segment(type_part),
                Some(last_type_segment(trait_part)),
            ),
            None => (last_type_segment(header), None),
        };
        if !self_ty.is_empty() {
            out.push(ImplItem {
                start: li,
                end,
                self_ty,
                trait_name,
            });
        }
    }
    out
}

/// Split an impl header on the ` for ` keyword (word-boundary, outside
/// generics) into `(trait, type)`.
fn split_on_for(header: &str) -> Option<(&str, &str)> {
    let bytes = header.as_bytes();
    for at in find_word(header, "for") {
        // Recompute the generic depth up to this occurrence.
        let mut depth = 0i32;
        for &b in bytes.get(..at).unwrap_or(&[]) {
            match b {
                b'<' => depth += 1,
                b'>' => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 {
            return Some((
                header.get(..at).unwrap_or(""),
                header.get(at + 3..).unwrap_or(""),
            ));
        }
    }
    None
}

/// The named field a struct-body line declares, if it declares one.
fn parse_field(code: &str, line: usize) -> Option<FieldItem> {
    let t = code.trim_start();
    let (is_pub, rest) = match t.strip_prefix("pub") {
        Some(r) if r.starts_with(' ') => (true, r.trim_start()),
        Some(r) if r.starts_with('(') => (false, r.split_once(')')?.1.trim_start()),
        _ => (false, t),
    };
    let name = leading_ident(rest);
    let is_field = !name.is_empty() && rest.get(name.len()..)?.trim_start().starts_with(':');
    is_field.then(|| FieldItem {
        name: name.to_string(),
        is_pub,
        line,
    })
}

/// Parse one lexed file into its items.
pub fn parse_file(lines: &[LineScan], test_mask: &[bool]) -> FileItems {
    let mut items = FileItems {
        impls: parse_impls(lines),
        ..FileItems::default()
    };
    for (li, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let is_pub = |at: usize| !find_word(code.get(..at).unwrap_or(""), "pub").is_empty();
        for at in find_word(code, "fn") {
            // Name: the identifier after `fn` (skipping whitespace). `fn(`
            // pointer types and `Fn` bounds produce no name and are skipped.
            let name = leading_ident(code.get(at + 2..).unwrap_or("").trim_start());
            if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
                continue;
            }
            let (sig_end, _, body_end) = item_span(lines, li, at).unwrap_or((li, 0, None));
            items.fns.push(FnItem {
                name: name.to_string(),
                is_pub: is_pub(at),
                sig_line: li,
                sig_end,
                body_end,
                in_test: test_mask.get(li).copied().unwrap_or(false),
            });
        }
        for at in find_word(code, "struct") {
            let name = leading_ident(code.get(at + "struct".len()..).unwrap_or("").trim_start());
            let Some((bl, _, Some(end))) = item_span(lines, li, at) else {
                continue;
            };
            let fields = (bl..=end)
                .filter_map(|fl| parse_field(lines.get(fl)?.code.as_str(), fl))
                .collect();
            items.structs.push(StructItem {
                name: name.to_string(),
                is_pub: is_pub(at),
                fields,
            });
        }
    }
    items
}

/// Map every line to the signature line of its innermost enclosing fn
/// (used for whole-function `lint:allow` placement).
pub fn enclosing_fn_sig(items: &FileItems, n_lines: usize) -> Vec<Option<usize>> {
    let mut sig: Vec<Option<usize>> = vec![None; n_lines];
    let mut span: Vec<usize> = vec![usize::MAX; n_lines];
    for f in &items.fns {
        let Some(end) = f.body_end else { continue };
        let width = end.saturating_sub(f.sig_line);
        for li in f.sig_line..=end.min(n_lines.saturating_sub(1)) {
            if width < span[li] {
                span[li] = width;
                sig[li] = Some(f.sig_line);
            }
        }
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::workspace::compute_test_mask;

    fn parse(src: &str) -> FileItems {
        let lines = scan(src);
        let mask = compute_test_mask(&lines);
        parse_file(&lines, &mask)
    }

    #[test]
    fn fns_and_the_impls_that_scope_them() {
        let src = "pub fn free(x: u32) -> u32 { x }\n\
                   impl Engine {\n    pub fn start(&self) {}\n    fn stop(&self) {}\n}\n\
                   impl fmt::Display for Engine {\n    fn fmt(&self) {}\n}\n";
        let items = parse(src);
        let fns: Vec<(&str, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            fns,
            vec![
                ("free", true),
                ("start", true),
                ("stop", false),
                ("fmt", false)
            ]
        );
        let impls: Vec<(usize, usize, &str, Option<&str>)> = items
            .impls
            .iter()
            .map(|i| (i.start, i.end, i.self_ty.as_str(), i.trait_name.as_deref()))
            .collect();
        assert_eq!(
            impls,
            vec![(1, 4, "Engine", None), (5, 7, "Engine", Some("Display"))]
        );
    }

    #[test]
    fn bodyless_trait_declarations_have_no_body() {
        let src = "pub trait Backend {\n    fn execute(&self);\n    fn execute_raw(&self) {\n        self.execute()\n    }\n}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        assert_eq!((items.fns[0].sig_end, items.fns[0].body_end), (1, None));
        assert_eq!((items.fns[1].sig_end, items.fns[1].body_end), (2, Some(4)));
    }

    #[test]
    fn impl_generics_and_return_position_impl_are_not_blocks() {
        let src = "impl<'a, T: Clone> Holder<'a, T> {\n    fn get(&self) {}\n}\n\
                   fn make() -> impl Iterator<Item = u32> {\n    (0..3).map(|x| x)\n}\n\
                   impl<O: CostOracle + ?Sized> CostOracle for &O {}\n";
        let items = parse(src);
        // `-> impl Iterator` must not open a block; a bound naming the
        // trait is not the trait being implemented.
        assert_eq!(items.impls.len(), 2);
        assert_eq!(items.impls[0].self_ty, "Holder");
        assert_eq!(items.impls[0].trait_name, None);
        assert_eq!(items.impls[1].trait_name.as_deref(), Some("CostOracle"));
        assert_eq!(items.impls[1].self_ty, "O");
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_header() {
        // The `;` inside `[f64; 6]` (param or return position) is part of
        // the signature — the fn still has a body.
        let src = "fn coeffs(xs: &[f64], ys: [f64; 6]) -> [f64; 6] {\n    ys\n}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].body_end, Some(2));
    }

    #[test]
    fn multiline_signatures_and_bodies_resolve() {
        let src = "pub fn long(\n    a: u32,\n    b: u32,\n) -> u32 {\n    a + b\n}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1);
        let f = &items.fns[0];
        assert_eq!((f.sig_line, f.sig_end, f.body_end), (0, 3, Some(5)));
    }

    #[test]
    fn braced_structs_carry_their_named_fields() {
        let src = "pub struct PingResponse<T>\nwhere\n    T: Clone,\n{\n    pub seconds: f64,\n    #[doc(hidden)]\n    pub(crate) tag: T,\n    risk: u8,\n}\n\
                   pub struct Id(pub [u8; 4]);\nstruct Unit;\n";
        let items = parse(src);
        assert_eq!(items.structs.len(), 1, "tuple and unit structs are skipped");
        let s = &items.structs[0];
        assert_eq!((s.name.as_str(), s.is_pub), ("PingResponse", true));
        let fields: Vec<(&str, bool, usize)> = s
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.line))
            .collect();
        assert_eq!(
            fields,
            vec![("seconds", true, 4), ("tag", false, 6), ("risk", false, 7)]
        );
    }

    #[test]
    fn test_mask_marks_fns_in_cfg_test() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let items = parse(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
    }

    #[test]
    fn enclosing_fn_map_prefers_the_innermost_fn() {
        let src =
            "pub fn outer() {\n    fn inner() {\n        let x = 1;\n    }\n    inner();\n}\n";
        let items = parse(src);
        let map = enclosing_fn_sig(&items, 6);
        assert_eq!(map[0], Some(0));
        assert_eq!(map[2], Some(1), "line in inner maps to inner's signature");
        assert_eq!(map[4], Some(0), "after inner closes, back to outer");
    }
}
