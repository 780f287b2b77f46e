//! The workspace-wide, symbol-resolved call graph.
//!
//! Nodes are every `fn` item parsed out of the analysis universe — all
//! non-binary sources of the Library and Determinism crate classes
//! (`bench`/`cli` are the timing harness *above* the service surface and
//! are excluded, exactly like the per-line panic rules exempt them).
//! Edges are extracted from fn bodies and resolved:
//!
//! * **bare calls** `helper(…)` — free functions of the same crate (the
//!   per-crate namespace is deliberately flat: module paths inside a crate
//!   are not tracked, which only ever *adds* edges), plus `use`-imported
//!   free functions of other crates;
//! * **path calls** `robopt_core::split_plan(…)`, `Type::method(…)`,
//!   `Self::helper(…)` — resolved across crates through the file's `use`
//!   bindings (groups, renames and globs included), with `Type::method`
//!   resolved by `(self type, name)` across the whole workspace;
//! * **method calls** `x.method(…)` — resolved to *every* method of that
//!   name in the workspace. This is the conservative over-approximation
//!   that keeps dispatch through `&dyn` seams (`&dyn CostOracle`,
//!   `&dyn ExecutionBackend`) sound: the receiver type is unknown, so all
//!   impls (and trait default bodies) become possible callees;
//! * **fn references in argument position** `sort_by(f64::total_cmp)` —
//!   multi-segment paths not followed by `(` are resolved the same way, so
//!   comparator/constructor passing does not silently drop edges. Bare
//!   single-identifier references are *not* chased (a local named like a
//!   fn would create far too many false edges); the taint passes document
//!   this as the one known under-approximation.
//!
//! Calls into `std`/`core`/`alloc` are classified `external`; the
//! nondeterministic ones (`Instant::now`, hash containers, …) are what the
//! taint pass seeds from *textually*, so externals need no edges.

use std::collections::BTreeMap;

use crate::parser::FnItem;
use crate::workspace::{CrateClass, SourceFile, Workspace};

/// A call-graph node: one fn item plus where it lives.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Crate directory name (`core`, `robopt`, …; root facade is
    /// `robopt-repro`).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Index of the file in `Workspace::sources`.
    pub file_idx: usize,
    /// Index of the fn in that file's `FileItems::fns`.
    pub fn_idx: usize,
    /// `Type::name` qualification for display (`Engine::execute`).
    pub qual: String,
    pub name: String,
    pub self_ty: Option<String>,
    pub sig_line: usize,
    pub body: Option<(usize, usize)>,
    pub body_open_col: usize,
    pub in_test: bool,
}

/// The resolved graph: forward edges with call-site lines, plus a reverse
/// adjacency for the taint passes.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Per caller: `(callee, 0-based call-site line)` — first site only,
    /// deduped, sorted; enough for one witness hop per edge.
    pub calls: Vec<Vec<(u32, usize)>>,
    /// Per callee: callers (deduped, sorted).
    pub callers: Vec<Vec<u32>>,
    pub resolved_calls: usize,
    pub unresolved_calls: usize,
    pub external_calls: usize,
}

/// Aggregate numbers carried into the lint report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphSummary {
    pub functions: usize,
    pub edges: usize,
    pub crates: usize,
    pub resolved_calls: usize,
    pub unresolved_calls: usize,
    pub external_calls: usize,
    pub deterministic_roots: usize,
    pub no_panic_roots: usize,
}

impl CallGraph {
    pub fn edge_count(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }

    pub fn crate_count(&self) -> usize {
        let mut names: Vec<&str> = self.nodes.iter().map(|n| n.crate_name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    pub fn summary(&self) -> GraphSummary {
        GraphSummary {
            functions: self.nodes.len(),
            edges: self.edge_count(),
            crates: self.crate_count(),
            resolved_calls: self.resolved_calls,
            unresolved_calls: self.unresolved_calls,
            external_calls: self.external_calls,
            deterministic_roots: 0,
            no_panic_roots: 0,
        }
    }
}

/// `robopt_core` ↔ `core`: the identifier a crate is referenced by in
/// source paths, derived from its directory name.
pub(crate) fn crate_ident(crate_name: &str) -> String {
    match crate_name {
        "robopt" => "robopt".to_string(),
        "robopt-repro" => "robopt_repro".to_string(),
        other => format!("robopt_{other}"),
    }
}

/// Is this file part of the analysis universe?
pub(crate) fn in_universe(f: &SourceFile) -> bool {
    f.class != CrateClass::Exempt && !f.is_binary
}

const EXTERNAL_CRATES: &[&str] = &["std", "core", "alloc"];

/// Keywords and prelude constructors that look like bare calls but are not.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "else", "unsafe",
    "let", "mut", "ref", "box", "await", "yield", "dyn", "impl", "where", "use", "pub", "crate",
    "super", "self", "Self", "true", "false", "const", "static", "type", "enum", "struct", "trait",
    "mod", "break", "continue", "Some", "None", "Ok", "Err",
];

/// One extracted call site before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CallSite {
    /// `.name(…)`
    Method { name: String },
    /// `a::b::name(…)` or a multi-segment fn reference `a::b::name`.
    Path { segments: Vec<String> },
    /// `name(…)`
    Bare { name: String },
}

/// Scan one line of body code for call sites.
fn extract_calls(code: &str, out: &mut Vec<(CallSite, usize)>, li: usize) {
    let chars: Vec<char> = code.chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0usize;
    while i < chars.len() {
        if !is_ident(chars[i]) || chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        // Identifier start must not be mid-token.
        if i > 0 && is_ident(chars[i - 1]) {
            i += 1;
            continue;
        }
        let method_dot = i > 0 && chars[i - 1] == '.';
        // Read the full `a::b::c` path (skipping one trailing turbofish).
        let mut segments: Vec<String> = Vec::new();
        let mut j = i;
        loop {
            let start = j;
            while j < chars.len() && is_ident(chars[j]) {
                j += 1;
            }
            segments.push(chars[start..j].iter().collect());
            // `::<…>` turbofish between segments or before the paren.
            if j + 1 < chars.len() && chars[j] == ':' && chars[j + 1] == ':' {
                let mut k = j + 2;
                if k < chars.len() && chars[k] == '<' {
                    let mut depth = 1i32;
                    k += 1;
                    while k < chars.len() && depth > 0 {
                        match chars[k] {
                            '<' => depth += 1,
                            '>' => depth -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    if k + 1 < chars.len() && chars[k] == ':' && chars[k + 1] == ':' {
                        j = k + 2;
                        continue;
                    }
                    j = k;
                    break;
                }
                if k < chars.len() && is_ident(chars[k]) && !chars[k].is_ascii_digit() {
                    j = k;
                    continue;
                }
            }
            break;
        }
        let next = chars.get(j).copied();
        let is_call = next == Some('(');
        let is_macro = next == Some('!');
        let first = segments.first().map(String::as_str).unwrap_or("");
        let last = segments.last().map(String::as_str).unwrap_or("");
        let single = segments.len() == 1;
        if last.is_empty() || is_macro {
            i = j.max(i + 1);
            continue;
        }
        if single && NON_CALLS.contains(&first) {
            i = j.max(i + 1);
            continue;
        }
        if is_call {
            if method_dot && single {
                out.push((
                    CallSite::Method {
                        name: last.to_string(),
                    },
                    li,
                ));
            } else if single {
                // `Name(` with an uppercase initial is a tuple-struct or
                // enum-variant constructor, not a fn call.
                if !first.chars().next().is_some_and(|c| c.is_uppercase()) {
                    out.push((
                        CallSite::Bare {
                            name: last.to_string(),
                        },
                        li,
                    ));
                }
            } else {
                out.push((
                    CallSite::Path {
                        segments: segments.clone(),
                    },
                    li,
                ));
            }
        } else if !single && !method_dot {
            // Multi-segment fn reference in argument position
            // (`sort_by(f64::total_cmp)`, `resize_with(k, Enumerator::default)`).
            let arg_pos = matches!(next, Some(')') | Some(','));
            if arg_pos {
                out.push((
                    CallSite::Path {
                        segments: segments.clone(),
                    },
                    li,
                ));
            }
        }
        i = j.max(i + 1);
    }
}

/// Symbol tables the resolver works against.
struct Tables {
    /// `(crate, fn name)` → node ids (free fns only).
    free_by_crate: BTreeMap<(String, String), Vec<u32>>,
    /// `(crate, fn name)` → node ids (any fn).
    any_by_crate: BTreeMap<(String, String), Vec<u32>>,
    /// method name → node ids (fns with a self type), workspace-wide.
    methods: BTreeMap<String, Vec<u32>>,
    /// `(self type, fn name)` → node ids, workspace-wide.
    typed: BTreeMap<(String, String), Vec<u32>>,
    /// crate path ident (`robopt_core`) → crate name (`core`).
    crate_by_ident: BTreeMap<String, String>,
}

fn build_tables(nodes: &[FnNode]) -> Tables {
    let mut t = Tables {
        free_by_crate: BTreeMap::new(),
        any_by_crate: BTreeMap::new(),
        methods: BTreeMap::new(),
        typed: BTreeMap::new(),
        crate_by_ident: BTreeMap::new(),
    };
    for (id, n) in nodes.iter().enumerate() {
        let id = id as u32;
        t.any_by_crate
            .entry((n.crate_name.clone(), n.name.clone()))
            .or_default()
            .push(id);
        match &n.self_ty {
            Some(ty) => {
                t.methods.entry(n.name.clone()).or_default().push(id);
                t.typed
                    .entry((ty.clone(), n.name.clone()))
                    .or_default()
                    .push(id);
            }
            None => t
                .free_by_crate
                .entry((n.crate_name.clone(), n.name.clone()))
                .or_default()
                .push(id),
        }
        t.crate_by_ident
            .entry(crate_ident(&n.crate_name))
            .or_insert_with(|| n.crate_name.clone());
    }
    t
}

/// Resolve one call site to node ids. Empty = unresolved; `None` =
/// external (`std`/`core`/`alloc`), which is neither.
fn resolve(
    site: &CallSite,
    tables: &Tables,
    caller: &FnNode,
    uses: &[crate::parser::UseBinding],
) -> Option<Vec<u32>> {
    match site {
        CallSite::Method { name } => Some(tables.methods.get(name).cloned().unwrap_or_default()),
        CallSite::Bare { name } => {
            let mut out = tables
                .free_by_crate
                .get(&(caller.crate_name.clone(), name.clone()))
                .cloned()
                .unwrap_or_default();
            // `use`-imported free fns (exact alias or glob prefix).
            for u in uses {
                if u.alias == *name {
                    // the binding's path already ends in the original name
                    if let Some(mut ids) = resolve_path(&u.path, tables, caller) {
                        out.append(&mut ids);
                    }
                } else if u.alias == "*" {
                    let mut path: Vec<String> =
                        u.path.iter().take(u.path.len() - 1).cloned().collect();
                    path.push(name.clone());
                    if let Some(mut ids) = resolve_path(&path, tables, caller) {
                        out.append(&mut ids);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            Some(out)
        }
        CallSite::Path { segments } => {
            // Expand a leading `use` alias.
            let first = segments.first().cloned().unwrap_or_default();
            for u in uses {
                if u.alias == first && u.alias != "*" {
                    let mut path = u.path.clone();
                    path.extend(segments.iter().skip(1).cloned());
                    return resolve_path(&path, tables, caller);
                }
            }
            resolve_path(segments, tables, caller)
        }
    }
}

/// Resolve a full path call `[s0, …, name]`.
fn resolve_path(segments: &[String], tables: &Tables, caller: &FnNode) -> Option<Vec<u32>> {
    let name = segments.last()?.clone();
    let first = segments.first()?.as_str();
    if EXTERNAL_CRATES.contains(&first) && segments.len() > 1 {
        return None; // std/core/alloc: external
    }
    // `Self::name` → the enclosing impl's type.
    if first == "Self" {
        let ty = caller.self_ty.clone()?;
        return Some(tables.typed.get(&(ty, name)).cloned().unwrap_or_default());
    }
    // `crate::…` / `self::…` → current crate.
    let (target_crate, rest): (String, &[String]) = if first == "crate" || first == "self" {
        (caller.crate_name.clone(), &segments[1..])
    } else if let Some(c) = tables.crate_by_ident.get(first) {
        (c.clone(), &segments[1..])
    } else {
        (caller.crate_name.clone(), segments)
    };
    if rest.is_empty() {
        return Some(Vec::new());
    }
    // `…::Type::name` — a type-qualified method beats module paths.
    if rest.len() >= 2 {
        let qualifier = rest[rest.len() - 2].clone();
        if qualifier.chars().next().is_some_and(|c| c.is_uppercase()) {
            let typed = tables
                .typed
                .get(&(qualifier, name.clone()))
                .cloned()
                .unwrap_or_default();
            if !typed.is_empty() {
                return Some(typed);
            }
            // Unknown type (std or generic): treat as external if the
            // path came with an explicit external-looking root.
            if EXTERNAL_CRATES.contains(&first) {
                return None;
            }
        }
    }
    // Module path inside `target_crate` → flat per-crate namespace.
    Some(
        tables
            .any_by_crate
            .get(&(target_crate, name))
            .cloned()
            .unwrap_or_default(),
    )
}

/// Build the call graph over the workspace's analysis universe.
pub fn build(ws: &Workspace) -> CallGraph {
    let mut nodes: Vec<FnNode> = Vec::new();
    for (file_idx, f) in ws.sources.iter().enumerate() {
        if !in_universe(f) {
            continue;
        }
        for (fn_idx, item) in f.items.fns.iter().enumerate() {
            nodes.push(node_of(f, file_idx, fn_idx, item));
        }
    }
    let tables = build_tables(&nodes);
    let mut calls: Vec<Vec<(u32, usize)>> = vec![Vec::new(); nodes.len()];
    let mut callers: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
    let mut resolved = 0usize;
    let mut unresolved = 0usize;
    let mut external = 0usize;

    let mut sites: Vec<(CallSite, usize)> = Vec::new();
    for id in 0..nodes.len() {
        let (file_idx, body, open_col) = {
            let n = &nodes[id];
            (n.file_idx, n.body, n.body_open_col)
        };
        let Some((bl, el)) = body else { continue };
        let Some(file) = ws.sources.get(file_idx) else {
            continue;
        };
        sites.clear();
        for li in bl..=el.min(file.lines.len().saturating_sub(1)) {
            let code = file.lines.get(li).map(|l| l.code.as_str()).unwrap_or("");
            // Skip the signature text before the body's opening brace.
            let code = if li == bl {
                code.get(open_col..).unwrap_or("")
            } else {
                code
            };
            extract_calls(code, &mut sites, li);
        }
        for (site, li) in &sites {
            match resolve(site, &tables, &nodes[id], &ws.sources[file_idx].items.uses) {
                None => external += 1,
                Some(targets) if targets.is_empty() => unresolved += 1,
                Some(targets) => {
                    resolved += 1;
                    for t in targets {
                        if !calls[id].iter().any(|&(c, _)| c == t) {
                            calls[id].push((t, *li));
                        }
                    }
                }
            }
        }
        calls[id].sort_unstable();
    }
    for (id, cs) in calls.iter().enumerate() {
        for &(t, _) in cs {
            callers[t as usize].push(id as u32);
        }
    }
    for c in &mut callers {
        c.sort_unstable();
        c.dedup();
    }
    CallGraph {
        nodes,
        calls,
        callers,
        resolved_calls: resolved,
        unresolved_calls: unresolved,
        external_calls: external,
    }
}

fn node_of(f: &SourceFile, file_idx: usize, fn_idx: usize, item: &FnItem) -> FnNode {
    let qual = match &item.self_ty {
        Some(ty) => format!("{ty}::{}", item.name),
        None => item.name.clone(),
    };
    FnNode {
        crate_name: f.crate_name.clone(),
        file: f.rel.clone(),
        file_idx,
        fn_idx,
        qual,
        name: item.name.clone(),
        self_ty: item.self_ty.clone(),
        sig_line: item.sig_line,
        body: item.body,
        body_open_col: item.body_open_col,
        in_test: item.in_test,
    }
}

/// Hand-rendered JSON of the full graph (nodes, edges, stats) — the CI
/// artifact uploaded next to the lint report.
pub fn to_json(graph: &CallGraph, summary: &GraphSummary) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"functions\": {}, \"edges\": {}, \"crates\": {},\n",
        summary.functions, summary.edges, summary.crates
    ));
    s.push_str(&format!(
        "  \"resolved_calls\": {}, \"unresolved_calls\": {}, \"external_calls\": {},\n",
        summary.resolved_calls, summary.unresolved_calls, summary.external_calls
    ));
    s.push_str(&format!(
        "  \"deterministic_roots\": {}, \"no_panic_roots\": {},\n",
        summary.deterministic_roots, summary.no_panic_roots
    ));
    s.push_str("  \"nodes\": [\n");
    for (i, n) in graph.nodes.iter().enumerate() {
        let comma = if i + 1 < graph.nodes.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"id\": {i}, \"crate\": \"{}\", \"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \"test\": {}}}{comma}\n",
            n.crate_name,
            n.qual,
            n.file,
            n.sig_line + 1,
            n.in_test
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"edges\": [");
    let mut first = true;
    for (from, cs) in graph.calls.iter().enumerate() {
        for &(to, _) in cs {
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("[{from}, {to}]"));
        }
    }
    s.push_str("]\n}\n");
    s
}

/// Build a one-file-per-crate fixture workspace in memory (shared by the
/// call-graph and taint unit tests).
#[cfg(test)]
pub(crate) fn fixture_ws(files: &[(&str, &str)]) -> Workspace {
    use crate::lexer::scan;
    use crate::workspace::{classify, compute_test_mask};
    let sources = files
        .iter()
        .map(|(crate_name, src)| {
            let lines = scan(src);
            let test_mask = compute_test_mask(&lines);
            let items = crate::parser::parse_file(&lines, &test_mask);
            let fn_sigs = crate::parser::enclosing_fn_sig(&items, lines.len());
            SourceFile {
                rel: format!("crates/{crate_name}/src/fixture.rs"),
                crate_name: crate_name.to_string(),
                class: classify(crate_name),
                is_binary: false,
                is_crate_root: false,
                lines,
                test_mask,
                items,
                fn_sigs,
            }
        })
        .collect();
    Workspace {
        sources,
        manifests: Vec::new(),
        docs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_names(g: &CallGraph, from: &str) -> Vec<String> {
        let Some(id) = g.nodes.iter().position(|n| n.qual == from) else {
            return Vec::new();
        };
        g.calls[id]
            .iter()
            .map(|&(t, _)| g.nodes[t as usize].qual.clone())
            .collect()
    }

    #[test]
    fn same_crate_bare_calls_resolve_to_free_fns_only() {
        let ws = fixture_ws(&[(
            "core",
            "pub fn a() { b(); }\nfn b() {}\nimpl T {\n    fn b(&self) {}\n}\n",
        )]);
        let g = build(&ws);
        assert_eq!(edge_names(&g, "a"), vec!["b"]);
    }

    #[test]
    fn cross_crate_calls_resolve_through_use_and_full_paths() {
        let ws = fixture_ws(&[
            (
                "robopt",
                "use robopt_core::split_plan;\npub fn verb() {\n    split_plan();\n    robopt_ml::fit_ridge();\n}\n",
            ),
            ("core", "pub fn split_plan() {}\n"),
            ("ml", "pub fn fit_ridge() {}\n"),
        ]);
        let g = build(&ws);
        assert_eq!(edge_names(&g, "verb"), vec!["split_plan", "fit_ridge"]);
        let verb = g.nodes.iter().position(|n| n.qual == "verb").unwrap();
        let crates: Vec<&str> = g.calls[verb]
            .iter()
            .map(|&(t, _)| g.nodes[t as usize].crate_name.as_str())
            .collect();
        assert_eq!(crates, vec!["core", "ml"]);
    }

    #[test]
    fn dyn_method_calls_over_approximate_to_every_impl() {
        let ws = fixture_ws(&[
            (
                "platforms",
                "pub trait Backend {\n    fn execute(&self);\n}\nimpl Backend for Simulator {\n    fn execute(&self) {}\n}\n",
            ),
            (
                "engine",
                "impl Backend for Engine {\n    fn execute(&self) {}\n}\n",
            ),
            (
                "robopt",
                "pub fn run(b: &dyn Backend) {\n    b.execute();\n}\n",
            ),
        ]);
        let g = build(&ws);
        let targets = edge_names(&g, "run");
        // Trait declaration + both impls: the &dyn seam stays sound.
        assert_eq!(targets.len(), 3, "{targets:?}");
        assert!(targets.iter().all(|t| t == "Backend::execute"
            || t == "Simulator::execute"
            || t == "Engine::execute"));
    }

    #[test]
    fn method_vs_free_fn_disambiguation() {
        // A method call must NOT resolve to a free fn of the same name,
        // and a bare call must NOT resolve to a method.
        let ws = fixture_ws(&[(
            "core",
            "fn merge() {}\nimpl Unit {\n    fn merge(&self) {}\n}\npub fn by_method(u: &Unit) { u.merge(); }\npub fn by_free() { merge(); }\n",
        )]);
        let g = build(&ws);
        assert_eq!(edge_names(&g, "by_method"), vec!["Unit::merge"]);
        assert_eq!(edge_names(&g, "by_free"), vec!["merge"]);
    }

    #[test]
    fn typed_path_calls_pick_the_right_impl() {
        let ws = fixture_ws(&[
            (
                "ml",
                "impl Forest {\n    pub fn fit() {}\n}\nimpl Linear {\n    pub fn fit() {}\n}\n",
            ),
            (
                "robopt",
                "pub fn train() {\n    robopt_ml::Forest::fit();\n}\n",
            ),
        ]);
        let g = build(&ws);
        assert_eq!(edge_names(&g, "train"), vec!["Forest::fit"]);
    }

    #[test]
    fn recursive_fns_terminate_and_self_calls_resolve() {
        let ws = fixture_ws(&[(
            "core",
            "impl Finder {\n    fn find(&self, x: u32) -> u32 {\n        if x == 0 { return 0; }\n        Self::helper(x);\n        self.find(x - 1)\n    }\n    fn helper(_x: u32) {}\n}\n",
        )]);
        let g = build(&ws);
        let targets = edge_names(&g, "Finder::find");
        assert!(targets.contains(&"Finder::helper".to_string()));
        assert!(targets.contains(&"Finder::find".to_string()), "cycle edge");
        // The reverse adjacency contains the self-loop exactly once.
        let id = g
            .nodes
            .iter()
            .position(|n| n.qual == "Finder::find")
            .unwrap();
        assert_eq!(g.callers[id].iter().filter(|&&c| c == id as u32).count(), 1);
    }

    #[test]
    fn std_calls_are_external_and_ctors_are_skipped() {
        let ws = fixture_ws(&[(
            "core",
            "pub fn f() -> u64 {\n    let v = Vec::new();\n    std::mem::take(&mut 3u64);\n    Some(v.len() as u64).unwrap_or(0)\n}\n",
        )]);
        let g = build(&ws);
        assert!(edge_names(&g, "f").is_empty());
        assert!(g.external_calls >= 1);
    }

    #[test]
    fn fn_references_in_argument_position_are_edges() {
        let ws = fixture_ws(&[(
            "engine",
            "impl Rec {\n    fn cmp_key(&self) {}\n}\npub fn sorter(v: &mut Vec<Rec>) {\n    v.sort_by(Rec::cmp_key);\n}\n",
        )]);
        let g = build(&ws);
        assert_eq!(edge_names(&g, "sorter"), vec!["Rec::cmp_key"]);
    }
}
