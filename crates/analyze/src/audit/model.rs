//! Per-function workspace model: the one Rust front end of the audit,
//! taint and lock-order passes. No `syn`: it reads
//! [`crate::source::clean`]ed lines and leans on the conventions rustfmt
//! enforces throughout this repo — indentation tracks block structure,
//! one statement per line (long statements continue with unbalanced
//! parens), `#[cfg(test)]` modules close each file. It records:
//!
//! * every function with its owner, typed parameters and body lines;
//! * trait declarations with their method names (for dispatch and the
//!   one-level trait fallback in [`super::graph`]);
//! * `impl Trait for Type` pairs (which type implements which trait);
//! * struct field types and typed fn parameters / `let` bindings, so
//!   receiver chains like `self.artifact.slave_weights` resolve;
//! * the `Mutex`/`RwLock` kind of lock fields and parameters, and which
//!   functions return a guard (for [`crate::conc::lockorder`]);
//! * statement units (lines grouped by paren/bracket balance), so a
//!   multi-line `return Err(format!(…))` is recognized as one cold
//!   error-construction statement;
//! * every `// ams-<tool>: allow(…)` suppression mark.
//!
//! Conservatism contract: when the scanner cannot classify something
//! it records *less* (an unresolved call, an unknown type), never
//! more — the call graph under-approximates edges for unknown
//! receivers but the token detectors in [`super::facts`] still see
//! every line of every function body, so intrinsic sites are never
//! lost, only their interprocedural reach.

use super::facts::{detect_sites, first_cold_marker, Site};
use crate::diagnostic::{Diagnostic, Location};
use crate::source::{self, ident, is_ident_char, Mark};
use std::collections::{BTreeMap, BTreeSet};

/// Kind of a lock object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// A typed fn parameter (`name: Type`), with the outermost useful
/// type identifier extracted (`&dyn Backend` → `Backend`,
/// `Option<Matrix>` → `Matrix`).
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: Option<String>,
    /// The parameter is itself a lock (`m: &Mutex<T>`).
    pub lock: Option<LockKind>,
}

/// One body line: 1-based source line and comment/string-stripped code.
#[derive(Debug, Clone)]
pub struct BodyLine {
    pub line_no: usize,
    pub code: String,
    /// `(line, byte-col)` of the enclosing statement's first
    /// error-construction marker, if any: alloc tokens and call
    /// sites positioned after it are cold.
    pub cold_from: Option<(usize, usize)>,
}

/// One function (free fn, inherent/trait-impl method, or trait
/// default method).
#[derive(Debug, Clone)]
pub struct FnModel {
    pub name: String,
    /// Enclosing `impl` type, or the trait name for a default method.
    pub impl_type: Option<String>,
    /// `impl Trait for Type`: the trait.
    pub trait_impl: Option<String>,
    /// Default method body declared inside `trait T { … }`.
    pub is_trait_default: bool,
    /// Diagnostic label of the file (repo-relative path).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    pub params: Vec<Param>,
    /// The return type is a lock guard: calling this fn acquires.
    pub guard_returning: bool,
    pub body: Vec<BodyLine>,
    /// Intrinsic fact sites detected in the body.
    pub sites: Vec<Site>,
    /// `let`-bound locals with an inferable type (`let x = T::new()`,
    /// `let x: T = …`).
    pub locals: BTreeMap<String, String>,
}

impl FnModel {
    /// `Type::name` for methods, bare `name` for free fns.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The parsed workspace: functions plus the indexes resolution needs.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub fns: Vec<FnModel>,
    /// Trait name → declared method names (including defaults).
    pub traits: BTreeMap<String, BTreeSet<String>>,
    /// `(trait, method)` → parameters besides the receiver.
    pub trait_arity: BTreeMap<(String, String), usize>,
    /// Trait name → implementing type names.
    pub trait_impls: BTreeMap<String, Vec<String>>,
    /// Struct name → field name → field type identifier.
    pub fields: BTreeMap<String, BTreeMap<String, String>>,
    /// Struct name → lock field name → lock kind.
    pub locks: BTreeMap<String, BTreeMap<String, LockKind>>,
    /// Every suppression mark seen, with its file label.
    pub marks: Vec<(String, Mark)>,
    /// Files parsed.
    pub files: usize,
}

impl WorkspaceModel {
    /// `<tool>-bad-suppression` errors for the `tool` marks that lack
    /// the justification audit and taint suppressions require.
    pub fn unjustified(&self, tool: &str) -> Vec<Diagnostic> {
        let bare = self.marks.iter().filter(|(_, m)| m.tool == tool && !m.justified);
        bare.map(|(file, m)| {
            Diagnostic::error(
                &format!("{tool}-bad-suppression"),
                Location::Source { file: file.clone(), line: m.line, col: m.col },
                format!("`ams-{tool}` allow({}) without a justification", m.rules.join(", ")),
            )
            .with_hint(format!(
                "append `: <reason>` — every {tool} suppression must explain itself"
            ))
        })
        .collect()
    }
}

/// The signature text from `fn` onward, if this line starts a fn item.
fn fn_decl(trimmed: &str) -> Option<&str> {
    let pos = trimmed.find("fn ")?;
    if pos > 0 {
        let before = &trimmed[..pos];
        let all_qualifier =
            before.chars().all(|c| c.is_ascii_alphabetic() || c == ' ' || c == '(' || c == ')');
        if is_ident_char(before.chars().next_back().unwrap_or(' ')) || !all_qualifier {
            return None; // not a leading `pub`/`pub(crate)`/`const`/`unsafe` chain
        }
    }
    Some(&trimmed[pos..])
}

/// `struct Name` with only visibility qualifiers before it.
fn struct_decl(trimmed: &str) -> Option<String> {
    let pos = trimmed.find("struct ")?;
    if !trimmed[..pos].chars().all(|c| c.is_ascii_alphabetic() || c == ' ' || c == '(' || c == ')')
    {
        return None;
    }
    let name = ident(&trimmed[pos + "struct ".len()..]).to_string();
    (!name.is_empty()).then_some(name)
}

/// `trait Name` with only visibility qualifiers before it.
fn trait_decl(trimmed: &str) -> Option<String> {
    let pos = trimmed.find("trait ")?;
    if !trimmed[..pos].chars().all(|c| c.is_ascii_alphabetic() || c == ' ') {
        return None;
    }
    let name = ident(&trimmed[pos + "trait ".len()..]).to_string();
    (!name.is_empty()).then_some(name)
}

/// `impl Type {` / `impl Trait for Type {` → `(type, trait)`. Path
/// qualifiers keep their last segment (`std::fmt::Display` →
/// `Display`).
fn impl_decl(trimmed: &str) -> Option<(String, Option<String>)> {
    let rest = trimmed.strip_prefix("impl")?;
    let rest = if rest.starts_with('<') {
        // Skip the generic parameter list `<…>` (depth-matched).
        let mut depth = 0usize;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &rest[cut..]
    } else {
        rest
    };
    let rest = rest.trim_start();
    let last_segment = |s: &str| {
        let head = s.split([' ', '<', '{']).next().unwrap_or("");
        ident(head.rsplit("::").next().unwrap_or("")).to_string()
    };
    match rest.find(" for ") {
        Some(pos) => {
            let tr = last_segment(&rest[..pos]);
            let ty = last_segment(&rest[pos + " for ".len()..]);
            (!ty.is_empty()).then_some((ty, (!tr.is_empty()).then_some(tr)))
        }
        None => {
            let ty = last_segment(rest);
            (!ty.is_empty()).then_some((ty, None))
        }
    }
}

/// The lock kind a type expression wraps, outermost first
/// (`Arc<Mutex<T>>` → `Mutex`).
pub fn lock_kind(ty: &str) -> Option<LockKind> {
    let kind_at = |needle: &str| ty.find(needle);
    match (kind_at("Mutex<"), kind_at("RwLock<")) {
        (Some(m), Some(r)) if r < m => Some(LockKind::RwLock),
        (Some(_), _) => Some(LockKind::Mutex),
        (None, Some(_)) => Some(LockKind::RwLock),
        (None, None) => None,
    }
}

/// Wrapper types whose first generic argument is the interesting type
/// for receiver resolution.
const TYPE_WRAPPERS: [&str; 8] =
    ["Option", "Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell"];

/// Extract the resolution-relevant type identifier from a type
/// expression: strip references/`mut`/`dyn`/`impl` and lifetimes,
/// unwrap smart-pointer wrappers one level at a time.
pub fn type_ident(ty: &str) -> Option<String> {
    let mut s = ty.trim();
    loop {
        s = s.trim_start();
        if let Some(r) = s.strip_prefix('&') {
            s = r;
            continue;
        }
        if let Some(r) = s.strip_prefix("'") {
            s = r.trim_start_matches(is_ident_char);
            continue;
        }
        for kw in ["mut ", "dyn ", "impl "] {
            if let Some(r) = s.strip_prefix(kw) {
                s = r;
            }
        }
        break;
    }
    let head = ident(s.rsplit("::").next().map_or(s, |last| {
        // `a::b::C<T>` — take the last path segment before generics.
        let prefix = s.split('<').next().unwrap_or(s);
        prefix.rsplit("::").next().unwrap_or(last)
    }))
    .to_string();
    if head.is_empty() {
        return None;
    }
    if TYPE_WRAPPERS.contains(&head.as_str()) {
        if let Some(open) = s.find('<') {
            let inner = &s[open + 1..];
            let cut = inner.find([',', '>']).unwrap_or(inner.len());
            return type_ident(&inner[..cut]);
        }
    }
    Some(head)
}

/// Split a signature's parameter list on top-level commas.
fn signature_params(sig: &str) -> Vec<String> {
    let open = match sig.find('(') {
        Some(p) => p,
        None => return Vec::new(),
    };
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i32;
    for c in sig[open + 1..].chars() {
        match c {
            '(' | '<' | '[' => depth += 1,
            ')' | '>' | ']' => {
                if c == ')' && depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Type parameter → its first trait bound, from the `<…>` list that
/// `rest` (the signature after the fn name) starts with:
/// `<'a, O: ForwardOps + Send, T>` → `{O: ForwardOps}`.
fn generic_bounds(rest: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    if !rest.starts_with('<') {
        return out;
    }
    let mut depth = 0usize;
    let end = rest.char_indices().find_map(|(i, c)| {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ => {}
        }
        (depth == 0).then_some(i)
    });
    for (_, param) in source::split_args(&rest[1..end.unwrap_or(rest.len())]) {
        if let Some((ty, bound)) = param.split_once(':') {
            let first = bound.split('+').next().unwrap_or("");
            if let Some(tr) = type_ident(first).filter(|_| !ty.trim().starts_with('\'')) {
                out.insert(ty.trim().to_string(), tr);
            }
        }
    }
    out
}

/// Build a [`FnModel`] from an accumulated signature (`fn …` through
/// the opening `{` or trailing `;`).
fn finish_signature(
    sig: &str,
    impl_type: Option<String>,
    trait_impl: Option<String>,
    is_trait_default: bool,
    file: &str,
    decl_line: usize,
) -> FnModel {
    let after_fn = sig.trim_start_matches("fn").trim_start();
    let name = ident(after_fn).to_string();
    let bounds = generic_bounds(&after_fn[name.len()..]);
    let params = signature_params(sig)
        .into_iter()
        .filter_map(|p| {
            let colon = p.find(':')?;
            let pname = p[..colon].trim().trim_start_matches("mut ").trim();
            let ty = &p[colon + 1..];
            // A parameter of generic type `O: Trait` resolves as `Trait`.
            let ty_id = type_ident(ty).map(|t| bounds.get(&t).cloned().unwrap_or(t));
            pname.chars().all(is_ident_char).then(|| Param {
                name: pname.to_string(),
                ty: ty_id,
                lock: lock_kind(ty),
            })
        })
        .collect();
    let guard_returning = sig.rfind("->").is_some_and(|pos| sig[pos..].contains("Guard"));
    FnModel {
        name,
        impl_type,
        trait_impl,
        is_trait_default,
        file: file.to_string(),
        decl_line,
        params,
        guard_returning,
        body: Vec::new(),
        sites: Vec::new(),
        locals: BTreeMap::new(),
    }
}

/// The name a `let [mut] name =` / `let name:` statement binds, and
/// the text from its `=` or `:` on.
pub fn let_bound(code: &str) -> Option<(&str, &str)> {
    let rest = code.trim_start().strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name = ident(rest);
    let after = rest[name.len()..].trim_start();
    (!name.is_empty() && after.starts_with(['=', ':'])).then_some((name, after))
}

/// Infer a `let` binding's type: `let x: T = …` or `let x = T::ctor(…)`
/// or `let x = T { … }`.
fn let_binding(code: &str) -> Option<(String, String)> {
    let (name, after) = let_bound(code)?;
    let name = name.to_string();
    if let Some(annot) = after.strip_prefix(':') {
        let ty_text = annot.split('=').next().unwrap_or(annot);
        return type_ident(ty_text).map(|t| (name, t));
    }
    let rhs = after.strip_prefix('=')?.trim_start();
    let head = ident(rhs).to_string();
    if head.is_empty() || !head.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    let tail = &rhs[head.len()..];
    (tail.starts_with("::") || tail.trim_start().starts_with('{')).then_some((name, head))
}

/// `name: Type,` struct field (optionally `pub`): the name and the
/// type text.
fn field_decl(trimmed: &str) -> Option<(String, &str)> {
    let body = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
    let colon = body.find(':')?;
    let name = body[..colon].trim();
    if name.is_empty() || !name.chars().all(is_ident_char) {
        return None;
    }
    Some((name.to_string(), body[colon + 1..].trim_end_matches(['{', ','].as_ref())))
}

/// Group body lines into statement units by paren/bracket balance and
/// mark cold (error-construction) units, then run the site detectors.
/// `allows` maps a line to the facts a justified `ams-audit` mark there
/// names.
fn finalize_fn(f: &mut FnModel, allows: &BTreeMap<usize, Vec<String>>) {
    // Unit assembly: a unit starts at depth 0 and extends while
    // `(`/`[` depth stays positive (braces open blocks, not
    // statements, and are ignored).
    let mut units: Vec<(usize, usize)> = Vec::new(); // [start, end] body indices
    let mut depth = 0i64;
    let mut start = 0usize;
    for (i, bl) in f.body.iter().enumerate() {
        if depth == 0 {
            start = i;
        }
        for b in bl.code.bytes() {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                _ => {}
            }
        }
        if depth <= 0 {
            depth = 0;
            units.push((start, i));
        }
    }
    if depth > 0 {
        units.push((start, f.body.len().saturating_sub(1)));
    }
    for &(lo, hi) in &units {
        let marker = f.body[lo..=hi]
            .iter()
            .filter_map(|b| first_cold_marker(&b.code).map(|pos| (b.line_no, pos)))
            .min();
        if marker.is_some() {
            for bl in &mut f.body[lo..=hi] {
                bl.cold_from = marker;
            }
        }
    }
    for bl in &f.body {
        if let Some((name, ty)) = let_binding(&bl.code) {
            f.locals.entry(name).or_insert(ty);
        }
        let mut sites = detect_sites(&bl.code, bl.line_no, bl.cold_from);
        for s in &mut sites {
            let covered = [s.line, s.line.saturating_sub(1)].iter().any(|ln| {
                allows.get(ln).is_some_and(|facts| facts.iter().any(|n| n == s.fact.as_str()))
            });
            s.suppressed = covered;
        }
        f.sites.extend(sites);
    }
}

/// Parse one file into the workspace model. Stops at `#[cfg(test)` —
/// test modules close each file in this repo.
pub fn parse_file(label: &str, content: &str, model: &mut WorkspaceModel) {
    model.files += 1;
    // A mark covers its own line and the next, so every mark a body
    // line can use is recorded before its fn is finalized.
    let mut allow_lines: BTreeMap<usize, Vec<String>> = BTreeMap::new();

    let mut struct_ctx: Option<(String, usize)> = None;
    let mut impl_ctx: Option<((String, Option<String>), usize)> = None;
    let mut trait_ctx: Option<(String, usize)> = None;
    let mut fn_ctx: Option<(FnModel, usize)> = None;
    let mut sig: Option<(String, usize, usize)> = None; // text, indent, decl line

    for line in source::clean(content) {
        let line_no = line.no;
        let code = line.code.as_str();
        if code.trim_start().starts_with("#[cfg(test)") {
            break;
        }
        if let Some(mark) = line.mark() {
            if mark.tool == "audit" && mark.justified {
                allow_lines.insert(line_no, mark.rules.clone());
            }
            model.marks.push((label.to_string(), mark));
        }
        let trimmed = code.trim_start();
        if trimmed.is_empty() || trimmed.starts_with("#[") {
            continue;
        }
        let indent = code.len() - trimmed.len();
        let trimmed = trimmed.trim_end();

        // Accumulating a multi-line signature.
        if let Some((text, fn_indent, decl_line)) = &mut sig {
            text.push(' ');
            text.push_str(trimmed);
            if trimmed.contains('{') {
                let (it, ti, td) = owner_of(&impl_ctx, &trait_ctx);
                let f = finish_signature(text, it, ti, td, label, *decl_line);
                register_trait_method(model, &trait_ctx, &f.name, text);
                fn_ctx = Some((f, *fn_indent));
                sig = None;
            } else if trimmed.ends_with(';') {
                // Trait method declaration without a body.
                let name = ident(text.trim_start_matches("fn").trim_start()).to_string();
                register_trait_method(model, &trait_ctx, &name, text);
                sig = None;
            }
            continue;
        }

        // Inside a fn body.
        if let Some((f, fn_indent)) = &mut fn_ctx {
            if trimmed == "}" && indent == *fn_indent {
                let (mut f, _) = fn_ctx.take().expect("fn context");
                finalize_fn(&mut f, &allow_lines);
                model.fns.push(f);
            } else {
                f.body.push(BodyLine { line_no, code: code.to_string(), cold_from: None });
            }
            continue;
        }

        // Closing braces of item contexts.
        if let Some((_, s_indent)) = &struct_ctx {
            if trimmed == "}" && indent == *s_indent {
                struct_ctx = None;
                continue;
            }
        }
        if let Some((_, i_indent)) = &impl_ctx {
            if trimmed == "}" && indent == *i_indent {
                impl_ctx = None;
                continue;
            }
        }
        if let Some((_, t_indent)) = &trait_ctx {
            if trimmed == "}" && indent == *t_indent {
                trait_ctx = None;
                continue;
            }
        }

        if let Some(rest) = fn_decl(trimmed) {
            if rest.contains('{') {
                let (it, ti, td) = owner_of(&impl_ctx, &trait_ctx);
                let mut f = finish_signature(rest, it, ti, td, label, line_no);
                register_trait_method(model, &trait_ctx, &f.name, rest);
                // Single-line body (`fn f() -> T { expr }`): braces
                // balance on the decl line, so the fn is complete.
                let net: i64 = rest
                    .bytes()
                    .map(|b| match b {
                        b'{' => 1,
                        b'}' => -1,
                        _ => 0,
                    })
                    .sum();
                if net == 0 {
                    if let Some(open) = rest.find('{') {
                        let body = rest[open + 1..].trim_end_matches('}');
                        f.body.push(BodyLine { line_no, code: body.to_string(), cold_from: None });
                    }
                    finalize_fn(&mut f, &allow_lines);
                    model.fns.push(f);
                } else {
                    fn_ctx = Some((f, indent));
                }
            } else if rest.ends_with(';') {
                let name = ident(rest.trim_start_matches("fn").trim_start()).to_string();
                register_trait_method(model, &trait_ctx, &name, rest);
            } else {
                sig = Some((rest.to_string(), indent, line_no));
            }
            continue;
        }

        if let Some(name) = struct_decl(trimmed) {
            if trimmed.ends_with('{') {
                struct_ctx = Some((name, indent));
            }
            continue;
        }
        if let Some(name) = trait_decl(trimmed) {
            model.traits.entry(name.clone()).or_default();
            if trimmed.ends_with('{') {
                trait_ctx = Some((name, indent));
            }
            continue;
        }
        if let Some((ty, tr)) = impl_decl(trimmed) {
            if let Some(tr) = &tr {
                model.trait_impls.entry(tr.clone()).or_default().push(ty.clone());
            }
            impl_ctx = Some(((ty, tr), indent));
            continue;
        }

        if let Some((s_name, _)) = &struct_ctx {
            if let Some((field, ty)) = field_decl(trimmed) {
                if let Some(kind) = lock_kind(ty) {
                    model.locks.entry(s_name.clone()).or_default().insert(field.clone(), kind);
                }
                if let Some(ty) = type_ident(ty) {
                    model.fields.entry(s_name.clone()).or_default().insert(field, ty);
                }
            }
        }
    }
    if let Some((mut f, _)) = fn_ctx {
        finalize_fn(&mut f, &allow_lines);
        model.fns.push(f);
    }
}

/// The `(impl_type, trait_impl, is_trait_default)` triple for a fn
/// declared under the current impl/trait context.
fn owner_of(
    impl_ctx: &Option<((String, Option<String>), usize)>,
    trait_ctx: &Option<(String, usize)>,
) -> (Option<String>, Option<String>, bool) {
    if let Some(((ty, tr), _)) = impl_ctx {
        return (Some(ty.clone()), tr.clone(), false);
    }
    if let Some((tr, _)) = trait_ctx {
        return (Some(tr.clone()), None, true);
    }
    (None, None, false)
}

fn register_trait_method(
    model: &mut WorkspaceModel,
    trait_ctx: &Option<(String, usize)>,
    name: &str,
    sig: &str,
) {
    if let Some((tr, _)) = trait_ctx {
        if !name.is_empty() {
            model.traits.entry(tr.clone()).or_default().insert(name.to_string());
            // The receiver is the one parameter without a `:`.
            let arity = signature_params(sig).iter().filter(|p| p.contains(':')).count();
            model.trait_arity.insert((tr.clone(), name.to_string()), arity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::facts::{Fact, Tier};

    fn parse(src: &str) -> WorkspaceModel {
        let mut m = WorkspaceModel::default();
        parse_file("test.rs", src, &mut m);
        m
    }

    #[test]
    fn traits_impls_and_fields_are_indexed() {
        let src = "pub trait Backend: Send {\n\
                   \x20   fn name(&self) -> String;\n\
                   \x20   fn matmul(&self, a: &[f64]) {\n\
                   \x20       helper(a);\n\
                   \x20   }\n\
                   }\n\
                   pub struct Seq;\n\
                   impl Backend for Seq {\n\
                   \x20   fn name(&self) -> String {\n\
                   \x20       heat()\n\
                   \x20   }\n\
                   }\n\
                   pub struct Engine {\n\
                   \x20   pub artifact: ModelArtifact,\n\
                   }\n";
        let m = parse(src);
        assert!(m.traits["Backend"].contains("name") && m.traits["Backend"].contains("matmul"));
        assert_eq!(m.trait_impls["Backend"], vec!["Seq".to_string()]);
        assert_eq!(m.fields["Engine"]["artifact"], "ModelArtifact");
        let default = m.fns.iter().find(|f| f.name == "matmul").unwrap();
        assert!(default.is_trait_default);
        assert_eq!(default.impl_type.as_deref(), Some("Backend"));
        let ovr = m.fns.iter().find(|f| f.name == "name").unwrap();
        assert_eq!(ovr.impl_type.as_deref(), Some("Seq"));
        assert_eq!(ovr.trait_impl.as_deref(), Some("Backend"));
    }

    #[test]
    fn type_idents_unwrap_references_and_wrappers() {
        assert_eq!(type_ident("&dyn Backend").as_deref(), Some("Backend"));
        assert_eq!(type_ident("&mut Workspace").as_deref(), Some("Workspace"));
        assert_eq!(type_ident("Option<Matrix>").as_deref(), Some("Matrix"));
        assert_eq!(type_ident("Arc<Mutex<Registry>>").as_deref(), Some("Registry"));
        assert_eq!(type_ident("&'a [f64]").as_deref(), None);
        assert_eq!(type_ident("crate::skeleton::SegmentEntry").as_deref(), Some("SegmentEntry"));
        assert_eq!(type_ident("Vec<Vec<f64>>").as_deref(), Some("Vec"));
    }

    #[test]
    fn multi_line_err_statement_is_one_cold_unit() {
        let src = "fn f(x: usize) -> Result<(), String> {\n\
                   \x20   if x > 3 {\n\
                   \x20       return Err(format!(\n\
                   \x20           \"too big: {}\",\n\
                   \x20           x.to_string()\n\
                   \x20       ));\n\
                   \x20   }\n\
                   \x20   let hot = format!(\"{x}\");\n\
                   \x20   Ok(())\n\
                   }\n";
        let m = parse(src);
        let f = &m.fns[0];
        let allocs: Vec<(&Tier, usize)> =
            f.sites.iter().filter(|s| s.fact == Fact::Alloc).map(|s| (&s.tier, s.line)).collect();
        // format! + to_string inside the Err statement are cold; the
        // later format! is hot.
        assert!(allocs.contains(&(&Tier::Guarded, 3)), "{allocs:?}");
        assert!(allocs.contains(&(&Tier::Guarded, 5)), "{allocs:?}");
        assert!(allocs.contains(&(&Tier::May, 8)), "{allocs:?}");
    }

    #[test]
    fn justified_allows_suppress_adjacent_sites_only() {
        let src = "fn f(ws: &mut Pool) {\n\
                   \x20   // ams-audit: allow(alloc): arena warm-up, steady state counter-tested\n\
                   \x20   let v = vec![0.0; 8];\n\
                   \x20   let w = vec![0.0; 8];\n\
                   \x20   // ams-audit: allow(alloc)\n\
                   \x20   let u = vec![0.0; 8];\n\
                   }\n";
        let m = parse(src);
        let f = &m.fns[0];
        let by_line: BTreeMap<usize, bool> = f
            .sites
            .iter()
            .filter(|s| s.fact == Fact::Alloc)
            .map(|s| (s.line, s.suppressed))
            .collect();
        assert!(by_line[&3], "{by_line:?}");
        assert!(!by_line[&4]);
        // The bare allow carries no justification: it must NOT suppress.
        assert!(!by_line[&6]);
        assert_eq!(m.marks.len(), 2);
        assert!(m.marks.iter().any(|(_, mk)| !mk.justified));
    }

    #[test]
    fn single_line_fn_bodies_are_captured() {
        let src = "fn tiny(x: usize) -> usize { x + 1 }\n\
                   fn after() {\n\
                   \x20   tiny(2);\n\
                   }\n";
        let m = parse(src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "tiny");
        assert_eq!(m.fns[1].name, "after");
        assert_eq!(m.fns[1].body.len(), 1);
    }

    #[test]
    fn let_bindings_and_params_type_locals() {
        let src = "fn f(backend: &dyn Backend, ws: &mut Workspace) {\n\
                   \x20   let snap: Snapshot = load();\n\
                   \x20   let m = Matrix::zeros(2, 2);\n\
                   \x20   let unknown = helper();\n\
                   }\n";
        let m = parse(src);
        let f = &m.fns[0];
        assert_eq!(f.params[0].ty.as_deref(), Some("Backend"));
        assert_eq!(f.params[1].ty.as_deref(), Some("Workspace"));
        assert_eq!(f.locals.get("snap").map(String::as_str), Some("Snapshot"));
        assert_eq!(f.locals.get("m").map(String::as_str), Some("Matrix"));
        assert!(!f.locals.contains_key("unknown"));
    }
}
