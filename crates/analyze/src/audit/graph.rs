//! Workspace call graph: extraction, name resolution, SCC
//! condensation and bottom-up fact propagation.
//!
//! Resolution is deliberately *partial* — without full type inference
//! a dependency-free scanner cannot resolve every call. The policy,
//! in order, per call site:
//!
//! 1. **Qualified** `Type::method(` → the inherent/trait-impl method
//!    if the workspace defines one; if `Type` is a trait name, a
//!    dispatch edge to every implementor. `mod::func(` (lowercase
//!    qualifier) → free functions in the file whose stem matches the
//!    module. `Self::` resolves through the enclosing impl.
//! 2. **Typed receiver** `recv.method(` where `recv` is `self`, a
//!    typed parameter, a `let`-bound local of known type, or a
//!    `self.field.…` chain walked through struct field types (smart
//!    pointers `Option`/`Arc`/`Box`/`Mutex`/… are stripped). A
//!    parameter of generic type `O: Trait` has type `Trait`. A
//!    receiver of trait type produces a dispatch edge.
//! 3. **Unknown receiver fallback** — if exactly one workspace trait
//!    declares the method name with as many parameters as the call
//!    passes arguments, dispatch through that trait; else if exactly
//!    one workspace function bears the name, a static edge.
//!    Expression receivers (`a.b().c(`) only get the trait-unique
//!    half of this fallback.
//! 4. Anything else is *unresolved* and contributes no edge. This is
//!    an under-approximation of the call graph — but never of the
//!    facts, because [`super::facts`] token detectors already see
//!    every line of every body (std methods like `.push(`/`.lock()`
//!    are fact tokens, not calls that need resolving).
//!
//! Dispatch edges respect the per-root `bind = ["Trait = Type"]`
//! devirtualization from `audit.toml`: when a trait is bound, only
//! the bound implementor (or the trait's default body) is reachable.
//!
//! Propagation runs over the SCC condensation (iterative Tarjan,
//! components emitted callees-first), joining each component's
//! intrinsic site tiers with its successors' levels. Call sites
//! inside an error-construction statement are *cold*: the alloc
//! lattice is capped at `Guarded` across them, mirroring the cold
//! treatment of intrinsic alloc tokens.

use super::facts::{Fact, Tier};
use super::model::{FnModel, WorkspaceModel};
use crate::source::{self, is_ident_byte};
use std::collections::BTreeMap;

/// Per-function level for each fact, indexed by [`fact_index`].
pub type Levels = [Tier; 3];

/// Index of a fact in [`Levels`] (reporting order of [`Fact::ALL`]).
pub fn fact_index(f: Fact) -> usize {
    match f {
        Fact::Panic => 0,
        Fact::Alloc => 1,
        Fact::Block => 2,
    }
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: usize,
    /// 1-based line of the call in the caller's file.
    pub line: usize,
    /// The call occurs inside an error-construction statement; alloc
    /// does not propagate hot across it.
    pub cold: bool,
}

/// The resolved workspace call graph over `model.fns` indices.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub edges: Vec<Vec<CallSite>>,
}

impl CallGraph {
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

const KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "in", "let", "fn", "move", "else", "as",
    "mut", "ref",
];

/// Pre-built name indexes over the function list.
struct Indexes<'m> {
    model: &'m WorkspaceModel,
    /// (impl type or trait, method name) → fn indices. A Vec because
    /// one type can implement the same generic trait at several
    /// parameters (`impl Backend<f64> for SimdSeq` and
    /// `impl Backend<f32> for SimdSeq` both define `matmul`); the
    /// scanner strips generics, so both land under the same key and a
    /// sound resolver must keep every candidate, not the first one.
    by_impl: BTreeMap<(String, String), Vec<usize>>,
    /// Free-fn name → indices.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Any fn name → indices.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Method name → traits declaring it.
    traits_declaring: BTreeMap<String, Vec<String>>,
    /// fn index → file stem (`crates/store/src/reader.rs` → `reader`).
    stems: Vec<String>,
}

impl<'m> Indexes<'m> {
    fn build(model: &'m WorkspaceModel) -> Self {
        let mut by_impl: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut stems = Vec::with_capacity(model.fns.len());
        for (i, f) in model.fns.iter().enumerate() {
            if let Some(ty) = &f.impl_type {
                by_impl.entry((ty.clone(), f.name.clone())).or_default().push(i);
            } else {
                free_by_name.entry(f.name.clone()).or_default().push(i);
            }
            by_name.entry(f.name.clone()).or_default().push(i);
            let stem =
                f.file.rsplit('/').next().unwrap_or(&f.file).trim_end_matches(".rs").to_string();
            stems.push(stem);
        }
        let mut traits_declaring: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (tr, methods) in &model.traits {
            for m in methods {
                traits_declaring.entry(m.clone()).or_default().push(tr.clone());
            }
        }
        Indexes { model, by_impl, free_by_name, by_name, traits_declaring, stems }
    }

    /// Dispatch through trait `tr`: every implementor's override, the
    /// trait default body for implementors without one. `bind`
    /// devirtualizes to a single implementor.
    fn dispatch(&self, tr: &str, name: &str, bind: &BTreeMap<String, String>) -> Vec<usize> {
        let default = self.by_impl.get(&(tr.to_string(), name.to_string()));
        let defaults = default.map(Vec::as_slice).unwrap_or(&[]);
        if let Some(ty) = bind.get(tr) {
            let mut out = match self.by_impl.get(&(ty.clone(), name.to_string())) {
                Some(v) => v.clone(),
                None => defaults.to_vec(),
            };
            out.sort_unstable();
            out.dedup();
            return out;
        }
        let mut out = Vec::new();
        let impls = self.model.trait_impls.get(tr).map(Vec::as_slice).unwrap_or(&[]);
        for ty in impls {
            match self.by_impl.get(&(ty.clone(), name.to_string())) {
                Some(v) => out.extend_from_slice(v),
                None => out.extend_from_slice(defaults),
            }
        }
        if impls.is_empty() {
            out.extend_from_slice(defaults);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resolve a call on a *named* receiver type.
    fn on_type(&self, ty: &str, name: &str, bind: &BTreeMap<String, String>) -> Vec<usize> {
        if self.model.traits.contains_key(ty) {
            return self.dispatch(ty, name, bind);
        }
        if let Some(v) = self.by_impl.get(&(ty.to_string(), name.to_string())) {
            return v.clone();
        }
        // One-level trait fallback: `ty` implements a trait that
        // declares `name` → the trait's default body.
        for (tr, impls) in &self.model.trait_impls {
            if impls.iter().any(|t| t == ty) {
                if let Some(methods) = self.model.traits.get(tr) {
                    if methods.contains(name) {
                        if let Some(v) = self.by_impl.get(&(tr.clone(), name.to_string())) {
                            return v.clone();
                        }
                    }
                }
            }
        }
        Vec::new() // known type, unknown method: a std method — skip.
    }

    /// Unknown-receiver fallback (policy step 3). Only traits whose
    /// method takes `args` arguments (when the call's are countable)
    /// are candidates: `ptr.add(n)` is not a two-argument trait `add`.
    fn fallback(
        &self,
        name: &str,
        args: Option<usize>,
        bind: &BTreeMap<String, String>,
        trait_only: bool,
    ) -> Vec<usize> {
        let declared = self.traits_declaring.get(name).map(Vec::as_slice).unwrap_or(&[]);
        let arity = |tr: &String| self.model.trait_arity.get(&(tr.clone(), name.to_string()));
        let trs: Vec<&String> = declared
            .iter()
            .filter(|tr| args.is_none() || arity(tr).is_none_or(|a| Some(*a) == args))
            .collect();
        match trs.as_slice() {
            [tr] => return self.dispatch(tr, name, bind),
            [] => {}
            _ => return Vec::new(), // ambiguous across traits
        }
        if trait_only {
            return Vec::new();
        }
        match self.by_name.get(name) {
            Some(v) if v.len() == 1 => vec![v[0]],
            _ => Vec::new(),
        }
    }
}

/// Walk the dotted receiver chain ending at `dot_pos` (which must be
/// a `.`). `None` means an expression receiver (`foo().bar(`, `xs[i].`).
pub(crate) fn receiver_chain(code: &str, dot_pos: usize) -> Option<Vec<String>> {
    let bytes = code.as_bytes();
    let mut segs = Vec::new();
    let mut dot = dot_pos;
    loop {
        let end = dot;
        let mut j = dot;
        while j > 0 && is_ident_byte(bytes[j - 1]) {
            j -= 1;
        }
        if j == end {
            return None;
        }
        let seg = &code[j..end];
        if seg.starts_with(|c: char| c.is_ascii_digit()) {
            return None; // float literal tail: `1.0.max(`
        }
        segs.push(seg.to_string());
        if j > 0 && bytes[j - 1] == b'.' {
            dot = j - 1;
            continue;
        }
        break;
    }
    segs.reverse();
    Some(segs)
}

/// Resolve a receiver chain to a type name via params, locals,
/// `self`, and struct field maps.
pub(crate) fn chain_type(fun: &FnModel, model: &WorkspaceModel, segs: &[String]) -> Option<String> {
    let first = segs.first()?;
    let mut ty = if first == "self" {
        fun.impl_type.clone()?
    } else if let Some(p) = fun.params.iter().find(|p| &p.name == first) {
        p.ty.clone()?
    } else {
        fun.locals.get(first)?.clone()
    };
    for seg in &segs[1..] {
        ty = model.fields.get(&ty)?.get(seg)?.clone();
    }
    Some(ty)
}

/// Extract and resolve every call on one body line of `fun`. Emits
/// `(byte position of the callee name, callee index)` pairs.
fn calls_on_line(
    fun: &FnModel,
    code: &str,
    idx: &Indexes,
    bind: &BTreeMap<String, String>,
    out: &mut Vec<(usize, usize)>,
) {
    let bytes = code.as_bytes();
    for pos in 0..bytes.len() {
        if bytes[pos] != b'(' {
            continue;
        }
        let mut j = pos;
        while j > 0 && is_ident_byte(bytes[j - 1]) {
            j -= 1;
        }
        if j == pos {
            continue; // grouping or expression call
        }
        let name = &code[j..pos];
        if name.starts_with(|c: char| c.is_ascii_digit()) || KEYWORDS.contains(&name) {
            continue;
        }
        let before = if j > 0 { bytes[j - 1] } else { 0 };
        if before == b'!' {
            continue; // macro — fact tokens already cover these
        }
        if before == b'.' {
            let args =
                source::balanced(code, pos).map(|(s, e)| source::split_args(&code[s..e]).len());
            let resolved = match receiver_chain(code, j - 1) {
                Some(segs) => match chain_type(fun, idx.model, &segs) {
                    Some(ty) => idx.on_type(&ty, name, bind),
                    None => idx.fallback(name, args, bind, false),
                },
                None => idx.fallback(name, args, bind, true),
            };
            out.extend(resolved.into_iter().map(|c| (j, c)));
            continue;
        }
        if before == b':' && j >= 2 && bytes[j - 2] == b':' {
            // Qualified call: walk the qualifier segment.
            let mut q = j - 2;
            while q > 0 && is_ident_byte(bytes[q - 1]) {
                q -= 1;
            }
            let qual = &code[q..j - 2];
            if qual.is_empty() {
                continue; // turbofish `::<T>(` — skip
            }
            let qual = if qual == "Self" {
                match &fun.impl_type {
                    Some(t) => t.clone(),
                    None => continue,
                }
            } else {
                qual.to_string()
            };
            if qual.starts_with(|c: char| c.is_ascii_uppercase()) {
                out.extend(idx.on_type(&qual, name, bind).into_iter().map(|c| (j, c)));
            } else {
                // Module path: free fns in the file with that stem,
                // else (`crate::`/`self::`/`super::`) same policy as
                // an unqualified call.
                let candidates = idx.free_by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
                let in_mod: Vec<usize> =
                    candidates.iter().copied().filter(|&i| idx.stems[i] == qual).collect();
                if !in_mod.is_empty() {
                    out.extend(in_mod.into_iter().map(|c| (j, c)));
                } else if matches!(qual.as_str(), "crate" | "self" | "super")
                    && candidates.len() == 1
                {
                    out.push((j, candidates[0]));
                }
            }
            continue;
        }
        // Plain `name(`.
        if name.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue; // tuple-struct constructor
        }
        let candidates = idx.free_by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
        let same_file: Vec<usize> =
            candidates.iter().copied().filter(|&i| idx.model.fns[i].file == fun.file).collect();
        if !same_file.is_empty() {
            out.extend(same_file.into_iter().map(|c| (j, c)));
        } else if candidates.len() == 1 {
            out.push((j, candidates[0]));
        }
    }
}

/// Build the call graph for the whole model under one bind
/// environment.
pub fn build(model: &WorkspaceModel, bind: &BTreeMap<String, String>) -> CallGraph {
    let idx = Indexes::build(model);
    let mut edges = Vec::with_capacity(model.fns.len());
    for fun in &model.fns {
        let mut fn_edges: Vec<CallSite> = Vec::new();
        for bl in &fun.body {
            let mut callees: Vec<(usize, usize)> = Vec::new();
            calls_on_line(fun, &bl.code, &idx, bind, &mut callees);
            // Keep one edge per callee per line, at its first position.
            callees.sort_unstable_by_key(|&(pos, callee)| (callee, pos));
            callees.dedup_by_key(|&mut (_, callee)| callee);
            for (pos, callee) in callees {
                let cold = bl.cold_from.is_some_and(|cf| (bl.line_no, pos) > cf);
                fn_edges.push(CallSite { callee, line: bl.line_no, cold });
            }
        }
        edges.push(fn_edges);
    }
    CallGraph { edges }
}

/// Tarjan SCC condensation (iterative). Returns `(comp_of, comps)`
/// with components emitted callees-first (reverse topological order
/// of the condensation).
pub fn condense(n: usize, adj: &[Vec<usize>]) -> (Vec<usize>, Vec<Vec<usize>>) {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![UNSEEN; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;
    for s in 0..n {
        if index[s] != UNSEEN {
            continue;
        }
        index[s] = counter;
        low[s] = counter;
        counter += 1;
        stack.push(s);
        on_stack[s] = true;
        let mut frames: Vec<(usize, usize)> = vec![(s, 0)];
        while let Some(frame) = frames.last_mut() {
            let (v, ci) = *frame;
            if ci < adj[v].len() {
                frame.1 += 1;
                let w = adj[v][ci];
                if index[w] == UNSEEN {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = comps.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    (comp_of, comps)
}

/// Bottom-up summaries over the condensation: `step(i, summaries)`
/// recomputes fn `i` from its callees' current summaries. Components
/// come callees-first, so an acyclic fn is computed once; a recursive
/// component sweeps until `same(new, old)` holds for every member. The
/// sweep bound is a safety net: the passes' lattices are finite and
/// their updates monotone.
pub fn bottom_up<S: Clone + Default>(
    edges: &[Vec<CallSite>],
    mut step: impl FnMut(usize, &[S]) -> S,
    same: impl Fn(&S, &S) -> bool,
) -> Vec<S> {
    let adj: Vec<Vec<usize>> =
        edges.iter().map(|es| es.iter().map(|e| e.callee).collect()).collect();
    let (_, comps) = condense(edges.len(), &adj);
    let mut summaries = vec![S::default(); edges.len()];
    for comp in &comps {
        let cyclic = comp.len() > 1 || adj[comp[0]].contains(&comp[0]);
        for _sweep in 0..if cyclic { 3 * comp.len() + 2 } else { 1 } {
            let mut changed = false;
            for &i in comp {
                let s = step(i, &summaries);
                changed |= !same(&s, &summaries[i]);
                summaries[i] = s;
            }
            if !changed {
                break;
            }
        }
    }
    summaries
}

/// Bottom-up lattice propagation over the condensation. `intrinsic`
/// holds each function's own (unsuppressed) site tiers; the result
/// joins those with every reachable callee's levels, capping alloc at
/// `Guarded` across cold call sites.
pub fn propagate(intrinsic: &[Levels], edges: &[Vec<CallSite>]) -> Vec<Levels> {
    let n = intrinsic.len();
    let adj: Vec<Vec<usize>> =
        edges.iter().map(|es| es.iter().map(|e| e.callee).collect()).collect();
    let (comp_of, comps) = condense(n, &adj);
    let mut levels = vec![Levels::default(); n];
    let alloc = fact_index(Fact::Alloc);
    for comp in &comps {
        let mut lvl = Levels::default();
        for &u in comp {
            for k in 0..3 {
                lvl[k] = lvl[k].max(intrinsic[u][k]);
            }
            for e in &edges[u] {
                if comp_of[e.callee] == comp_of[u] {
                    continue;
                }
                for k in 0..3 {
                    let mut c = levels[e.callee][k];
                    if k == alloc && e.cold {
                        c = c.min(Tier::Guarded);
                    }
                    lvl[k] = lvl[k].max(c);
                }
            }
        }
        for &u in comp {
            levels[u] = lvl;
        }
    }
    levels
}

/// Intrinsic levels of one function: the join of its unsuppressed
/// site tiers.
pub fn intrinsic_levels(fun: &FnModel) -> Levels {
    let mut lvl = Levels::default();
    for s in &fun.sites {
        if s.suppressed {
            continue;
        }
        let k = fact_index(s.fact);
        lvl[k] = lvl[k].max(s.tier);
    }
    lvl
}

/// One hop of a provenance chain: the function, and the line at which
/// it calls the next hop (`None` on the final hop).
#[derive(Debug, Clone)]
pub struct Hop {
    pub fn_idx: usize,
    pub call_line: Option<usize>,
}

/// Reconstruct a shortest call chain from `root` to a function with
/// an intrinsic, unsuppressed `May` site of `fact`, traversing only
/// edges that can carry the fact hot (cold edges are skipped for
/// alloc) into functions whose propagated level is `May`.
/// Deterministic: BFS in index order.
pub fn witness(
    root: usize,
    fact: Fact,
    model: &WorkspaceModel,
    edges: &[Vec<CallSite>],
    levels: &[Levels],
) -> Option<Vec<Hop>> {
    let k = fact_index(fact);
    let has_site = |i: usize| {
        model.fns[i].sites.iter().any(|s| !s.suppressed && s.fact == fact && s.tier == Tier::May)
    };
    if levels[root][k] != Tier::May {
        return None;
    }
    if has_site(root) {
        return Some(vec![Hop { fn_idx: root, call_line: None }]);
    }
    let n = model.fns.len();
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[root] = true;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for e in &edges[u] {
            if fact == Fact::Alloc && e.cold {
                continue;
            }
            if seen[e.callee] || levels[e.callee][k] != Tier::May {
                continue;
            }
            seen[e.callee] = true;
            prev[e.callee] = Some((u, e.line));
            if has_site(e.callee) {
                // Walk back to the root.
                let mut rev: Vec<Hop> = vec![Hop { fn_idx: e.callee, call_line: None }];
                let mut cur = e.callee;
                while let Some((p, line)) = prev[cur] {
                    rev.push(Hop { fn_idx: p, call_line: Some(line) });
                    cur = p;
                }
                rev.reverse();
                return Some(rev);
            }
            queue.push_back(e.callee);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::model::parse_file;

    fn model_of(src: &str) -> WorkspaceModel {
        let mut m = WorkspaceModel::default();
        parse_file("crates/x/src/test.rs", src, &mut m);
        m
    }

    fn idx_of(m: &WorkspaceModel, name: &str) -> usize {
        m.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn static_dispatch_and_fallback_edges_resolve() {
        let src = "pub trait Codec {\n\
                   \x20   fn decode(&self, n: usize) -> usize;\n\
                   }\n\
                   pub struct Raw;\n\
                   impl Codec for Raw {\n\
                   \x20   fn decode(&self, n: usize) -> usize {\n\
                   \x20       helper(n)\n\
                   \x20   }\n\
                   }\n\
                   fn helper(n: usize) -> usize {\n\
                   \x20   n + 1\n\
                   }\n\
                   pub struct Reader;\n\
                   impl Reader {\n\
                   \x20   fn read(&self, n: usize) -> usize {\n\
                   \x20       codec(n).decode(n)\n\
                   \x20   }\n\
                   }\n\
                   fn codec(n: usize) -> usize {\n\
                   \x20   n\n\
                   }\n";
        let m = model_of(src);
        let g = build(&m, &BTreeMap::new());
        let read = idx_of(&m, "read");
        let callees: Vec<usize> = g.edges[read].iter().map(|e| e.callee).collect();
        // `codec(` resolves same-file; `.decode(` on an expression
        // receiver dispatches through the unique trait declaring it.
        assert!(callees.contains(&idx_of(&m, "codec")), "{callees:?}");
        let raw_decode = m
            .fns
            .iter()
            .position(|f| f.name == "decode" && f.impl_type.as_deref() == Some("Raw"))
            .unwrap();
        assert!(callees.contains(&raw_decode), "{callees:?}");
    }

    #[test]
    fn bind_devirtualizes_trait_dispatch() {
        let src = "pub trait Backend {\n\
                   \x20   fn run(&self) -> usize {\n\
                   \x20       base()\n\
                   \x20   }\n\
                   }\n\
                   pub struct Seq;\n\
                   impl Backend for Seq {\n\
                   }\n\
                   pub struct Par;\n\
                   impl Backend for Par {\n\
                   \x20   fn run(&self) -> usize {\n\
                   \x20       spicy()\n\
                   \x20   }\n\
                   }\n\
                   fn base() -> usize {\n\
                   \x20   1\n\
                   }\n\
                   fn spicy() -> usize {\n\
                   \x20   2\n\
                   }\n\
                   fn drive(b: &dyn Backend) -> usize {\n\
                   \x20   b.run()\n\
                   }\n";
        let m = model_of(src);
        let drive = idx_of(&m, "drive");
        let unbound = build(&m, &BTreeMap::new());
        assert_eq!(unbound.edges[drive].len(), 2); // default + Par override
        let mut bind = BTreeMap::new();
        bind.insert("Backend".to_string(), "Seq".to_string());
        let bound = build(&m, &bind);
        let callees: Vec<usize> = bound.edges[drive].iter().map(|e| e.callee).collect();
        // Seq has no override → the trait default body only.
        let default = m.fns.iter().position(|f| f.name == "run" && f.is_trait_default).unwrap();
        assert_eq!(callees, vec![default]);
    }

    #[test]
    fn generic_receivers_dispatch_through_their_bound() {
        // `ops: &mut O` with `O: Ops` resolves as the trait `Ops`, so a
        // bind picks the implementor; `p.add(3)` on a receiver of
        // unknown type is not the two-argument `Ops::add`.
        let src = "pub trait Ops {\n\
                   \x20   fn add(&mut self, a: usize, b: usize) -> usize;\n\
                   }\n\
                   pub struct Tape;\n\
                   impl Ops for Tape {\n\
                   \x20   fn add(&mut self, a: usize, b: usize) -> usize {\n\
                   \x20       a + b\n\
                   \x20   }\n\
                   }\n\
                   pub struct Exec;\n\
                   impl Ops for Exec {\n\
                   \x20   fn add(&mut self, a: usize, b: usize) -> usize {\n\
                   \x20       a + b\n\
                   \x20   }\n\
                   }\n\
                   fn forward<'a, O: Ops + Send>(ops: &mut O) -> usize {\n\
                   \x20   ops.add(1, 2)\n\
                   }\n\
                   fn kernel(n: usize) -> usize {\n\
                   \x20   let p = base(n);\n\
                   \x20   p.add(3)\n\
                   }\n\
                   fn base(n: usize) -> usize {\n\
                   \x20   n\n\
                   }\n";
        let m = model_of(src);
        let add_of = |ty: &str| {
            m.fns.iter().position(|f| f.name == "add" && f.impl_type.as_deref() == Some(ty))
        };
        let mut bind = BTreeMap::new();
        bind.insert("Ops".to_string(), "Exec".to_string());
        let g = build(&m, &bind);
        let callees: Vec<usize> = g.edges[idx_of(&m, "forward")].iter().map(|e| e.callee).collect();
        assert_eq!(callees, vec![add_of("Exec").unwrap()]);
        let kernel: Vec<usize> = g.edges[idx_of(&m, "kernel")].iter().map(|e| e.callee).collect();
        assert_eq!(kernel, vec![idx_of(&m, "base")]);
    }

    #[test]
    fn multi_impl_type_resolves_every_candidate() {
        // One type implementing the same generic trait at two
        // parameters: the scanner strips generics, so both `run`
        // methods share the `(SimdSeq, run)` key. Dispatch — bound or
        // unbound — and typed-receiver resolution must see *both*
        // bodies, or facts in the second impl are silently missed.
        let src = "pub trait Backend {\n\
                   \x20   fn run(&self) -> usize;\n\
                   }\n\
                   pub struct SimdSeq;\n\
                   impl Backend<f64> for SimdSeq {\n\
                   \x20   fn run(&self) -> usize {\n\
                   \x20       wide()\n\
                   \x20   }\n\
                   }\n\
                   impl Backend<f32> for SimdSeq {\n\
                   \x20   fn run(&self) -> usize {\n\
                   \x20       narrow()\n\
                   \x20   }\n\
                   }\n\
                   fn wide() -> usize {\n\
                   \x20   1\n\
                   }\n\
                   fn narrow() -> usize {\n\
                   \x20   2\n\
                   }\n\
                   fn drive(b: &dyn Backend) -> usize {\n\
                   \x20   b.run()\n\
                   }\n\
                   fn drive_typed(b: SimdSeq) -> usize {\n\
                   \x20   b.run()\n\
                   }\n";
        let m = model_of(src);
        let runs: Vec<usize> = m
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == "run" && f.impl_type.as_deref() == Some("SimdSeq"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(runs.len(), 2, "fixture should parse two run impls");
        for (fun, bind) in [
            ("drive", BTreeMap::new()),
            ("drive_typed", BTreeMap::new()),
            ("drive", BTreeMap::from([("Backend".to_string(), "SimdSeq".to_string())])),
        ] {
            let g = build(&m, &bind);
            let callees: Vec<usize> = g.edges[idx_of(&m, fun)].iter().map(|e| e.callee).collect();
            for &r in &runs {
                assert!(callees.contains(&r), "{fun} with bind {bind:?} missed impl {r}");
            }
        }
    }

    #[test]
    fn condense_emits_callees_first() {
        // 0 → 1 ⇄ 2 → 3
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let (comp_of, comps) = condense(4, &adj);
        assert_eq!(comp_of[1], comp_of[2]);
        assert_ne!(comp_of[0], comp_of[1]);
        // Reverse topological: 3 before {1,2} before 0.
        let pos = |node: usize| comps.iter().position(|c| c.contains(&node)).unwrap();
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn propagation_joins_through_cycles_and_caps_cold_alloc() {
        let may_alloc = {
            let mut l = Levels::default();
            l[fact_index(Fact::Alloc)] = Tier::May;
            l
        };
        let clean = Levels::default();
        // 0 —cold→ 1(alloc), 0 —hot→ 2 ⇄ 3(alloc)
        let intrinsic = vec![clean, may_alloc, clean, may_alloc];
        let hot = |callee: usize| CallSite { callee, line: 1, cold: false };
        let edges = vec![
            vec![CallSite { callee: 1, line: 1, cold: true }, hot(2)],
            vec![],
            vec![hot(3)],
            vec![hot(2)],
        ];
        let lv = propagate(&intrinsic, &edges);
        let a = fact_index(Fact::Alloc);
        assert_eq!(lv[2][a], Tier::May); // via the cycle
        assert_eq!(lv[0][a], Tier::May); // via the hot edge
                                         // Cold edge alone: cap at Guarded.
        let edges_cold_only =
            vec![vec![CallSite { callee: 1, line: 1, cold: true }], vec![], vec![], vec![]];
        let lv2 = propagate(&intrinsic, &edges_cold_only);
        assert_eq!(lv2[0][a], Tier::Guarded);
    }

    #[test]
    fn witness_reconstructs_the_full_chain() {
        let src = "pub struct Engine;\n\
                   impl Engine {\n\
                   \x20   pub fn serve(&self, x: usize) -> usize {\n\
                   \x20       self.total(x)\n\
                   \x20   }\n\
                   \x20   fn total(&self, x: usize) -> usize {\n\
                   \x20       head(x)\n\
                   \x20   }\n\
                   }\n\
                   fn head(x: usize) -> usize {\n\
                   \x20   maybe(x).unwrap()\n\
                   }\n\
                   fn maybe(x: usize) -> Option<usize> {\n\
                   \x20   Some(x)\n\
                   }\n";
        let m = model_of(src);
        let g = build(&m, &BTreeMap::new());
        let intrinsic: Vec<Levels> = m.fns.iter().map(intrinsic_levels).collect();
        let levels = propagate(&intrinsic, &g.edges);
        let serve = idx_of(&m, "serve");
        assert_eq!(levels[serve][fact_index(Fact::Panic)], Tier::May);
        let chain = witness(serve, Fact::Panic, &m, &g.edges, &levels).unwrap();
        let names: Vec<&str> = chain.iter().map(|h| m.fns[h.fn_idx].name.as_str()).collect();
        assert_eq!(names, vec!["serve", "total", "head"]);
        assert!(chain[0].call_line.is_some());
        assert!(chain.last().unwrap().call_line.is_none());
    }
}
