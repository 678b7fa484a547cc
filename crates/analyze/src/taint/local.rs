//! Per-function taint tracking and summaries.
//!
//! The function scanner of [`crate::audit::model`] already yields
//! statement-shaped body lines; this module runs a small
//! flow-sensitive abstract interpretation over them. The domain is
//! the three-level lattice [`Taint`] (`Clean < Bounded < Tainted`)
//! per *identifier*: parameters, `let` bindings and reassignment
//! targets. The interprocedural story is classic bottom-up
//! summaries — for each function we compute
//!
//! * `ret`: taint of the returned value when every argument is clean
//!   (a function that *reads* untrusted input returns tainted data),
//! * `param_ret[i]`: the cap on taint flowing from argument `i` to
//!   the return value (`Tainted` = flows through untouched,
//!   `Bounded` = sanitized inside, `Clean` = no flow),
//! * `param_out[i]`: taint the function writes *into* argument `i`
//!   (the `read_line(&mut buf)` out-parameter shape),
//! * `param_sink[i]`: the sink a tainted argument `i` reaches,
//!   carrying the full hop chain for witness reconstruction.
//!
//! Summaries are parametric by re-running the local pass once per
//! parameter with only that parameter tainted (functions here are
//! small; the extra passes are cheaper than a symbolic domain).
//! Findings are emitted only from the all-clean pass, i.e. in the
//! function where the taint *originates* — every finding therefore
//! carries its true source site, and no defect is double-reported at
//! each caller.
//!
//! Documented conservatisms (see DESIGN §16): a *hard* sanitizing
//! statement credits every identifier it mentions (the comparison's
//! direction is not checked), while a *soft* sanitizer (`.len()` of a
//! materialized container) caps only its own statement's products;
//! pattern bindings (`Ok(n) => n`) do not carry the
//! scrutinee's taint (the `&mut` payload argument does, which is the
//! channel that matters for reads); struct fields are not tracked —
//! `expr` sources in `taint.toml` re-declare untrusted aggregates at
//! their use sites instead.

use super::config::{SinkKind, SourceKind, TaintConfig};
use crate::audit::graph::CallSite;
use crate::audit::model::{FnModel, WorkspaceModel};
use crate::source::{balanced, is_ident_byte, split_args, token_positions};
use std::collections::BTreeMap;

/// Taint tier of one value. Ordering is by increasing distrust;
/// `max` joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Taint {
    /// Not derived from untrusted input.
    #[default]
    Clean,
    /// Derived from untrusted input, but a bound check intervened.
    Bounded,
    /// Attacker-controlled with no bound between source and here.
    Tainted,
}

/// Where a tainted value was born: the source token and its site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origin {
    /// Display label (`read_line`, `skeleton`, …).
    pub label: String,
    pub file: String,
    pub line: usize,
}

/// One hop of a source→sink witness chain, rendered
/// `label (file:line)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    pub label: String,
    pub file: String,
    pub line: usize,
}

/// A sink reachable from a tainted parameter, with the hop chain
/// from the summary's owner down to the sink token (inclusive).
#[derive(Debug, Clone)]
pub struct SinkPath {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub chain: Vec<Hop>,
}

/// Bottom-up taint summary of one function.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Taint of the return value under all-clean arguments.
    pub ret: Taint,
    /// Source behind `ret` when it is not `Clean`.
    pub ret_origin: Option<Origin>,
    /// Flow cap argument `i` → return value.
    pub param_ret: Vec<Taint>,
    /// Taint written into argument `i` (out-parameters).
    pub param_out: Vec<Taint>,
    /// Source behind `param_out[i]`.
    pub param_out_origin: Vec<Option<Origin>>,
    /// Sink reached by a tainted argument `i`, if any.
    pub param_sink: Vec<Option<SinkPath>>,
}

impl Summary {
    fn sized(n: usize) -> Self {
        Summary {
            ret: Taint::Clean,
            ret_origin: None,
            param_ret: vec![Taint::Clean; n],
            param_out: vec![Taint::Clean; n],
            param_out_origin: vec![None; n],
            param_sink: vec![None; n],
        }
    }
}

/// One taint violation: a fully tainted operand at a sink, with its
/// source→sink chain.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    /// Sink label (`Vec::with_capacity`, `vec![..]`, `[..]`, …).
    pub sink_label: String,
    pub file: String,
    pub line: usize,
    pub col: usize,
    /// Source token hop first, sink token hop last.
    pub chain: Vec<Hop>,
}

/// Parameters beyond this index are not tracked parametrically (no
/// function on the audited surfaces is anywhere near it).
const MAX_TRACKED_PARAMS: usize = 8;

/// Keywords never treated as value identifiers.
const KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "mut", "ref", "in", "as", "fn",
    "move", "break", "continue", "true", "false", "self", "Self", "dyn", "impl",
];

/// Maximal identifiers of `text` with their byte positions.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            let word = &text[start..i];
            if !word.starts_with(|c: char| c.is_ascii_digit()) && !KEYWORDS.contains(&word) {
                out.push((start, word));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// One statement unit: body lines joined by `\n`, with the starting
/// byte offset of each line for position→line mapping.
struct Unit {
    text: String,
    line_starts: Vec<(usize, usize)>, // (byte offset, 1-based source line)
}

impl Unit {
    fn line_of(&self, pos: usize) -> usize {
        let mut line = self.line_starts.first().map_or(1, |&(_, l)| l);
        for &(off, l) in &self.line_starts {
            if off <= pos {
                line = l;
            } else {
                break;
            }
        }
        line
    }
}

/// Group a function body into statement units by `(`/`[` balance —
/// the same convention as the audit's `finalize_fn`.
fn units(fun: &FnModel) -> Vec<Unit> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut cur: Option<Unit> = None;
    for (i, bl) in fun.body.iter().enumerate() {
        let u = cur.get_or_insert_with(|| Unit { text: String::new(), line_starts: Vec::new() });
        if !u.text.is_empty() {
            u.text.push('\n');
        }
        u.line_starts.push((u.text.len(), bl.line_no));
        u.text.push_str(&bl.code);
        for b in bl.code.bytes() {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                _ => {}
            }
        }
        // A statement rustfmt split across lines stays one unit even
        // at balanced depth: a line ending in `=`/`&&`/`||`, or a next
        // line opening with `.`/`?`/`&&`/`||` (method chains, long
        // conditions). Splitting there would detach a sanitizer like
        // `.position(…)` from the binding it bounds.
        let open_tail = {
            let t = bl.code.trim_end();
            t.ends_with('=') || t.ends_with("&&") || t.ends_with("||")
        };
        let open_head = fun.body.get(i + 1).is_some_and(|nb| {
            let t = nb.code.trim_start();
            t.starts_with('.') || t.starts_with('?') || t.starts_with("&&") || t.starts_with("||")
        });
        if depth <= 0 && !open_tail && !open_head {
            depth = 0;
            if let Some(u) = cur.take() {
                out.push(u);
            }
        }
    }
    out.extend(cur);
    out
}

/// The comparison operators that, next to a limit name, mark a bound
/// check. Space-padded — rustfmt guarantees the padding, and it keeps
/// `->`, generics and shifts out.
const CMP_OPS: [&str; 4] = [" < ", " <= ", " > ", " >= "];

/// Sanitizing positions in a unit. `any` is the first position of any
/// sanitizer — hard or soft — and caps values evaluated in the same
/// statement; `hard` additionally drives the persistent end-of-unit
/// identifier demotion. A comparison in a unit that also mentions a
/// limit name, or a `.len()`, is a hard bound check; a soft token
/// (`.len()` by itself) caps only its own statement — the length of a
/// materialized container is memory-proportionate, but its presence
/// must not launder the container's contents.
#[derive(Debug, Clone, Copy, Default)]
struct SanPos {
    any: Option<usize>,
    hard: Option<usize>,
}

fn sanitizer_pos(text: &str, cfg: &TaintConfig) -> SanPos {
    fn merge(slot: &mut Option<usize>, p: usize) {
        *slot = Some(slot.map_or(p, |b: usize| b.min(p)));
    }
    let mut san = SanPos::default();
    for tok in &cfg.sanitizers {
        if let Some(p) = token_positions(text, tok).into_iter().next() {
            merge(&mut san.any, p);
            merge(&mut san.hard, p);
        }
    }
    for tok in &cfg.soft_sanitizers {
        if let Some(p) = token_positions(text, tok).into_iter().next() {
            merge(&mut san.any, p);
        }
    }
    // A comparison is a guard only when the unit also mentions
    // something bound-like: a declared limit name, `.len()`, or any
    // configured soft sanitizer (materialized-dimension reads such as
    // `.rows()` — memory already paid for, so comparing against them
    // bounds the other operand).
    let has_bound = cfg.limits.iter().any(|l| text.contains(l.as_str()))
        || text.contains(".len()")
        || cfg.soft_sanitizers.iter().any(|t| text.contains(t.as_str()));
    if has_bound {
        for op in CMP_OPS {
            if let Some(p) = text.find(op) {
                merge(&mut san.any, p);
                merge(&mut san.hard, p);
            }
        }
    }
    san
}

#[derive(Debug, Clone, Default)]
struct Val {
    tier: Taint,
    origin: Option<Origin>,
}

impl Val {
    fn join(&mut self, other: Val) {
        if other.tier > self.tier {
            *self = other;
        }
    }
}

/// Index of justified `ams-taint` allow(rule) marks: (file, line) →
/// rule names.
pub type AllowIndex = BTreeMap<(String, usize), Vec<String>>;

struct Pass<'a> {
    fun: &'a FnModel,
    model: &'a WorkspaceModel,
    cfg: &'a TaintConfig,
    edges: &'a [CallSite],
    summaries: &'a [Summary],
    allows: &'a AllowIndex,
    state: BTreeMap<String, Val>,
    ret: Val,
    findings: Vec<Finding>,
    /// Lowest-line sink reached from the seeded parameter, param
    /// passes only.
    param_sink: Option<SinkPath>,
    /// Emit findings (clean pass) or record `param_sink` (param pass).
    emit: bool,
}

impl<'a> Pass<'a> {
    /// Taint of an expression fragment: join over known identifiers
    /// and in-scope `expr` sources; a sanitizer token inside the
    /// fragment caps the result at `Bounded`.
    fn eval(&self, text: &str, unit: &Unit, base: usize) -> Val {
        let mut v = Val::default();
        for (pos, id) in idents(text) {
            if let Some(known) = self.state.get(id) {
                let _ = pos;
                v.join(known.clone());
            }
        }
        for src in &self.cfg.sources {
            if src.kind != SourceKind::Expr || !src.in_scope(&self.fun.file) {
                continue;
            }
            if let Some(p) = token_positions(text, &src.token).into_iter().next() {
                v.join(Val {
                    tier: Taint::Tainted,
                    origin: Some(Origin {
                        label: src.name.clone(),
                        file: self.fun.file.clone(),
                        line: unit.line_of(base + p),
                    }),
                });
            }
        }
        if sanitizer_pos(text, self.cfg).any.is_some() {
            v.tier = v.tier.min(Taint::Bounded);
        }
        v
    }

    /// A justified allow covering `rule` on the sink line or the line
    /// above it.
    fn suppressed(&self, rule: &str, line: usize) -> bool {
        [line, line.saturating_sub(1)].iter().any(|&l| {
            self.allows
                .get(&(self.fun.file.clone(), l))
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        })
    }

    fn record_sink(&mut self, path: SinkPath, origin: Option<Origin>, sink_label: &str) {
        if self.emit {
            let origin = match origin {
                Some(o) => o,
                None => return, // taint without a local source: a param pass concern
            };
            let mut chain = vec![Hop { label: origin.label, file: origin.file, line: origin.line }];
            chain.extend(path.chain.iter().cloned());
            self.findings.push(Finding {
                rule: path.rule,
                sink_label: sink_label.to_string(),
                file: path.file,
                line: path.line,
                col: path.col,
                chain,
            });
        } else {
            let better = match &self.param_sink {
                Some(cur) => (path.file.as_str(), path.line) < (cur.file.as_str(), cur.line),
                None => true,
            };
            if better {
                self.param_sink = Some(path);
            }
        }
    }

    /// Sinks whose operand is fully tainted in this unit.
    fn check_sinks(&mut self, unit: &Unit, san: Option<usize>) {
        for sk in self.cfg.sinks.iter() {
            let occurrences: Vec<(usize, usize, usize)> = match sk.kind {
                SinkKind::Call => token_positions(&unit.text, &sk.token)
                    .into_iter()
                    .filter_map(|p| {
                        let open = p + sk.token.len() - 1;
                        balanced(&unit.text, open).map(|(lo, hi)| (p, lo, hi))
                    })
                    .collect(),
                SinkKind::VecMacro => token_positions(&unit.text, &sk.token)
                    .into_iter()
                    .filter_map(|p| {
                        let open = p + sk.token.len() - 1;
                        let (lo, hi) = balanced(&unit.text, open)?;
                        let inner = &unit.text[lo..hi];
                        // `vec![elem; n]` — only the sized form has a
                        // length operand.
                        let semi = split_semicolon(inner)?;
                        Some((p, lo + semi + 1, hi))
                    })
                    .collect(),
                SinkKind::Index => index_sites(&unit.text),
            };
            for (tok_pos, lo, hi) in occurrences {
                let operand = &unit.text[lo..hi];
                let mut v = self.eval(operand, unit, lo);
                if san.is_some_and(|s| tok_pos > s) {
                    v.tier = v.tier.min(Taint::Bounded);
                }
                if v.tier != Taint::Tainted {
                    continue;
                }
                let line = unit.line_of(tok_pos);
                let col = tok_pos
                    - unit
                        .line_starts
                        .iter()
                        .rev()
                        .find(|&&(o, _)| o <= tok_pos)
                        .map_or(0, |&(o, _)| o)
                    + 1;
                if self.suppressed(&sk.rule, line) {
                    continue;
                }
                let path = SinkPath {
                    rule: sk.rule.clone(),
                    file: self.fun.file.clone(),
                    line,
                    col,
                    chain: vec![
                        Hop { label: self.fun.name.clone(), file: self.fun.file.clone(), line },
                        Hop { label: sk.label.clone(), file: self.fun.file.clone(), line },
                    ],
                };
                self.record_sink(path, v.origin, &sk.label);
            }
        }
    }

    /// Resolved calls in this unit: argument flows into callee
    /// summaries (sinks, returns, out-parameters). Also returns the
    /// byte spans of the resolved call expressions so product
    /// evaluation can mask them out — a call's result taint is what
    /// its summary says, not the raw taint of its argument text.
    fn check_calls(&mut self, unit: &Unit, san: Option<usize>) -> (Val, Vec<(usize, usize)>) {
        let mut result = Val::default();
        let mut spans = Vec::new();
        let first_line = unit.line_starts.first().map_or(0, |&(_, l)| l);
        let last_line = unit.line_starts.last().map_or(0, |&(_, l)| l);
        for site in self.edges {
            if site.line < first_line || site.line > last_line {
                continue;
            }
            let callee = &self.model.fns[site.callee];
            let Some(pos) = token_positions(&unit.text, &callee.name)
                .into_iter()
                .find(|&p| unit.text.as_bytes().get(p + callee.name.len()) == Some(&b'('))
            else {
                continue;
            };
            let Some((lo, hi)) = balanced(&unit.text, pos + callee.name.len()) else {
                continue;
            };
            let summary = &self.summaries[site.callee];
            let capped = san.is_some_and(|s| pos > s);
            // Return taint generated inside the callee.
            if summary.ret > Taint::Clean {
                let mut v = Val { tier: summary.ret, origin: summary.ret_origin.clone() };
                if capped {
                    v.tier = v.tier.min(Taint::Bounded);
                }
                result.join(v);
            }
            for (ai, (arg_off, arg)) in split_args(&unit.text[lo..hi]).into_iter().enumerate() {
                if ai >= summary.param_ret.len() {
                    break;
                }
                let mut v = self.eval(arg, unit, lo + arg_off);
                if capped {
                    v.tier = v.tier.min(Taint::Bounded);
                }
                // Tainted argument reaching a sink inside the callee.
                if v.tier == Taint::Tainted {
                    if let Some(path) = &summary.param_sink[ai] {
                        let mut chain = vec![Hop {
                            label: self.fun.name.clone(),
                            file: self.fun.file.clone(),
                            line: site.line,
                        }];
                        chain.extend(path.chain.iter().cloned());
                        let label = path
                            .chain
                            .last()
                            .map(|h| h.label.clone())
                            .unwrap_or_else(|| path.rule.clone());
                        let lifted = SinkPath {
                            rule: path.rule.clone(),
                            file: path.file.clone(),
                            line: path.line,
                            col: path.col,
                            chain,
                        };
                        self.record_sink(lifted, v.origin.clone(), &label);
                    }
                }
                // Argument flowing to the callee's return value.
                let through = v.tier.min(summary.param_ret[ai]);
                if through > Taint::Clean {
                    result.join(Val { tier: through, origin: v.origin.clone() });
                }
                // Callee writing taint into an out-parameter.
                if summary.param_out[ai] > Taint::Clean {
                    let mut out_v = Val {
                        tier: summary.param_out[ai],
                        origin: summary.param_out_origin[ai].clone(),
                    };
                    if capped {
                        out_v.tier = out_v.tier.min(Taint::Bounded);
                    }
                    for (_, id) in idents(arg) {
                        self.state.entry(id.to_string()).or_default().join(out_v.clone());
                    }
                }
            }
            spans.push((pos, hi + 1));
        }
        (result, spans)
    }

    /// `call`-kind sources in this unit: the produced value and every
    /// argument identifier become tainted.
    fn check_sources(&mut self, unit: &Unit) -> Val {
        let mut produced = Val::default();
        for src in &self.cfg.sources {
            if src.kind != SourceKind::Call || !src.in_scope(&self.fun.file) {
                continue;
            }
            for pos in token_positions(&unit.text, &src.token) {
                let line = unit.line_of(pos);
                let origin = Origin { label: src.name.clone(), file: self.fun.file.clone(), line };
                produced.join(Val { tier: Taint::Tainted, origin: Some(origin.clone()) });
                if src.token.ends_with('(') {
                    if let Some((lo, hi)) = balanced(&unit.text, pos + src.token.len() - 1) {
                        for (_, id) in idents(&unit.text[lo..hi]) {
                            self.state
                                .entry(id.to_string())
                                .or_default()
                                .join(Val { tier: Taint::Tainted, origin: Some(origin.clone()) });
                        }
                    }
                }
            }
        }
        produced
    }

    fn run(&mut self) {
        for unit in units(self.fun) {
            let san = sanitizer_pos(&unit.text, self.cfg);
            let sourced = self.check_sources(&unit);
            self.check_sinks(&unit, san.any);
            let (called, call_spans) = self.check_calls(&unit, san.any);

            // Resolved call expressions are masked out of the product
            // text: their contribution is the summary-mediated
            // `called` value, not the raw taint of their arguments.
            let mut masked = unit.text.clone().into_bytes();
            let len = masked.len();
            for (lo, hi) in call_spans {
                for b in masked.iter_mut().take(hi.min(len)).skip(lo) {
                    if *b != b'\n' {
                        *b = b' ';
                    }
                }
            }
            let masked = String::from_utf8(masked).expect("space masking preserves utf-8");
            let lead = unit.text.len() - unit.text.trim_start().len();
            let trimmed = unit.text.trim();

            // Statement product: assignment targets, `return`, tails.
            let mut rhs_val = Val::default();
            rhs_val.join(sourced);
            rhs_val.join(called);
            if let Some((targets, rhs_off, compound)) = assignment(trimmed) {
                let rhs_abs = lead + rhs_off;
                rhs_val.join(self.eval(&masked[rhs_abs..], &unit, rhs_abs));
                if san.any.is_some() {
                    rhs_val.tier = rhs_val.tier.min(Taint::Bounded);
                }
                for t in targets {
                    if compound {
                        self.state.entry(t).or_default().join(rhs_val.clone());
                    } else {
                        self.state.insert(t, rhs_val.clone());
                    }
                }
            } else {
                let mut v = rhs_val;
                if let Some(rest) = trimmed.strip_prefix("return") {
                    let rest_abs = lead + trimmed.len() - rest.len();
                    v.join(self.eval(&masked[rest_abs..], &unit, rest_abs));
                    if san.any.is_some() {
                        v.tier = v.tier.min(Taint::Bounded);
                    }
                    self.ret.join(v);
                } else if is_tail_expr(trimmed) {
                    v.join(self.eval(&masked[lead..], &unit, lead));
                    if san.any.is_some() {
                        v.tier = v.tier.min(Taint::Bounded);
                    }
                    self.ret.join(v);
                }
            }

            // Persistent kill: a *hard* sanitizing statement demotes
            // every tainted identifier it mentions. Soft sanitizers
            // deliberately do not reach here.
            if san.hard.is_some() {
                for (_, id) in idents(&unit.text) {
                    if let Some(v) = self.state.get_mut(id) {
                        v.tier = v.tier.min(Taint::Bounded);
                    }
                }
            }
        }
    }
}

/// Top-level `;` position inside a bracket group's content.
fn split_semicolon(inner: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, b) in inner.bytes().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' if depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// `x[expr]` index sites: a `[` right after an identifier, `]` or `)`.
/// Emits `(token position, operand range)` like the other sink kinds.
fn index_sites(text: &str) -> Vec<(usize, usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if !(is_ident_byte(prev) || prev == b']' || prev == b')') {
            continue;
        }
        if let Some((lo, hi)) = balanced(text, i) {
            out.push((i, lo, hi));
        }
    }
    out
}

/// Parse an assignment statement: `(targets, rhs offset, compound)`.
/// Handles `let` patterns (`let (a, b) = …`, `if let Ok(n) = …`),
/// plain `x = …`, compound `x += …`, and `for` bindings (`for seg in
/// &dir.segs { …` — the loop variable carries the iterated
/// collection's taint).
fn assignment(trimmed: &str) -> Option<(Vec<String>, usize, bool)> {
    if let Some(rest) = trimmed.strip_prefix("for ") {
        if let Some(in_pos) = rest.find(" in ") {
            let targets: Vec<String> = idents(&rest[..in_pos])
                .into_iter()
                .filter(|(_, id)| id.starts_with(|c: char| c.is_ascii_lowercase() || c == '_'))
                .map(|(_, id)| id.to_string())
                .collect();
            if !targets.is_empty() {
                return Some((targets, 4 + in_pos + 4, false));
            }
        }
        return None;
    }
    let bytes = trimmed.as_bytes();
    let mut depth = 0i32;
    let mut eq = None;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                let next = bytes.get(i + 1).copied().unwrap_or(b' ');
                if next == b'=' || matches!(prev, b'=' | b'<' | b'>' | b'!') {
                    return None; // comparison, not assignment
                }
                eq = Some((i, !matches!(prev, b' ')));
                break;
            }
            _ => {}
        }
    }
    let (eq_pos, compound) = eq?;
    let lhs_end = if compound { eq_pos - 1 } else { eq_pos };
    let lhs = &trimmed[..lhs_end];
    let lhs_core = match lhs.find("let ") {
        Some(p) => &lhs[p + 4..],
        None => {
            // Only simple receivers qualify as non-`let` targets; a
            // `for x in` or arbitrary expression does not.
            let head = lhs.trim_start_matches('*').trim();
            if head.is_empty()
                || !head.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                || head.contains('(')
            {
                return None;
            }
            head
        }
    };
    let targets: Vec<String> = idents(lhs_core)
        .into_iter()
        .filter(|(_, id)| id.starts_with(|c: char| c.is_ascii_lowercase() || c == '_'))
        .map(|(_, id)| id.to_string())
        .collect();
    if targets.is_empty() {
        return None;
    }
    Some((targets, eq_pos + 1, compound))
}

/// A statement that yields the function's value: not `;`-terminated,
/// not a block opener/closer, not a control-flow header.
fn is_tail_expr(trimmed: &str) -> bool {
    if trimmed.is_empty() {
        return false;
    }
    let last = trimmed.as_bytes()[trimmed.len() - 1];
    if matches!(last, b';' | b'{' | b'}') {
        return false;
    }
    for kw in ["if ", "while ", "for ", "match ", "else"] {
        if trimmed.starts_with(kw) {
            return false;
        }
    }
    true
}

/// Run the local pass over `fun` with the given callee summaries.
/// Returns the function's own summary and the findings originating in
/// it (clean pass only).
pub fn analyze_fn(
    fun: &FnModel,
    model: &WorkspaceModel,
    cfg: &TaintConfig,
    edges: &[CallSite],
    summaries: &[Summary],
    allows: &AllowIndex,
) -> (Summary, Vec<Finding>) {
    let n_params = fun.params.len().min(MAX_TRACKED_PARAMS);
    let mut summary = Summary::sized(fun.params.len());

    // All-clean pass: intrinsic sources, findings, `ret`, out-params.
    let mut clean = Pass {
        fun,
        model,
        cfg,
        edges,
        summaries,
        allows,
        state: BTreeMap::new(),
        ret: Val::default(),
        findings: Vec::new(),
        param_sink: None,
        emit: true,
    };
    clean.run();
    summary.ret = clean.ret.tier;
    summary.ret_origin = clean.ret.origin.clone();
    for (i, p) in fun.params.iter().enumerate() {
        if let Some(v) = clean.state.get(&p.name) {
            summary.param_out[i] = v.tier;
            summary.param_out_origin[i] = v.origin.clone();
        }
    }
    let findings = clean.findings;

    // One pass per tracked parameter, only that parameter tainted.
    for (i, p) in fun.params.iter().enumerate().take(n_params) {
        let mut seed = BTreeMap::new();
        seed.insert(p.name.clone(), Val { tier: Taint::Tainted, origin: None });
        let mut pass = Pass {
            fun,
            model,
            cfg,
            edges,
            summaries,
            allows,
            state: seed,
            ret: Val::default(),
            findings: Vec::new(),
            param_sink: None,
            emit: false,
        };
        pass.run();
        summary.param_ret[i] = pass.ret.tier;
        summary.param_sink[i] = pass.param_sink;
    }
    (summary, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::graph;
    use crate::audit::model::parse_file;

    fn cfg() -> TaintConfig {
        super::super::config::parse(
            "[[source]]\n\
             name = \"read_line\"\n\
             token = \".read_line(\"\n\
             \n\
             [[source]]\n\
             name = \"skeleton\"\n\
             token = \".skeleton\"\n\
             kind = \"expr\"\n\
             \n\
             [[sink]]\n\
             rule = \"tainted-alloc\"\n\
             token = \"Vec::with_capacity(\"\n\
             \n\
             [[sink]]\n\
             rule = \"tainted-alloc\"\n\
             token = \"vec![\"\n\
             kind = \"vec-macro\"\n\
             \n\
             [[sink]]\n\
             rule = \"tainted-index\"\n\
             token = \"[\"\n\
             kind = \"index\"\n\
             \n\
             [[sanitizer]]\n\
             token = \".min(\"\n\
             \n\
             [limits]\n\
             names = [\"MAX_\"]\n",
        )
        .unwrap()
    }

    fn analyze(src: &str) -> (WorkspaceModel, Vec<(Summary, Vec<Finding>)>) {
        let mut model = WorkspaceModel::default();
        parse_file("crates/x/src/a.rs", src, &mut model);
        let g = graph::build(&model, &BTreeMap::new());
        let cfg = cfg();
        let allows = AllowIndex::new();
        let mut summaries = vec![Summary::default(); model.fns.len()];
        // Single bottom-up sweep suffices for these acyclic tests:
        // callees are declared after callers, so iterate twice.
        let mut out = vec![(Summary::default(), Vec::new()); model.fns.len()];
        for _ in 0..2 {
            for i in 0..model.fns.len() {
                let (s, f) =
                    analyze_fn(&model.fns[i], &model, &cfg, &g.edges[i], &summaries, &allows);
                summaries[i] = s.clone();
                out[i] = (s, f);
            }
        }
        (model, out)
    }

    #[test]
    fn source_to_local_sink_is_found_with_chain() {
        let src = "fn handle(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (_, results) = analyze(src);
        let (_, findings) = &results[0];
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "tainted-alloc");
        assert_eq!(f.line, 4);
        let rendered: Vec<&str> = f.chain.iter().map(|h| h.label.as_str()).collect();
        assert_eq!(rendered, ["read_line", "handle", "Vec::with_capacity"]);
        assert_eq!(f.chain[0].line, 3);
    }

    #[test]
    fn min_against_limit_sanitizes() {
        let src = "fn handle(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   let capped = n.min(MAX_LINE);\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(capped);\n\
                   \x20   v.len()\n\
                   }\n";
        let (_, results) = analyze(src);
        assert!(results[0].1.is_empty(), "{:?}", results[0].1);
    }

    #[test]
    fn guard_statement_kills_taint_persistently() {
        let src = "fn handle(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   r.read_line(&mut line);\n\
                   \x20   let n = line.len();\n\
                   \x20   if n > MAX_LINE {\n\
                   \x20       return 0;\n\
                   \x20   }\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (_, results) = analyze(src);
        assert!(results[0].1.is_empty(), "{:?}", results[0].1);
    }

    #[test]
    fn taint_flows_through_a_callee_into_its_sink() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   r.read_line(&mut line);\n\
                   \x20   grow(line.len())\n\
                   }\n\
                   fn grow(n: usize) -> usize {\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (_, results) = analyze(src);
        let findings = &results[0].1;
        assert_eq!(findings.len(), 1, "{findings:?}");
        let labels: Vec<&str> = findings[0].chain.iter().map(|h| h.label.as_str()).collect();
        assert_eq!(labels, ["read_line", "outer", "grow", "Vec::with_capacity"]);
        // The summary of `grow` records the parametric sink.
        assert!(results[1].0.param_sink[0].is_some());
        // And `outer`'s own params stay clean.
        assert!(results[0].1[0].file.contains("a.rs"));
    }

    #[test]
    fn out_param_taint_flows_back_to_the_caller() {
        let src = "fn fill(r: &mut Reader, buf: &mut String) -> usize {\n\
                   \x20   r.read_line(buf)\n\
                   }\n\
                   fn caller(r: &mut Reader) -> usize {\n\
                   \x20   let mut buf = String::new();\n\
                   \x20   fill(r, &mut buf);\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(buf.len());\n\
                   \x20   v.len()\n\
                   }\n";
        let (_, results) = analyze(src);
        // `fill` writes taint into its second parameter...
        assert_eq!(results[0].0.param_out[1], Taint::Tainted);
        // ...and returns the tainted byte count.
        assert_eq!(results[0].0.ret, Taint::Tainted);
        let findings = &results[1].1;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].chain[0].label, "read_line");
    }

    #[test]
    fn expr_source_and_vec_macro_and_index_sinks() {
        let src = "fn read_seg(store: &Store, i: usize) -> Vec<u8> {\n\
                   \x20   let seg = &store.skeleton.segs[i];\n\
                   \x20   let bytes = vec![0u8; seg.len as usize];\n\
                   \x20   bytes\n\
                   }\n\
                   fn pick(store: &Store) -> u8 {\n\
                   \x20   let k = store.skeleton.start;\n\
                   \x20   store.data[k]\n\
                   }\n";
        let (_, results) = analyze(src);
        let alloc = &results[0].1;
        assert_eq!(alloc.len(), 1, "{alloc:?}");
        assert_eq!(alloc[0].rule, "tainted-alloc");
        assert_eq!(alloc[0].chain[0].label, "skeleton");
        let index = &results[1].1;
        assert!(index.iter().any(|f| f.rule == "tainted-index"), "{index:?}");
    }

    /// Like [`cfg`] but with `.len()` declared soft — the workspace
    /// configuration's shape.
    fn cfg_soft() -> TaintConfig {
        super::super::config::parse(
            "[[source]]\n\
             name = \"skeleton\"\n\
             token = \".skeleton\"\n\
             kind = \"expr\"\n\
             \n\
             [[sink]]\n\
             rule = \"tainted-alloc\"\n\
             token = \"Vec::with_capacity(\"\n\
             \n\
             [[sink]]\n\
             rule = \"tainted-index\"\n\
             token = \"[\"\n\
             kind = \"index\"\n\
             \n\
             [[sanitizer]]\n\
             token = \".min(\"\n\
             \n\
             [[sanitizer]]\n\
             token = \".len()\"\n\
             soft = true\n\
             \n\
             [[sanitizer]]\n\
             token = \".rows()\"\n\
             soft = true\n\
             \n\
             [limits]\n\
             names = [\"MAX_\"]\n",
        )
        .unwrap()
    }

    fn analyze_with(src: &str, cfg: &TaintConfig) -> Vec<(Summary, Vec<Finding>)> {
        let mut model = WorkspaceModel::default();
        parse_file("crates/store/src/a.rs", src, &mut model);
        let g = graph::build(&model, &BTreeMap::new());
        let allows = AllowIndex::new();
        let mut summaries = vec![Summary::default(); model.fns.len()];
        let mut out = vec![(Summary::default(), Vec::new()); model.fns.len()];
        for _ in 0..2 {
            for i in 0..model.fns.len() {
                let (s, f) =
                    analyze_fn(&model.fns[i], &model, cfg, &g.edges[i], &summaries, &allows);
                summaries[i] = s.clone();
                out[i] = (s, f);
            }
        }
        out
    }

    #[test]
    fn soft_sanitizer_caps_its_statement_without_killing_the_value() {
        // `total` is capped by the soft `.len()` in its own statement
        // (allocating by a materialized length is memory-proportionate)
        // but `n` — a forged count off the skeleton — stays tainted,
        // so the later index still fires. A hard sanitizer would have
        // demoted `n` too.
        let src = "fn handle(store: &Store, data: &[u8]) -> u8 {\n\
                   \x20   let n = store.skeleton.count;\n\
                   \x20   let total = n + data.len();\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(total);\n\
                   \x20   data[n]\n\
                   }\n";
        let results = analyze_with(src, &cfg_soft());
        let findings = &results[0].1;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "tainted-index");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn a_for_loop_binding_carries_the_iterated_taint() {
        // `read_seg`'s shape: the segment directory entry is bound by
        // a `for` loop, not a `let`, and its forged length reaches an
        // allocation.
        let src = "fn read_all(store: &Store) -> usize {\n\
                   \x20   let mut total = 0;\n\
                   \x20   for seg in &store.skeleton.segs {\n\
                   \x20       let v: Vec<u8> = Vec::with_capacity(seg);\n\
                   \x20       total += 1;\n\
                   \x20   }\n\
                   \x20   total\n\
                   }\n";
        let results = analyze_with(src, &cfg_soft());
        let findings = &results[0].1;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "tainted-alloc");
        assert_eq!(findings[0].chain[0].label, "skeleton");
    }

    #[test]
    fn comparison_against_a_len_is_a_hard_guard() {
        let src = "fn handle(store: &Store, data: &[u8]) -> u8 {\n\
                   \x20   let n = store.skeleton.count;\n\
                   \x20   if n >= data.len() {\n\
                   \x20       return 0;\n\
                   \x20   }\n\
                   \x20   data[n]\n\
                   }\n";
        let results = analyze_with(src, &cfg_soft());
        assert!(results[0].1.is_empty(), "{:?}", results[0].1);
    }

    #[test]
    fn comparison_against_a_soft_dimension_is_a_hard_guard() {
        // `.rows()` is a configured soft sanitizer (a materialized
        // matrix dimension); comparing a forged count against it is as
        // good a bound as comparing against `.len()`, so the guard
        // demotes `n` for the rest of the function.
        let src = "fn handle(store: &Store, m: &Matrix) -> u8 {\n\
                   \x20   let n = store.skeleton.count;\n\
                   \x20   if n >= m.rows() {\n\
                   \x20       return 0;\n\
                   \x20   }\n\
                   \x20   m[n]\n\
                   }\n";
        let results = analyze_with(src, &cfg_soft());
        assert!(results[0].1.is_empty(), "{:?}", results[0].1);
    }

    #[test]
    fn a_rustfmt_method_chain_stays_one_unit() {
        // The sanitizer (`.min(MAX_N)`) lands on a continuation line;
        // if the chain were split into separate units the binding
        // would stay tainted.
        let src = "fn handle(store: &Store, data: &[u8]) -> u8 {\n\
                   \x20   let n = store.skeleton.count\n\
                   \x20       .min(MAX_N);\n\
                   \x20   data[n]\n\
                   }\n";
        let results = analyze_with(src, &cfg_soft());
        assert!(results[0].1.is_empty(), "{:?}", results[0].1);
    }

    #[test]
    fn bounded_flow_through_callee_does_not_fire() {
        let src = "fn cap(n: usize) -> usize {\n\
                   \x20   n.min(MAX_LINE)\n\
                   }\n\
                   fn caller(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   let safe = cap(n);\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(safe);\n\
                   \x20   v.len()\n\
                   }\n";
        let (_, results) = analyze(src);
        assert_eq!(results[0].0.param_ret[0], Taint::Bounded);
        assert!(results[1].1.is_empty(), "{:?}", results[1].1);
    }
}
