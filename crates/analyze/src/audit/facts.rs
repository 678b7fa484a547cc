//! The three fact lattices the whole-program audit propagates, and
//! the token-level detectors that seed them.
//!
//! Each fact is a three-level lattice ordered `Free < Guarded < May`:
//!
//! * **panic** — `Guarded` covers invariant guards the repo relies on
//!   (`assert!`/`debug_assert!`, slice indexing and slice ops like
//!   `copy_from_slice`/`split_at`, overflow-checked arithmetic such as
//!   `.pow(`): they can abort, but only when a caller-stated invariant
//!   is already broken. `May` covers the unconditional family —
//!   `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!` — which a declared panic-free root must never
//!   reach.
//! * **alloc** — `Guarded` (read: *cold*) covers allocation tokens
//!   inside an error-construction statement (`Err(`, `.map_err(`,
//!   `.ok_or(`, `.ok_or_else(`): building a `String` for an error
//!   that ends the request is not hot-path traffic. `May` is every
//!   other heap token (`Vec::new`, `vec!`, `.push(`, `.clone()`,
//!   `format!`, `Box::new`, …).
//! * **block** — `Guarded` (read: *bounded*) covers waits with an
//!   explicit timeout (`recv_timeout`, `wait_timeout`); `May` covers
//!   unbounded lock/channel/file/socket operations.
//!
//! A declared root's `deny = [...]` gates at `May`; `Guarded` sites
//! are counted and reported in the root's summary, never as
//! violations. A site is dropped from propagation by `// ams-audit:
//! allow(fact): justification` on its line or the line above — the
//! justification is mandatory, and a bare `allow(fact)` is itself an
//! error (see [`crate::audit`] module docs).

use crate::source::{is_ident_byte, token_positions};

/// One of the three audited facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fact {
    Panic,
    Alloc,
    Block,
}

impl Fact {
    /// All facts, in reporting order.
    pub const ALL: [Fact; 3] = [Fact::Panic, Fact::Alloc, Fact::Block];

    /// Stable lowercase name used in `audit.toml`, suppressions and
    /// diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            Fact::Panic => "panic",
            Fact::Alloc => "alloc",
            Fact::Block => "block",
        }
    }

    /// Parse a fact name (`panic`/`alloc`/`block`).
    pub fn parse(s: &str) -> Option<Fact> {
        match s {
            "panic" => Some(Fact::Panic),
            "alloc" => Some(Fact::Alloc),
            "block" => Some(Fact::Block),
            _ => None,
        }
    }
}

/// Lattice level of a fact. Ordered, so `max` is the lattice join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Tier {
    /// Provably absent at the token level.
    #[default]
    Free,
    /// Present only in its benign form (guarded / cold / bounded).
    Guarded,
    /// Unconditionally possible — what `deny` gates on.
    May,
}

/// One intrinsic fact site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    pub fact: Fact,
    pub tier: Tier,
    /// 1-based source line.
    pub line: usize,
    /// 1-based column of the token.
    pub col: usize,
    /// The matched token, for messages (`.unwrap()`, `format!(`, …).
    pub token: String,
    /// A justified `ams-audit: allow(fact)` covers this site; it is
    /// kept for reporting but dropped from propagation.
    pub suppressed: bool,
}

/// Unconditional panic tokens (`May`).
const PANIC_MAY: [&str; 7] = [
    ".unwrap()",
    ".unwrap_err()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Invariant-guard panic tokens (`Guarded`).
const PANIC_GUARDED: [&str; 10] = [
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
    "debug_assert!(",
    "debug_assert_eq!(",
    "debug_assert_ne!(",
    ".copy_from_slice(",
    ".split_at(",
    ".split_at_mut(",
    ".pow(",
];

/// Heap-allocation tokens (`May` on a hot statement, `Guarded`/cold
/// inside an error-construction statement).
const ALLOC_TOKENS: [&str; 26] = [
    "Vec::new(",
    "Vec::with_capacity(",
    "Vec::from(",
    "vec![",
    "String::new(",
    "String::from(",
    "String::with_capacity(",
    "Box::new(",
    "Rc::new(",
    "Arc::new(",
    "format!(",
    ".to_vec()",
    ".to_string()",
    ".to_owned()",
    ".clone()",
    ".push(",
    ".push_back(",
    ".push_front(",
    ".insert(",
    ".extend(",
    ".extend_from_slice(",
    ".collect()",
    ".collect::<",
    ".resize(",
    ".reserve(",
    ".repeat(",
];

/// Unbounded blocking tokens (`May`).
const BLOCK_MAY: [&str; 19] = [
    ".lock()",
    ".recv()",
    ".recv_deadline(",
    ".send(",
    ".wait(",
    ".wait_while(",
    ".join()",
    ".accept()",
    ".connect(",
    ".read_line(",
    ".read_to_string(",
    ".read_until(",
    ".read_exact(",
    ".write_all(",
    ".write_fmt(",
    ".flush()",
    ".sync_all()",
    "File::open(",
    "File::create(",
];

/// Bounded waits (`Guarded`).
const BLOCK_BOUNDED: [&str; 2] = [".recv_timeout(", ".wait_timeout("];

/// Error-construction markers: any of these in a statement makes that
/// statement's allocations cold.
const COLD_MARKERS: [&str; 4] = ["Err(", ".map_err(", ".ok_or(", ".ok_or_else("];

/// Byte position of the first error-construction marker on a line,
/// if any. Allocations (and calls) positioned *after* the marker are
/// cold: they happen while building an error that ends the request.
/// Anything before it — e.g. the hot call in
/// `self.run(…).map_err(|e| e.to_string())` — stays hot.
pub fn first_cold_marker(code: &str) -> Option<usize> {
    COLD_MARKERS.iter().filter_map(|m| token_positions(code, m).first().copied()).min()
}

/// True when a statement contains an error-construction marker.
pub fn is_cold_statement(stmt_code: &str) -> bool {
    first_cold_marker(stmt_code).is_some()
}

/// Byte columns (0-based) of index expressions in `code`: a `[`
/// immediately following an identifier, `]` or `)` — `xs[i]`,
/// `blocks[idx].len`, `row(r)[0]` — but not array literals
/// (`[0.0; n]`) or `vec![`.
fn index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (pos, &b) in bytes.iter().enumerate() {
        if b == b'[' && pos > 0 {
            let prev = bytes[pos - 1];
            if (is_ident_byte(prev) || prev == b']' || prev == b')') && prev != b'!' {
                out.push(pos);
            }
        }
    }
    out
}

/// Detect every fact site on one (comment- and string-stripped) code
/// line. `cold_from` is the `(line, byte-col)` of the enclosing
/// statement's first error-construction marker, if any: alloc sites
/// positioned strictly after it are demoted to `Guarded`. Columns in
/// the output are 1-based.
pub fn detect_sites(code: &str, line_no: usize, cold_from: Option<(usize, usize)>) -> Vec<Site> {
    let mut out = Vec::new();
    let mut push = |fact: Fact, tier: Tier, col0: usize, token: &str| {
        out.push(Site {
            fact,
            tier,
            line: line_no,
            col: col0 + 1,
            token: token.to_string(),
            suppressed: false,
        });
    };
    for t in PANIC_MAY {
        for pos in token_positions(code, t) {
            push(Fact::Panic, Tier::May, pos, t);
        }
    }
    for t in PANIC_GUARDED {
        for pos in token_positions(code, t) {
            push(Fact::Panic, Tier::Guarded, pos, t);
        }
    }
    for pos in index_sites(code) {
        push(Fact::Panic, Tier::Guarded, pos, "[...]");
    }
    for t in ALLOC_TOKENS {
        for pos in token_positions(code, t) {
            let cold = cold_from.is_some_and(|cf| (line_no, pos) > cf);
            let tier = if cold { Tier::Guarded } else { Tier::May };
            push(Fact::Alloc, tier, pos, t);
        }
    }
    for t in BLOCK_MAY {
        for pos in token_positions(code, t) {
            push(Fact::Block, Tier::May, pos, t);
        }
    }
    for t in BLOCK_BOUNDED {
        for pos in token_positions(code, t) {
            push(Fact::Block, Tier::Guarded, pos, t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers(code: &str, fact: Fact, cold: bool) -> Vec<Tier> {
        let cold_from = if cold { first_cold_marker(code).map(|pos| (1, pos)) } else { None };
        detect_sites(code, 1, cold_from)
            .into_iter()
            .filter(|s| s.fact == fact)
            .map(|s| s.tier)
            .collect()
    }

    #[test]
    fn panic_family_splits_guarded_from_may() {
        assert_eq!(tiers("x.unwrap();", Fact::Panic, false), vec![Tier::May]);
        assert_eq!(tiers("debug_assert!(ok);", Fact::Panic, false), vec![Tier::Guarded]);
        // `assert!(` must not fire inside `debug_assert!(`.
        assert_eq!(tiers("assert!(ok);", Fact::Panic, false), vec![Tier::Guarded]);
        assert_eq!(tiers("let v = xs[i];", Fact::Panic, false), vec![Tier::Guarded]);
        // Array literals and vec! are not index expressions.
        assert!(tiers("let a = [0.0; 4];", Fact::Panic, false).is_empty());
        // Recovery combinators are not unwraps.
        assert!(tiers("l.lock().unwrap_or_else(PoisonError::into_inner);", Fact::Panic, false)
            .is_empty());
    }

    #[test]
    fn alloc_goes_cold_inside_error_construction() {
        assert_eq!(tiers("let s = format!(\"x\");", Fact::Alloc, false), vec![Tier::May]);
        let err_stmt = "return Err(Error::Bad(format!(\"x\")));";
        assert!(is_cold_statement(err_stmt));
        assert_eq!(tiers(err_stmt, Fact::Alloc, true), vec![Tier::Guarded]);
        // `MyErr(` is not `Err(`.
        assert!(!is_cold_statement("MyErr(format!(\"x\"))"));
        assert!(is_cold_statement(".ok_or_else(|| msg.to_string())"));
        // Tokens *before* the marker stay hot: only the error
        // construction itself is cold.
        assert_eq!(tiers("foo(format!(\"x\")).map_err(drop);", Fact::Alloc, true), vec![Tier::May]);
    }

    #[test]
    fn block_family_splits_bounded_from_may() {
        assert_eq!(tiers("let g = m.lock();", Fact::Block, false), vec![Tier::May]);
        assert_eq!(tiers("let x = rx.recv_timeout(d);", Fact::Block, false), vec![Tier::Guarded]);
        assert!(tiers("let x = rx.try_recv();", Fact::Block, false).is_empty());
    }
}
