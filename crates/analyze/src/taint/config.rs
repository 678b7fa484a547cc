//! `taint.toml` — declared sources, sinks and sanitizers.
//!
//! The same deliberately small TOML subset as `audit.toml`
//! ([`crate::audit::config`]): array-of-tables headers, `key =
//! "string"`, single-line string arrays, `#` comments. Example:
//!
//! ```toml
//! [[source]]
//! name = "socket-line"
//! token = ".read_line("
//! kind = "call"                 # the call's result and &mut args are tainted
//! scope = ["crates/serve/src/"] # only these paths introduce taint
//!
//! [[sink]]
//! rule = "tainted-alloc"
//! token = "Vec::with_capacity("
//! kind = "call"                 # the parenthesized argument is the size
//!
//! [[sanitizer]]
//! token = ".min("
//!
//! [[sanitizer]]
//! token = ".len()"
//! soft = true                   # caps its own statement, kills nothing else
//!
//! [limits]
//! names = ["MAX_", "file_len", "data_len"]
//! ```
//!
//! * A `source` marks where untrusted bytes enter. `kind = "call"`
//!   taints the call's result and every `&mut` argument; `kind =
//!   "expr"` taints any statement product mentioning the token — the
//!   escape hatch for data the scanner cannot track through struct
//!   fields (e.g. a parsed file skeleton re-declared tainted at use).
//! * A `sink` is an operation whose *size or index operand* must not
//!   be fully tainted. `kind` selects how the operand is extracted:
//!   `call` (parenthesized args), `vec-macro` (the `; n]` length of
//!   `vec![x; n]`), `index` (the bracketed expression after the
//!   token).
//! * A `sanitizer` token anywhere in a statement demotes the taint
//!   of that statement's products and of everything positioned after
//!   it to `Bounded`, and — for *hard* sanitizers — persistently
//!   demotes every identifier the statement mentions (the guard
//!   shape: `if n > MAX { … }`). A `soft = true` sanitizer caps only
//!   its own statement: `.len()` of a materialized container is a
//!   memory-proportionate size (the data already exists), but its
//!   presence must not launder the container's *contents*.
//!   Comparisons against a name from `[limits]` — or against a
//!   `.len()` — sanitize like a hard token.

use crate::audit::config::{parse_array, unquote};
use std::fmt;

/// How a source introduces taint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// A call: its result and `&mut` arguments become tainted.
    Call,
    /// Any expression mentioning the token is tainted data.
    Expr,
}

/// How a sink's guarded operand is extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// The parenthesized argument list after the token.
    Call,
    /// The `; n]` length operand of `vec![x; n]`.
    VecMacro,
    /// The bracketed index expression after the token.
    Index,
}

/// One declared taint source.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    pub name: String,
    pub token: String,
    pub kind: SourceKind,
    /// Path substrings this source applies to; empty = everywhere.
    pub scope: Vec<String>,
}

impl SourceSpec {
    /// Does this source introduce taint in `file`?
    pub fn in_scope(&self, file: &str) -> bool {
        self.scope.is_empty() || self.scope.iter().any(|s| file.contains(s.as_str()))
    }
}

/// One declared taint sink.
#[derive(Debug, Clone)]
pub struct SinkSpec {
    /// Stable kebab-case rule id (`tainted-alloc`, `tainted-index`, …).
    pub rule: String,
    pub token: String,
    pub kind: SinkKind,
    /// Display label for witness chains (derived from the token when
    /// not set explicitly).
    pub label: String,
}

/// The parsed `taint.toml`.
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    pub sources: Vec<SourceSpec>,
    pub sinks: Vec<SinkSpec>,
    /// Tokens whose presence in a statement kills taint to `Bounded`
    /// (and persistently demotes the identifiers it mentions).
    pub sanitizers: Vec<String>,
    /// Tokens that cap only their own statement's products and
    /// operands, without demoting other identifiers (`.len()`).
    pub soft_sanitizers: Vec<String>,
    /// Identifier fragments that mark a comparison as a bound check.
    pub limits: Vec<String>,
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SourceKind::Call => "call",
            SourceKind::Expr => "expr",
        })
    }
}

/// `.read_line(` → `read_line`, `vec![` → `vec![..]`: a readable chain
/// label derived from a token.
fn derive_label(token: &str) -> String {
    let t = token.trim_start_matches('.');
    if let Some(head) = t.strip_suffix("![") {
        return format!("{head}![..]");
    }
    t.trim_end_matches(['(', '[']).to_string()
}

/// Which table a key-value line belongs to.
enum Section {
    Source,
    Sink,
    Sanitizer,
    Limits,
}

/// Parse the full config text. Errors carry the 1-based line number.
pub fn parse(text: &str) -> Result<TaintConfig, String> {
    let mut cfg = TaintConfig::default();
    let mut sanitizers: Vec<(String, bool, usize)> = Vec::new();
    let mut section: Option<Section> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            // Comments never follow an odd number of quotes in this
            // config's values; the same guard as audit.toml.
            Some(p) if raw[..p].matches('"').count() % 2 == 0 => &raw[..p],
            _ => raw,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "[[source]]" => {
                cfg.sources.push(SourceSpec {
                    name: String::new(),
                    token: String::new(),
                    kind: SourceKind::Call,
                    scope: Vec::new(),
                });
                section = Some(Section::Source);
                continue;
            }
            "[[sink]]" => {
                cfg.sinks.push(SinkSpec {
                    rule: String::new(),
                    token: String::new(),
                    kind: SinkKind::Call,
                    label: String::new(),
                });
                section = Some(Section::Sink);
                continue;
            }
            "[[sanitizer]]" => {
                sanitizers.push((String::new(), false, line_no));
                section = Some(Section::Sanitizer);
                continue;
            }
            "[limits]" => {
                section = Some(Section::Limits);
                continue;
            }
            _ => {}
        }
        if line.starts_with('[') {
            return Err(format!("taint.toml:{line_no}: unknown table `{line}`"));
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("taint.toml:{line_no}: expected `key = value`"))?;
        let (key, value) = (line[..eq].trim(), &line[eq + 1..]);
        let at = |e: String| format!("taint.toml:{line_no}: {e}");
        match section {
            Some(Section::Source) => {
                let src = cfg.sources.last_mut().expect("section implies an entry");
                match key {
                    "name" => src.name = unquote(value).map_err(at)?,
                    "token" => src.token = unquote(value).map_err(at)?,
                    "kind" => {
                        src.kind = match unquote(value).map_err(at)?.as_str() {
                            "call" => SourceKind::Call,
                            "expr" => SourceKind::Expr,
                            other => {
                                return Err(format!(
                                    "taint.toml:{line_no}: unknown source kind `{other}` \
                                     (expected call/expr)"
                                ))
                            }
                        }
                    }
                    "scope" => src.scope = parse_array(value).map_err(at)?,
                    _ => {
                        return Err(format!("taint.toml:{line_no}: unknown source key `{key}`"));
                    }
                }
            }
            Some(Section::Sink) => {
                let sink = cfg.sinks.last_mut().expect("section implies an entry");
                match key {
                    "rule" => sink.rule = unquote(value).map_err(at)?,
                    "token" => sink.token = unquote(value).map_err(at)?,
                    "label" => sink.label = unquote(value).map_err(at)?,
                    "kind" => {
                        sink.kind = match unquote(value).map_err(at)?.as_str() {
                            "call" => SinkKind::Call,
                            "vec-macro" => SinkKind::VecMacro,
                            "index" => SinkKind::Index,
                            other => {
                                return Err(format!(
                                    "taint.toml:{line_no}: unknown sink kind `{other}` \
                                     (expected call/vec-macro/index)"
                                ))
                            }
                        }
                    }
                    _ => return Err(format!("taint.toml:{line_no}: unknown sink key `{key}`")),
                }
            }
            Some(Section::Sanitizer) => {
                let san = sanitizers.last_mut().expect("section implies an entry");
                match key {
                    "token" => san.0 = unquote(value).map_err(at)?,
                    "soft" => {
                        san.1 = match value.trim() {
                            "true" => true,
                            "false" => false,
                            other => {
                                return Err(format!(
                                    "taint.toml:{line_no}: `soft` expects true/false, got `{other}`"
                                ))
                            }
                        }
                    }
                    _ => {
                        return Err(format!("taint.toml:{line_no}: unknown sanitizer key `{key}`"));
                    }
                }
            }
            Some(Section::Limits) => match key {
                "names" => cfg.limits = parse_array(value).map_err(at)?,
                _ => return Err(format!("taint.toml:{line_no}: unknown limits key `{key}`")),
            },
            None => {
                return Err(format!("taint.toml:{line_no}: `{key}` before any table header"));
            }
        }
    }
    for (i, s) in cfg.sources.iter().enumerate() {
        if s.name.is_empty() {
            return Err(format!("taint.toml: source #{} is missing `name`", i + 1));
        }
        if s.token.is_empty() {
            return Err(format!("taint.toml: source `{}` is missing `token`", s.name));
        }
    }
    for (i, s) in cfg.sinks.iter_mut().enumerate() {
        if s.rule.is_empty() {
            return Err(format!("taint.toml: sink #{} is missing `rule`", i + 1));
        }
        if s.token.is_empty() {
            return Err(format!("taint.toml: sink `{}` is missing `token`", s.rule));
        }
        if s.label.is_empty() {
            s.label = derive_label(&s.token);
        }
    }
    for (token, soft, line_no) in sanitizers {
        if token.is_empty() {
            return Err(format!("taint.toml:{line_no}: sanitizer is missing `token`"));
        }
        if soft {
            cfg.soft_sanitizers.push(token);
        } else {
            cfg.sanitizers.push(token);
        }
    }
    if cfg.sources.is_empty() {
        return Err("taint.toml: no [[source]] declared — nothing to track".to_string());
    }
    if cfg.sinks.is_empty() {
        return Err("taint.toml: no [[sink]] declared — nothing to gate".to_string());
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_round_trips() {
        let text = "# attack surface\n\
                    [[source]]\n\
                    name = \"socket-line\"\n\
                    token = \".read_line(\"\n\
                    kind = \"call\"\n\
                    scope = [\"crates/serve/src/\", \"crates/cluster/src/\"]\n\
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
                    [[sanitizer]]\n\
                    token = \".min(\"\n\
                    \n\
                    [[sanitizer]]\n\
                    token = \".len()\"\n\
                    soft = true\n\
                    \n\
                    [limits]\n\
                    names = [\"MAX_\", \"file_len\"]\n";
        let cfg = parse(text).unwrap();
        assert_eq!(cfg.sources.len(), 2);
        assert_eq!(cfg.sources[0].kind, SourceKind::Call);
        assert!(cfg.sources[0].in_scope("crates/serve/src/server.rs"));
        assert!(!cfg.sources[0].in_scope("crates/core/src/ams.rs"));
        assert_eq!(cfg.sources[1].kind, SourceKind::Expr);
        assert!(cfg.sources[1].in_scope("anywhere.rs"));
        assert_eq!(cfg.sinks[0].label, "Vec::with_capacity");
        assert_eq!(cfg.sinks[1].kind, SinkKind::VecMacro);
        assert_eq!(cfg.sinks[1].label, "vec![..]");
        assert_eq!(cfg.sanitizers, vec![".min(".to_string()]);
        assert_eq!(cfg.soft_sanitizers, vec![".len()".to_string()]);
        assert_eq!(cfg.limits.len(), 2);
    }

    #[test]
    fn bad_configs_are_rejected_with_line_numbers() {
        assert!(parse("name = \"x\"\n").unwrap_err().contains("before any table"));
        let e = parse("[[source]]\nname = \"s\"\ntoken = \"t(\"\nkind = \"magic\"\n").unwrap_err();
        assert!(e.contains("unknown source kind"), "{e}");
        let e = parse("[[source]]\ntoken = \"t(\"\n").unwrap_err();
        assert!(e.contains("missing `name`"), "{e}");
        let e = parse("[[source]]\nname = \"s\"\ntoken = \"t(\"\n").unwrap_err();
        assert!(e.contains("no [[sink]]"), "{e}");
        let e = parse("[bogus]\n").unwrap_err();
        assert!(e.contains("unknown table"), "{e}");
    }
}
