//! `audit.toml` — declared hot-path roots.
//!
//! A deliberately small TOML subset, hand-parsed so the analyzer
//! stays dependency-free: `[[root]]` array-of-tables, `key = "string"`
//! and single-line `key = ["a", "b"]` arrays, `#` comments. Example:
//!
//! ```toml
//! [[root]]
//! name = "serve-hot-path"
//! function = "Engine::predict_batch_with"
//! file = "crates/serve/src/engine.rs"
//! deny = ["panic", "alloc"]
//! bind = ["Backend = Seq"]
//! ```
//!
//! * `function` — `Type::method` or a free `fn` name; must exist in
//!   the parsed workspace (a missing root is an error, not a silent
//!   pass).
//! * `file` — optional suffix match pinning the root to one file,
//!   for duplicate names.
//! * `deny` — facts gated at `May` for this root: any subset of
//!   `panic` / `alloc` / `block`.
//! * `bind` — `"Trait = Type"` devirtualizations applied to dispatch
//!   edges while propagating for this root.

use super::facts::Fact;
use std::collections::BTreeMap;

/// One declared root from `audit.toml`.
#[derive(Debug, Clone)]
pub struct RootSpec {
    pub name: String,
    /// `Type::method` or free-fn name.
    pub function: String,
    /// Optional file-suffix pin.
    pub file: Option<String>,
    pub deny: Vec<Fact>,
    /// Trait → concrete implementor.
    pub bind: BTreeMap<String, String>,
}

/// A `"…"` value of the TOML subset `audit.toml` and `taint.toml` share.
pub(crate) fn unquote(s: &str) -> Result<String, String> {
    let t = s.trim();
    if t.len() >= 2 && t.starts_with('"') && t.ends_with('"') {
        Ok(t[1..t.len() - 1].to_string())
    } else {
        Err(format!("expected a quoted string, got `{t}`"))
    }
}

/// A single-line `["…", …]` array of the same subset.
pub(crate) fn parse_array(s: &str) -> Result<Vec<String>, String> {
    let t = s.trim();
    let inner = t
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("expected a single-line [\"…\"] array, got `{t}`"))?;
    inner.split(',').map(str::trim).filter(|p| !p.is_empty()).map(unquote).collect()
}

/// Parse the full config text. Errors carry the 1-based line number.
pub fn parse(text: &str) -> Result<Vec<RootSpec>, String> {
    let mut roots: Vec<RootSpec> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            // Only strip comments outside quotes; the config values
            // here never contain `#`, so a simple guard suffices.
            Some(p) if !raw[..p].contains('"') || raw[..p].matches('"').count() % 2 == 0 => {
                &raw[..p]
            }
            _ => raw,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[root]]" {
            roots.push(RootSpec {
                name: String::new(),
                function: String::new(),
                file: None,
                deny: Vec::new(),
                bind: BTreeMap::new(),
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("audit.toml:{line_no}: unknown table `{line}`"));
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("audit.toml:{line_no}: expected `key = value`"))?;
        let (key, value) = (line[..eq].trim(), &line[eq + 1..]);
        let root = roots
            .last_mut()
            .ok_or_else(|| format!("audit.toml:{line_no}: `{key}` before any [[root]]"))?;
        let at = |e: String| format!("audit.toml:{line_no}: {e}");
        match key {
            "name" => root.name = unquote(value).map_err(at)?,
            "function" => root.function = unquote(value).map_err(at)?,
            "file" => root.file = Some(unquote(value).map_err(at)?),
            "deny" => {
                for f in parse_array(value).map_err(at)? {
                    let fact = Fact::parse(&f).ok_or_else(|| {
                        format!(
                            "audit.toml:{line_no}: unknown fact `{f}` (expected panic/alloc/block)"
                        )
                    })?;
                    root.deny.push(fact);
                }
            }
            "bind" => {
                for b in parse_array(value).map_err(at)? {
                    let (tr, ty) = b.split_once('=').ok_or_else(|| {
                        format!("audit.toml:{line_no}: bind entries are `Trait = Type`, got `{b}`")
                    })?;
                    root.bind.insert(tr.trim().to_string(), ty.trim().to_string());
                }
            }
            _ => return Err(format!("audit.toml:{line_no}: unknown key `{key}`")),
        }
    }
    for (i, r) in roots.iter().enumerate() {
        if r.name.is_empty() {
            return Err(format!("audit.toml: root #{} is missing `name`", i + 1));
        }
        if r.function.is_empty() {
            return Err(format!("audit.toml: root `{}` is missing `function`", r.name));
        }
        if r.deny.is_empty() {
            return Err(format!("audit.toml: root `{}` denies nothing — add `deny`", r.name));
        }
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_root_round_trips() {
        let text = "# hot paths\n\
                    [[root]]\n\
                    name = \"serve-hot-path\"  # the big one\n\
                    function = \"Engine::predict_batch_with\"\n\
                    file = \"crates/serve/src/engine.rs\"\n\
                    deny = [\"panic\", \"alloc\"]\n\
                    bind = [\"Backend = Seq\"]\n\
                    \n\
                    [[root]]\n\
                    name = \"kernels\"\n\
                    function = \"matmul\"\n\
                    deny = [\"block\"]\n";
        let roots = parse(text).unwrap();
        assert_eq!(roots.len(), 2);
        let r = &roots[0];
        assert_eq!(r.name, "serve-hot-path");
        assert_eq!(r.function, "Engine::predict_batch_with");
        assert_eq!(r.file.as_deref(), Some("crates/serve/src/engine.rs"));
        assert_eq!(r.deny, vec![Fact::Panic, Fact::Alloc]);
        assert_eq!(r.bind.get("Backend").map(String::as_str), Some("Seq"));
        assert!(roots[1].file.is_none());
    }

    #[test]
    fn bad_configs_are_rejected_with_line_numbers() {
        assert!(parse("name = \"x\"\n").unwrap_err().contains("before any [[root]]"));
        let e = parse("[[root]]\nname = \"x\"\nfunction = \"f\"\ndeny = [\"segv\"]\n").unwrap_err();
        assert!(e.contains("unknown fact"), "{e}");
        let e = parse("[[root]]\nname = \"x\"\nfunction = \"f\"\n").unwrap_err();
        assert!(e.contains("denies nothing"), "{e}");
        let e = parse("[[root]]\nfunction = \"f\"\ndeny = [\"panic\"]\n").unwrap_err();
        assert!(e.contains("missing `name`"), "{e}");
    }
}
