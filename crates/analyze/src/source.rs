//! Shared source front end of the four source passes (lint, lock-order,
//! audit, taint): the workspace walk, the `(label, content)` loader,
//! the line cleaner and the suppression-mark parser.
//!
//! Scanner contract: a pass never matches tokens against raw text. It
//! matches against [`Line::code`], where string and char literal
//! contents are blanked (quotes kept, byte length preserved, so columns
//! stay valid) and the `//` comment is cut. Literals are blanked
//! *before* the comment is found, so a `"http://…"` literal neither
//! hides the rest of its line nor passes for a comment, and a literal
//! may span lines. Suppressions live only in real comments:
//!
//! ```text
//! // ams-<tool>: allow(rule, …)[: justification]
//! ```
//!
//! `lint` marks (read by the lint and lock-order passes) may omit the
//! justification; the audit and taint passes require one after `):`.

use std::fs;
use std::path::{Path, PathBuf};

/// One source line, cleaned for token matching.
#[derive(Debug, Clone)]
pub struct Line<'a> {
    /// 1-based line number.
    pub no: usize,
    /// The line as written.
    pub raw: &'a str,
    /// `raw` up to its `//` comment, with literal contents blanked.
    pub code: String,
}

/// One `// ams-<tool>: allow(rule, …)[: justification]` mark.
#[derive(Debug, Clone)]
pub struct Mark {
    /// `lint`, `audit`, `taint`, …
    pub tool: String,
    pub rules: Vec<String>,
    /// A non-empty justification followed `):`.
    pub justified: bool,
    pub line: usize,
    /// 1-based column of the `ams-` tag.
    pub col: usize,
}

impl Line<'_> {
    /// The `//` comment that ends the line (empty when there is none).
    pub fn comment(&self) -> &str {
        self.raw.get(self.code.len()..).unwrap_or("")
    }

    /// The suppression mark in this line's comment, if any.
    pub fn mark(&self) -> Option<Mark> {
        let comment = self.comment();
        let at = comment.find("// ams-")?;
        let (tool, rest) = comment[at + "// ams-".len()..].split_once(": allow(")?;
        if tool.is_empty() || !tool.bytes().all(|b| b.is_ascii_lowercase()) {
            return None;
        }
        let (list, tail) = rest.split_once(')')?;
        let rules =
            list.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
        let justified = tail.trim_start().strip_prefix(':').is_some_and(|j| !j.trim().is_empty());
        Some(Mark {
            tool: tool.to_string(),
            rules,
            justified,
            line: self.no,
            col: self.code.len() + at + "// ".len() + 1,
        })
    }
}

/// `[A-Za-z0-9_]`.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// [`is_ident_char`] on a byte.
pub fn is_ident_byte(b: u8) -> bool {
    is_ident_char(b as char)
}

/// The identifier that starts `s` (empty if none).
pub fn ident(s: &str) -> &str {
    &s[..s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len())]
}

/// Every occurrence of `token` in `text`, with an identifier-boundary
/// check on the left when the token starts with an identifier byte.
pub fn token_positions(text: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(token) {
        let pos = from + rel;
        let boundary = !token.starts_with(|c: char| is_ident_byte(c as u8))
            || pos == 0
            || !is_ident_byte(text.as_bytes()[pos - 1]);
        if boundary {
            out.push(pos);
        }
        from = pos + token.len().max(1);
    }
    out
}

/// Content of the balanced `(`/`[` group opening at `open` (which
/// must point at the opening delimiter). Returns the inner byte range.
pub fn balanced(text: &str, open: usize) -> Option<(usize, usize)> {
    let bytes = text.as_bytes();
    let (inc, dec) = match bytes.get(open) {
        Some(b'(') => (b'(', b')'),
        Some(b'[') => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == inc {
            depth += 1;
        } else if b == dec {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, i));
            }
        }
    }
    None
}

/// Split `text` on top-level commas (depth 0 over `(<[`).
pub fn split_args(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b',' if depth <= 0 => {
                out.push((start, text[start..i].trim()));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < text.len() {
        out.push((start, text[start..].trim()));
    }
    out.retain(|(_, a)| !a.is_empty());
    out
}

/// An open string literal carried across lines: `None` for a plain
/// (escaping) string, `Some(n)` for a raw string closed by `"` + n `#`.
type OpenString = Option<usize>;

/// Clean `content` into [`Line`]s. Raw strings (`r"…"`, `br#"…"#`)
/// close only on their own delimiter; a `'` that does not close a
/// one-char literal is a lifetime and is kept.
pub fn clean(content: &str) -> Vec<Line<'_>> {
    let mut open: Option<OpenString> = None;
    let mut out = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        let bytes = raw.as_bytes();
        let mut code = bytes.to_vec();
        let mut cut = bytes.len();
        let mut i = 0;
        while i < bytes.len() {
            if let Some(hashes) = open {
                let end = string_end(bytes, i, hashes);
                code[i..end.unwrap_or(bytes.len())].fill(b' ');
                match end {
                    Some(e) => {
                        open = None;
                        i = e + 1 + hashes.unwrap_or(0);
                    }
                    None => break,
                }
                continue;
            }
            match bytes[i] {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    cut = i;
                    break;
                }
                b'"' => {
                    open = Some(None);
                    i += 1;
                }
                b'r' if raw_string_prefix(bytes, i) => {
                    let hashes = bytes[i + 1..].iter().take_while(|&&b| b == b'#').count();
                    open = Some(Some(hashes));
                    i += hashes + 2;
                }
                b'\'' => match char_literal_end(raw, i) {
                    Some(end) => {
                        code[i + 1..end].fill(b' ');
                        i = end + 1;
                    }
                    None => i += 1,
                },
                _ => i += 1,
            }
        }
        code.truncate(cut);
        // Blanking replaces whole characters, so this never substitutes.
        let code = String::from_utf8_lossy(&code).into_owned();
        out.push(Line { no: idx + 1, raw, code });
    }
    out
}

/// Index of the closing `"` of a string literal whose contents start at
/// `from`, if it closes on this line.
fn string_end(bytes: &[u8], from: usize, hashes: Option<usize>) -> Option<usize> {
    let mut i = from;
    while i < bytes.len() {
        match (bytes[i], hashes) {
            (b'\\', None) => i += 2,
            (b'"', None) => return Some(i),
            (b'"', Some(n))
                if bytes[i + 1..].iter().take(n).filter(|&&b| b == b'#').count() == n =>
            {
                return Some(i)
            }
            _ => i += 1,
        }
    }
    None
}

/// `r"`, `r#"`, `br"` … starting at the `r` in byte `i`.
fn raw_string_prefix(bytes: &[u8], i: usize) -> bool {
    let standalone = |j: usize| j == 0 || !is_ident_byte(bytes[j - 1]);
    let prefix_ok = standalone(i) || (i > 0 && bytes[i - 1] == b'b' && standalone(i - 1));
    prefix_ok && bytes[i + 1..].iter().find(|&&b| b != b'#') == Some(&b'"')
}

/// Index of the closing `'` of a char literal opening at byte `i`.
fn char_literal_end(raw: &str, i: usize) -> Option<usize> {
    let rest = &raw[i + 1..];
    if rest.starts_with('\\') {
        // `'\n'`, `'\''`, `'\u{1F600}'`: the first `'` after the escape.
        return rest.get(2..)?.find('\'').map(|p| i + 3 + p).filter(|&e| e - i <= 11);
    }
    let c = rest.chars().next()?;
    rest[c.len_utf8()..].starts_with('\'').then_some(i + 1 + c.len_utf8())
}

/// Read `paths` into `(label, content)` pairs. A label is the path
/// relative to `root` when the file sits under it, the path as given
/// otherwise.
pub fn load(root: &Path, paths: &[PathBuf]) -> Result<Vec<(String, String)>, String> {
    paths
        .iter()
        .map(|path| {
            let content = fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let label =
                path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
            Ok((label, content))
        })
        .collect()
}

/// Directories never descended into when walking a workspace.
const SKIP_DIRS: [&str; 6] = ["target", "vendor", ".git", "fixtures", "results", "node_modules"];

/// A directory whose `Cargo.toml` declares a `[workspace]` of its own
/// is a separate cargo workspace, not part of the one being walked.
fn own_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|m| m.lines().any(|l| l.trim_start().starts_with("[workspace")))
}

/// Every `.rs` file of the workspace at `root`, skipping build output,
/// vendored deps, fixture trees and nested cargo workspaces. Sorted for
/// deterministic output.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !own_workspace(&path) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The shipped subset of [`workspace_sources`]: integration tests and
/// benches forge inputs on purpose (corruption fixtures, synthetic
/// loads) and none of their code ships.
pub fn production_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = workspace_sources(root)?;
    paths.retain(|p| {
        let s = p.to_string_lossy().replace('\\', "/");
        !s.contains("/tests/") && !s.contains("/benches/")
    });
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        clean(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn literals_are_blanked_before_the_comment_is_cut() {
        let src = "let u = \"http://x\"; f(u).unwrap(); // trailing\n";
        let code = &code_of(src)[0];
        assert_eq!(code, "let u = \"        \"; f(u).unwrap(); ");
        assert_eq!(clean(src)[0].comment(), "// trailing");
    }

    #[test]
    fn chars_lifetimes_and_raw_strings() {
        let code = code_of("f('\"', '\\'', x: &'a str, '—'); g(r#\"a\"b//\"#, br\"c\");\n");
        assert_eq!(code[0], "f(' ', '  ', x: &'a str, '   '); g(r#\"     \"#, br\" \");");
    }

    #[test]
    fn literals_span_lines() {
        let src = "let s = \"one \\\n    // ams-lint: allow(x)\n    two\";\nx.unwrap();\n";
        let lines = clean(src);
        assert_eq!(lines[1].code.trim(), "");
        assert!(lines[1].mark().is_none());
        assert_eq!(lines[2].code, "       \";");
        assert_eq!(lines[3].code, "x.unwrap();");
    }

    #[test]
    fn mark_grammar() {
        let mark = |src: &str| clean(src)[0].mark();
        let m = mark("x(); // ams-audit: allow(alloc, panic): warm-up only\n").unwrap();
        assert_eq!((m.tool.as_str(), m.rules.len(), m.justified, m.col), ("audit", 2, true, 9));
        assert!(!mark("// ams-taint: allow(tainted-alloc)\n").unwrap().justified);
        assert!(!mark("// ams-lint: allow(a) — no colon\n").unwrap().justified);
        assert!(mark("/// the `ams-audit: allow(fact)` grammar\n").is_none());
        assert!(mark("\"// ams-lint: allow(a)\"\n").is_none());
    }

    #[test]
    fn nested_cargo_workspaces_are_not_walked() {
        let root = std::env::temp_dir().join(format!("ams-walk-{}", std::process::id()));
        let nested = root.join("bench");
        fs::create_dir_all(root.join("crates/a/src")).unwrap();
        fs::create_dir_all(nested.join("src")).unwrap();
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/a\"]\n").unwrap();
        fs::write(root.join("crates/a/Cargo.toml"), "[package]\nname = \"a\"\n").unwrap();
        fs::write(root.join("crates/a/src/lib.rs"), "").unwrap();
        fs::write(nested.join("Cargo.toml"), "[package]\nname = \"b\"\n\n[workspace]\n").unwrap();
        fs::write(nested.join("src/main.rs"), "").unwrap();
        let files = workspace_sources(&root).unwrap();
        fs::remove_dir_all(&root).ok();
        assert_eq!(files, vec![root.join("crates/a/src/lib.rs")]);
    }

    #[test]
    fn workspace_walker_skips_fixture_and_vendor_trees() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = workspace_sources(root).unwrap();
        assert!(!files.is_empty());
        assert!(files.iter().all(|p| {
            let s = p.to_string_lossy().replace('\\', "/");
            !s.contains("/fixtures/") && !s.contains("/target/")
        }));
    }
}
