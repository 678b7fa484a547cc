//! `ams-check` — the AMS static-analysis entrypoint.
//!
//! ```text
//! ams-check [--root DIR] [--format text|json]          lint the workspace
//! ams-check lint [PATHS...] [--format text|json]       lint specific files
//! ams-check conc [PATHS...] [--bench FILE]             lock-order analysis
//! ams-check plan FILE... [--format text|json]          audit JSON plan specs
//! ams-check audit [PATHS...] [--config FILE] [--bench FILE]
//!                                                      whole-program hot-path audit
//! ams-check taint [PATHS...] [--config FILE] [--bench FILE]
//!                                                      untrusted-input taint audit
//! ```
//!
//! `conc` with no paths analyzes the production sources of the
//! workspace under `--root` (the file set `taint` reads); with paths
//! it analyzes exactly those files.
//!
//! `audit` with no paths parses every workspace source under `--root`
//! and checks the hot-path roots declared in `<root>/audit.toml`
//! (override with `--config`); with paths it audits exactly those
//! files, and `--config` is required. `taint` works the same way
//! against `<root>/taint.toml` source/sink/sanitizer declarations.
//! `--bench FILE` merges wall-time and graph-size statistics of
//! `conc`, `audit` or `taint` into a JSONL file, one line per tool.
//!
//! Exit codes (stable, documented in README):
//!   0  clean, or warnings/infos only
//!   1  at least one error-severity diagnostic
//!   2  internal failure: bad arguments, unreadable file, invalid spec

use ams_analyze::conc::lockorder;
use ams_analyze::{audit, lint, plan_io, source, taint, Report};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ams-check [--root DIR] [--format text|json]
       ams-check lint [PATHS...] [--format text|json]
       ams-check conc [PATHS...] [--bench FILE] [--format text|json]
       ams-check plan FILE... [--format text|json]
       ams-check audit [PATHS...] [--config FILE] [--bench FILE] [--format text|json]
       ams-check taint [PATHS...] [--config FILE] [--bench FILE] [--format text|json]";

enum Format {
    Text,
    Json,
}

struct Cli {
    tool: Tool,
    /// Explicit inputs; empty means the workspace under `root`.
    paths: Vec<PathBuf>,
    format: Format,
    root: PathBuf,
    /// `--config`: audit.toml / taint.toml location.
    config: Option<PathBuf>,
    /// `--bench`: write wall-time / graph-size stats here.
    bench: Option<PathBuf>,
}

#[derive(Clone, Copy, PartialEq)]
enum Tool {
    Lint,
    Conc,
    Plan,
    Audit,
    Taint,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut bench: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return Err("--root expects a directory".to_string()),
            },
            "--config" => match it.next() {
                Some(file) => config = Some(PathBuf::from(file)),
                None => return Err("--config expects a file".to_string()),
            },
            "--bench" => match it.next() {
                Some(file) => bench = Some(PathBuf::from(file)),
                None => return Err("--bench expects a file".to_string()),
            },
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => positional.push(other.to_string()),
        }
    }
    let (cmd, rest) = positional.split_first().map_or(("lint", &[][..]), |(c, r)| (c.as_str(), r));
    let tool = match cmd {
        "lint" => Tool::Lint,
        "conc" => Tool::Conc,
        "plan" => Tool::Plan,
        "audit" => Tool::Audit,
        "taint" => Tool::Taint,
        other => return Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    let paths: Vec<PathBuf> = rest.iter().map(PathBuf::from).collect();
    let configurable = matches!(tool, Tool::Audit | Tool::Taint);
    if tool == Tool::Plan && paths.is_empty() {
        return Err("plan: expected at least one FILE".to_string());
    }
    if config.is_some() && !configurable {
        return Err("--config only applies to the `audit`/`taint` subcommands".to_string());
    }
    if bench.is_some() && !configurable && tool != Tool::Conc {
        return Err("--bench only applies to the `conc`/`audit`/`taint` subcommands".to_string());
    }
    if config.is_none() && configurable && !paths.is_empty() {
        return Err(format!("{cmd} with explicit paths needs --config FILE"));
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    Ok(Cli { tool, paths, format, root, config, bench })
}

/// The `--config` file, defaulting to `<root>/<default>`.
fn config_path(cli: &Cli, default: &str) -> PathBuf {
    cli.config.clone().unwrap_or_else(|| cli.root.join(default))
}

/// Read the `--config` file for an explicit-paths run.
fn read_config(cli: &Cli, default: &str) -> Result<String, String> {
    let config = config_path(cli, default);
    std::fs::read_to_string(&config).map_err(|e| format!("cannot read {}: {e}", config.display()))
}

/// Merge one tool's stats line — wall time since `started`, then
/// `counts` — into the `--bench` JSONL file, preserving the other
/// tools' lines (conc, audit and taint share `results/BENCH_check.json`).
fn record(cli: &Cli, tool: &str, started: Instant, counts: &[(&str, usize)]) -> Result<(), String> {
    let Some(bench) = &cli.bench else { return Ok(()) };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut fields = vec![
        ("tool".to_string(), Value::String(tool.to_string())),
        ("wall_ms".to_string(), Value::Number((wall_ms * 1e3).round() / 1e3)),
    ];
    fields.extend(counts.iter().map(|&(k, v)| (k.to_string(), Value::Number(v as f64))));
    let rendered =
        serde_json::to_string(&Value::Object(fields)).map_err(|e| format!("bench JSON: {e:?}"))?;
    let marker = format!("\"tool\":\"{tool}\"");
    let mut lines: Vec<String> = match std::fs::read_to_string(bench) {
        Ok(text) => text.lines().filter(|l| !l.contains(&marker)).map(String::from).collect(),
        Err(_) => Vec::new(),
    };
    lines.push(rendered);
    std::fs::write(bench, lines.join("\n") + "\n")
        .map_err(|e| format!("cannot write {}: {e}", bench.display()))
}

fn run(cli: &Cli) -> Result<Report, String> {
    let mut report = Report::new();
    let workspace = cli.paths.is_empty();
    let started = Instant::now();
    match cli.tool {
        Tool::Lint if workspace => report.extend(lint::lint_workspace(&cli.root)?),
        Tool::Lint => {
            for (label, content) in source::load(&cli.root, &cli.paths)? {
                report.extend(lint::lint_source(&label, &content));
            }
        }
        Tool::Plan => {
            for file in &cli.paths {
                let json = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
                let audit =
                    plan_io::parse_audit(&json).map_err(|e| format!("{}: {e}", file.display()))?;
                report.extend(ams_analyze::analyze(&audit).diagnostics);
            }
        }
        Tool::Conc => {
            let (diags, stats) = if workspace {
                lockorder::check_workspace(&cli.root)?
            } else {
                lockorder::analyze(&source::load(&cli.root, &cli.paths)?)
            };
            report.extend(diags);
            let counts = [
                ("files", stats.files),
                ("functions", stats.functions),
                ("acquisitions", stats.acquisitions),
                ("edges", stats.edges),
            ];
            record(cli, "ams-check conc", started, &counts)?;
        }
        Tool::Audit => {
            let (audited, stats) = if workspace {
                audit::audit_workspace(&cli.root, &config_path(cli, "audit.toml"))?
            } else {
                let roots = audit::config::parse(&read_config(cli, "audit.toml")?)?;
                audit::audit_sources(&source::load(&cli.root, &cli.paths)?, &roots)
            };
            report = audited;
            let counts = [
                ("files", stats.files),
                ("functions", stats.functions),
                ("edges", stats.edges),
                ("roots", stats.roots),
                ("violations", stats.violations),
            ];
            record(cli, "ams-check audit", started, &counts)?;
        }
        Tool::Taint => {
            let (tainted, stats) = if workspace {
                taint::taint_workspace(&cli.root, &config_path(cli, "taint.toml"))?
            } else {
                let cfg = taint::config::parse(&read_config(cli, "taint.toml")?)?;
                taint::taint_sources(&source::load(&cli.root, &cli.paths)?, &cfg)
            };
            report = tainted;
            let counts = [
                ("files", stats.files),
                ("functions", stats.functions),
                ("edges", stats.edges),
                ("sources", stats.sources),
                ("violations", stats.violations),
            ];
            record(cli, "ams-check taint", started, &counts)?;
        }
    }
    report.sort();
    Ok(report)
}

fn emit(report: &Report, format: &Format, checked: &str) {
    match format {
        Format::Text => {
            print!("{}", report.render_text());
            println!("checked: {checked}");
        }
        Format::Json => match serde_json::to_string(&report.to_json()) {
            Ok(s) => println!("{s}"),
            Err(e) => eprintln!("ams-check: JSON rendering failed: {e:?}"),
        },
    }
}

fn describe(cli: &Cli) -> String {
    let (of, files) = match cli.tool {
        Tool::Lint => ("", ""),
        Tool::Conc => ("lock-order of ", " (lock-order)"),
        Tool::Plan => return format!("{} plan spec(s)", cli.paths.len()),
        Tool::Audit => ("hot-path audit of ", " (hot-path audit)"),
        Tool::Taint => ("taint audit of ", " (taint audit)"),
    };
    if cli.paths.is_empty() {
        format!("{of}workspace at {}", cli.root.display())
    } else {
        format!("{} file(s){files}", cli.paths.len())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("ams-check: {msg}");
            return ExitCode::from(2);
        }
    };
    // Sanity-check the root early so a typo'd --root is a clean 2.
    if cli.paths.is_empty() && !Path::new(&cli.root).is_dir() {
        eprintln!("ams-check: --root {} is not a directory", cli.root.display());
        return ExitCode::from(2);
    }
    match run(&cli) {
        Ok(report) => {
            emit(&report, &cli.format, &describe(&cli));
            if report.has_errors() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("ams-check: {msg}");
            ExitCode::from(2)
        }
    }
}
