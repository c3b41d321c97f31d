//! A small deterministic flag parser (no external dependencies).
//! Malformed numeric values come back as typed [`CliError`]s — the
//! parser never exits or panics on user input.

use crate::error::CliError;
use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional args, and `--key value`
/// / `--switch` flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` pairs; bare `--switch` maps to `"true"`.
    pub flags: BTreeMap<String, String>,
}

/// Parse an argument list (excluding the program name).
///
/// Grammar: the first bare word is the subcommand; `--key value` binds
/// the next word unless it is itself a flag, in which case `key` is a
/// boolean switch.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
    let mut out = Args::default();
    let mut iter = args.into_iter().peekable();
    while let Some(a) = iter.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = match iter.peek() {
                Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                _ => "true".to_string(),
            };
            out.flags.insert(key.to_string(), value);
        } else if out.command.is_none() {
            out.command = Some(a);
        } else {
            out.positional.push(a);
        }
    }
    out
}

impl Args {
    /// A string flag with a default.
    pub fn str_flag(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// An integer flag with a default; a malformed value is a typed
    /// usage error.
    pub fn int_flag(&self, key: &str, default: i64) -> Result<i64, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                CliError::usage(format!("error: --{key} expects an integer, got `{v}`"))
            }),
        }
    }

    /// An integer flag with a default and an inclusive minimum; a
    /// malformed or out-of-range value is a typed usage error naming
    /// the flag, never a silently clamped run.
    pub fn int_flag_at_least(&self, key: &str, default: i64, min: i64) -> Result<i64, CliError> {
        let v = self.int_flag(key, default)?;
        if v < min {
            return Err(CliError::usage(format!(
                "error: --{key} expects an integer >= {min}, got `{v}`"
            )));
        }
        Ok(v)
    }

    /// A boolean switch.
    pub fn switch(&self, key: &str) -> bool {
        self.flags.get(key).map(String::as_str) == Some("true")
    }

    /// The observability output flags: `--metrics-out`/`--flame-out` on
    /// `simulate`, `check`, `explore`, and `profile`; `--trace-out` on
    /// `simulate` and `profile`.
    pub fn obs_flags(&self) -> ObsFlags {
        ObsFlags {
            metrics_out: self.flags.get("metrics-out").cloned(),
            trace_out: self.flags.get("trace-out").cloned(),
            flame_out: self.flags.get("flame-out").cloned(),
        }
    }

    /// A comma-separated integer list flag (e.g. `--pi 1,1,1`); a
    /// malformed value is a typed usage error.
    pub fn int_list_flag(&self, key: &str) -> Result<Option<Vec<i64>>, CliError> {
        let Some(v) = self.flags.get(key) else {
            return Ok(None);
        };
        let parsed: Result<Vec<i64>, _> = v.split(',').map(str::trim).map(str::parse).collect();
        parsed.map(Some).map_err(|_| {
            CliError::usage(format!(
                "error: --{key} expects comma-separated integers, got `{v}`"
            ))
        })
    }
}

/// Output-artifact flags, with the same names on every
/// observability-producing subcommand: `--metrics-out FILE`,
/// `--trace-out FILE` (only where a run is simulated), `--flame-out
/// FILE`. Parsed in one place so the flag surface stays uniform across
/// the CLI.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsFlags {
    /// Counters/spans/simulator metrics JSON destination.
    pub metrics_out: Option<String>,
    /// Chrome/Perfetto trace JSON destination.
    pub trace_out: Option<String>,
    /// Collapsed-stack (flamegraph) span export destination.
    pub flame_out: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn subcommand_and_flags() {
        let a = args(&[
            "simulate",
            "--workload",
            "matvec",
            "--size",
            "32",
            "--contention",
        ]);
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.str_flag("workload", "l1"), "matvec");
        assert_eq!(a.int_flag("size", 4), Ok(32));
        assert!(a.switch("contention"));
        assert!(!a.switch("batch"));
    }

    #[test]
    fn defaults_apply() {
        let a = args(&["partition"]);
        assert_eq!(a.str_flag("workload", "l1"), "l1");
        assert_eq!(a.int_flag("size", 4), Ok(4));
        assert_eq!(a.int_list_flag("pi"), Ok(None));
    }

    #[test]
    fn int_list() {
        let a = args(&["partition", "--pi", "1, 1,1"]);
        assert_eq!(a.int_list_flag("pi"), Ok(Some(vec![1, 1, 1])));
    }

    #[test]
    fn malformed_numbers_are_typed_usage_errors() {
        let a = args(&["simulate", "--size", "huge", "--pi", "1,x"]);
        let e = a.int_flag("size", 4).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(matches!(e, CliError::Usage(_)));
        let e = a.int_list_flag("pi").unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
        // Below the flag's minimum is a usage error naming the flag; the
        // minimum itself, and the default when absent, are accepted.
        let a = args(&["explore", "--pi-bound", "-1", "--top", "1"]);
        let e = a.int_flag_at_least("pi-bound", 1, 1).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("--pi-bound"), "{e}");
        assert_eq!(a.int_flag_at_least("top", 10, 1), Ok(1));
        assert_eq!(a.int_flag_at_least("threads", 0, 0), Ok(0));
    }

    #[test]
    fn positional_args() {
        let a = args(&["repro", "fig3", "table1"]);
        assert_eq!(a.command.as_deref(), Some("repro"));
        assert_eq!(a.positional, vec!["fig3", "table1"]);
    }

    #[test]
    fn obs_flags_parse_uniformly() {
        let a = args(&["profile", "--metrics-out", "m.json", "--flame-out", "f.txt"]);
        assert_eq!(
            a.obs_flags(),
            ObsFlags {
                metrics_out: Some("m.json".into()),
                trace_out: None,
                flame_out: Some("f.txt".into()),
            }
        );
        assert_eq!(args(&["check"]).obs_flags(), ObsFlags::default());
    }

    #[test]
    fn trailing_switch_and_greedy_value_binding() {
        let a = args(&["run", "--verbose"]);
        assert!(a.switch("verbose"));
        assert_eq!(a.command.as_deref(), Some("run"));
        // A flag greedily binds the next bare word as its value — a
        // leading switch therefore swallows the subcommand; this is the
        // documented grammar, so switches belong after the subcommand.
        let b = args(&["--verbose", "run"]);
        assert_eq!(b.command, None);
        assert_eq!(b.str_flag("verbose", ""), "run");
    }
}
