//! Minimal argv parsing (no external dependency): positional
//! arguments, `--flag value` pairs, and a small set of boolean
//! `--flag` switches that take no value.

use std::collections::BTreeMap;
use std::fmt;

/// A command-line failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError(format!("io error: {e}"))
    }
}

/// Parsed arguments: positionals in order plus flag→value pairs.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--flag value` pairs, ordered by flag name so iteration (help
    /// text, echo output) is deterministic.
    pub flags: BTreeMap<String, String>,
}

impl ParsedArgs {
    /// Positional argument `i` or an error naming it.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, CliError> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing <{name}> argument")))
    }

    /// Typed flag with default.
    pub fn flag_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError(format!("bad value for --{flag}: {v:?}"))),
        }
    }

    /// String flag with default.
    pub fn str_flag_or<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.flags.get(flag).map_or(default, String::as_str)
    }

    /// Whether a boolean `--flag` switch was given.
    pub fn bool_flag(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }
}

/// Flags that are switches: present or absent, never followed by a
/// value. Everything else keeps the `--flag value` contract.
pub const BOOL_FLAGS: &[&str] = &["metrics", "perf", "all"];

/// Splits argv into positionals and `--flag value` pairs.
pub fn parse_flags<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, CliError> {
    let mut out = ParsedArgs::default();
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&flag) {
                out.flags.insert(flag.to_owned(), "true".to_owned());
                continue;
            }
            let value = it.next().ok_or_else(|| CliError(format!("--{flag} requires a value")))?;
            out.flags.insert(flag.to_owned(), value);
        } else {
            out.positional.push(a);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ParsedArgs {
        parse_flags(args.iter().map(std::string::ToString::to_string)).unwrap()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let p = parse(&["sessions", "log.txt", "--gap", "120", "more"]);
        assert_eq!(p.positional, vec!["sessions", "log.txt", "more"]);
        assert_eq!(p.flags.get("gap").map(String::as_str), Some("120"));
    }

    #[test]
    fn typed_flag_with_default() {
        let p = parse(&["x", "--gap", "30.5"]);
        assert_eq!(p.flag_or("gap", 60.0).unwrap(), 30.5);
        assert_eq!(p.flag_or("setup", 60.0).unwrap(), 60.0);
        assert!(p.flag_or::<f64>("gap", 0.0).is_ok());
    }

    #[test]
    fn bad_flag_value_errors() {
        let p = parse(&["x", "--gap", "soon"]);
        assert!(p.flag_or::<f64>("gap", 0.0).is_err());
    }

    #[test]
    fn dangling_flag_errors() {
        let e = parse_flags(["--gap".to_string()]).unwrap_err();
        assert!(e.0.contains("requires a value"));
    }

    #[test]
    fn bool_flag_takes_no_value() {
        let p = parse(&["simulate", "--metrics", "out.log", "--seed", "7"]);
        assert!(p.bool_flag("metrics"));
        assert_eq!(p.positional, vec!["simulate", "out.log"]);
        assert_eq!(p.flags.get("seed").map(String::as_str), Some("7"));
        assert!(!parse(&["simulate"]).bool_flag("metrics"));
    }

    #[test]
    fn bool_flag_at_end_of_argv() {
        let p = parse(&["summary", "log.txt", "--metrics"]);
        assert!(p.bool_flag("metrics"));
    }

    #[test]
    fn missing_positional_names_argument() {
        let p = parse(&["summary"]);
        let e = p.positional(1, "log").unwrap_err();
        assert!(e.0.contains("<log>"));
    }
}
