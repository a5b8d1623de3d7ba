//! A small dependency-free argument parser: positional arguments plus
//! `--flag` and `--key value` options.

use std::collections::BTreeMap;
use std::fmt;

/// An argument-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError(pub String);

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgsError {}

impl From<ArgsError> for nonfifo_core::NonFifoError {
    fn from(e: ArgsError) -> Self {
        nonfifo_core::NonFifoError::Usage(e.0)
    }
}

/// Parsed arguments: positionals in order, options by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `bool_flags` names the options that take no
    /// value; every other `--name` consumes the following token.
    ///
    /// # Errors
    ///
    /// Fails on a value-taking option with no following token.
    pub fn parse<I, S>(raw: I, bool_flags: &[&str]) -> Result<Args, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    out.flags.push(name.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgsError(format!("--{name} needs a value")))?;
                    out.options.insert(name.to_string(), value);
                }
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// The value of `--name`, if given.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// True if the boolean flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Checks that every `--name` given is one of `options` (value-taking)
    /// or `flags` (boolean), so a typo or a retired option fails loudly
    /// instead of being ignored.
    ///
    /// # Errors
    ///
    /// Fails naming every option given that is in neither list.
    pub fn only(&self, options: &[&str], flags: &[&str]) -> Result<(), ArgsError> {
        let unknown: Vec<String> = self
            .options
            .keys()
            .filter(|name| !options.contains(&name.as_str()))
            .chain(
                self.flags
                    .iter()
                    .filter(|name| !flags.contains(&name.as_str())),
            )
            .map(|name| format!("--{name}"))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgsError(format!("unknown option {}", unknown.join(", "))))
        }
    }

    /// The value of `--name` parsed as `T`, or `default`.
    ///
    /// # Errors
    ///
    /// Fails if the value is present but unparsable.
    pub fn option_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgsError> {
        match self.option(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgsError(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// The thread count `--name`, or `0` (one per core) when absent.
    ///
    /// # Errors
    ///
    /// Fails if the value is unparsable or above
    /// [`MAX_WORKERS`](nonfifo_campaign::MAX_WORKERS), before any thread or
    /// per-thread buffer exists.
    pub fn threads(&self, name: &str) -> Result<usize, ArgsError> {
        let n: usize = self.option_or(name, 0)?;
        let max = nonfifo_campaign::MAX_WORKERS;
        if n > max {
            return Err(ArgsError(format!("--{name} {n}: the limit is {max}")));
        }
        Ok(n)
    }
}

/// Options shared by every run-producing subcommand (`simulate`, `chaos`,
/// `explore`): the determinism knobs and the telemetry export paths,
/// parsed and range-checked in one place so no channel constructor or
/// file writer ever sees an unvalidated value (and none of them panic).
#[derive(Debug, Clone, PartialEq)]
pub struct CommonOpts {
    /// RNG seed for seeded substrates (`--seed`, default 0).
    pub seed: u64,
    /// Delay probability for PL2p channels (`--q`, default 0.3, in \[0, 1\]).
    pub q: f64,
    /// Reorder distance bound (`--bound`, default 4, at least 1).
    pub bound: u64,
    /// Where to write the metrics snapshot JSON (`--metrics-out FILE`).
    pub metrics_out: Option<String>,
    /// Where to write the Chrome trace JSON (`--trace-out FILE`).
    pub trace_out: Option<String>,
    /// Print the human-readable metrics summary after the run (`--metrics`).
    pub metrics_summary: bool,
}

impl CommonOpts {
    /// Extracts and validates the common options.
    ///
    /// # Errors
    ///
    /// Fails on unparsable values, `--q` outside `[0, 1]`, or `--bound 0`.
    pub fn from_args(args: &Args) -> Result<CommonOpts, ArgsError> {
        let q: f64 = args.option_or("q", 0.3)?;
        if !(0.0..=1.0).contains(&q) {
            return Err(ArgsError(format!("--q must be in [0, 1], got {q}")));
        }
        let bound: u64 = args.option_or("bound", 4)?;
        if bound < 1 {
            return Err(ArgsError("--bound must be at least 1".into()));
        }
        Ok(CommonOpts {
            seed: args.option_or("seed", 0)?,
            q,
            bound,
            metrics_out: args.option("metrics-out").map(str::to_string),
            trace_out: args.option("trace-out").map(str::to_string),
            metrics_summary: args.flag("metrics"),
        })
    }

    /// True if any metrics sink was requested (file export or summary).
    pub fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some() || self.metrics_summary
    }

    /// True if a trace sink was requested.
    pub fn wants_trace(&self) -> bool {
        self.trace_out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positionals_and_options() {
        let a = Args::parse(["attack", "abp", "--seed", "7", "--diagram"], &["diagram"]).unwrap();
        assert_eq!(a.positional(0), Some("attack"));
        assert_eq!(a.positional(1), Some("abp"));
        assert_eq!(a.positional_count(), 2);
        assert_eq!(a.option("seed"), Some("7"));
        assert!(a.flag("diagram"));
        assert!(!a.flag("other"));
    }

    #[test]
    fn typed_options_with_defaults() {
        let a = Args::parse(["--q", "0.25"], &[]).unwrap();
        assert_eq!(a.option_or("q", 0.5f64).unwrap(), 0.25);
        assert_eq!(a.option_or("seed", 42u64).unwrap(), 42);
        assert!(a.option_or::<u64>("q", 0).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(["--seed"], &[]).unwrap_err();
        assert!(err.to_string().contains("--seed"));
    }

    #[test]
    fn empty_input_is_fine() {
        let a = Args::parse(Vec::<String>::new(), &[]).unwrap();
        assert_eq!(a.positional(0), None);
    }

    #[test]
    fn common_opts_defaults_and_overrides() {
        let a = Args::parse(Vec::<String>::new(), &[]).unwrap();
        let opts = CommonOpts::from_args(&a).unwrap();
        assert_eq!(opts.seed, 0);
        assert_eq!(opts.bound, 4);
        assert!((opts.q - 0.3).abs() < 1e-12);
        assert!(!opts.wants_metrics());
        assert!(!opts.wants_trace());

        let a = Args::parse(
            [
                "--seed",
                "7",
                "--q",
                "0.5",
                "--bound",
                "2",
                "--metrics-out",
                "m.json",
                "--trace-out",
                "t.json",
                "--metrics",
            ],
            &["metrics"],
        )
        .unwrap();
        let opts = CommonOpts::from_args(&a).unwrap();
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.bound, 2);
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert!(opts.metrics_summary);
        assert!(opts.wants_metrics());
        assert!(opts.wants_trace());
    }

    #[test]
    fn common_opts_reject_out_of_range_values() {
        for raw in [&["--q", "1.5"][..], &["--q", "-0.1"], &["--bound", "0"]] {
            let a = Args::parse(raw.iter().map(|s| s.to_string()), &[]).unwrap();
            let err = CommonOpts::from_args(&a).unwrap_err();
            assert!(err.0.contains(&raw[0][2..]), "{err:?}");
        }
    }
}
