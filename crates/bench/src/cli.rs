//! The command line `repro`, its `worker` mode and `inspect` share:
//! one flag reader, one way to fail, and the one step from
//! `--workers`/`--collectors`/`--faults` to a session.

use crate::{Repro, Scale};
use std::fmt::Display;

/// The flags that choose how a session's datasets are built; see
/// [`Cli::session`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Sharding {
    /// `--workers N`: edge emitter threads.
    pub workers: Option<usize>,
    /// `--collectors M`: collector threads.
    pub collectors: Option<usize>,
    /// `--faults K`: injected faults, for the supervised pipeline.
    pub faults: Option<usize>,
}

/// A command line, read one argument at a time.
///
/// `--help`/`-h` and the shared flags a command takes — `--seed`,
/// `--scale` and the [`Sharding`] flags — are consumed here; every
/// other argument is handed to the caller. A missing or malformed
/// value calls the command's `usage` with the reason, and `usage`
/// exits.
pub struct Cli<'a> {
    args: std::slice::Iter<'a, String>,
    usage: fn(&str) -> !,
    /// `Some(value so far)` when the command takes `--seed`.
    seed: Option<u64>,
    /// `Some(value so far)` when the command takes `--scale`.
    scale: Option<Scale>,
    /// `Some(values so far)` when the command takes the sharding flags.
    sharding: Option<Sharding>,
}

impl<'a> Cli<'a> {
    /// A reader over `args` (the program name already stripped) that
    /// reports errors through `usage`.
    pub fn new(args: &'a [String], usage: fn(&str) -> !) -> Self {
        Cli { args: args.iter(), usage, seed: None, scale: None, sharding: None }
    }

    /// Takes `--seed N`, defaulting to `seed`.
    pub fn seeded(self, seed: u64) -> Self {
        Cli { seed: Some(seed), ..self }
    }

    /// Takes `--scale tiny|small|full`, defaulting to `scale`.
    pub fn scaled(self, scale: Scale) -> Self {
        Cli { scale: Some(scale), ..self }
    }

    /// Takes the [`Sharding`] flags.
    pub fn sharded(self) -> Self {
        Cli { sharding: Some(Sharding::default()), ..self }
    }

    /// The `--seed` of a command that takes one.
    pub fn seed(&self) -> u64 {
        self.seed.expect("the command takes --seed")
    }

    /// The `--scale` of a command that takes one.
    pub fn scale(&self) -> Scale {
        self.scale.expect("the command takes --scale")
    }

    /// The sharding flags of a command that takes them.
    pub fn sharding(&self) -> Sharding {
        self.sharding.expect("the command takes the sharding flags")
    }

    /// The value of `flag` as `read` accepts it, or usage saying that
    /// `flag` needs `what`.
    pub fn value_with<T>(&mut self, flag: &str, what: &str, read: fn(&str) -> Option<T>) -> T {
        match self.args.next().and_then(|v| read(v)) {
            Some(value) => value,
            None => (self.usage)(&format!("{flag} needs {what}")),
        }
    }

    /// The value of `flag`, parsed.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> T {
        self.value_with(flag, what, |v| v.parse().ok())
    }

    /// The value of `flag`, a positive integer.
    pub fn positive(&mut self, flag: &str) -> usize {
        self.value_with(flag, "a positive integer", |v| v.parse().ok().filter(|&n| n >= 1))
    }

    /// Builds the session the flags ask for, printing its collection
    /// summary to stderr: the direct builders when no sharding flag is
    /// given, the supervised pipeline with `K` deterministic injected
    /// faults for `--faults K` (1 worker and 2 collectors unless
    /// given), else the sharded log pipeline (1 × 1 unless given).
    /// Exits 1 when the supervised pipeline fails.
    pub fn session(&self) -> Repro {
        let (seed, scale, s) = (self.seed(), self.scale(), self.sharding());
        let workers = s.workers.unwrap_or(1);
        if let Some(k) = s.faults {
            let collectors = s.collectors.unwrap_or(2);
            eprintln!(
                "building datasets via supervised pipeline ({workers} workers x {collectors} collectors, {k} injected faults) ..."
            );
            let (repro, summary) = Repro::new_supervised(seed, scale, workers, collectors, k)
                .unwrap_or_else(|e| die(1, format!("supervised pipeline failed: {e}")));
            eprint!("{}", summary.render());
            repro
        } else if s.workers.is_some() || s.collectors.is_some() {
            let collectors = s.collectors.unwrap_or(1);
            eprintln!("building datasets via sharded pipeline ({workers} workers x {collectors} collectors) ...");
            let (repro, summary) = Repro::new_via_pipeline(seed, scale, workers, collectors);
            eprint!("{}", summary.render());
            repro
        } else {
            Repro::new(seed, scale)
        }
    }
}

impl Iterator for Cli<'_> {
    type Item = String;

    /// The next argument that is not a shared flag.
    fn next(&mut self) -> Option<String> {
        while let Some(arg) = self.args.next().cloned() {
            match (arg.as_str(), self.sharding) {
                ("--help" | "-h", _) => (self.usage)(""),
                ("--seed", _) if self.seed.is_some() => {
                    self.seed = Some(self.parse("--seed", "an integer"));
                }
                ("--scale", _) if self.scale.is_some() => {
                    self.scale = Some(self.value_with("--scale", "tiny|small|full", Scale::parse));
                }
                ("--workers", Some(s)) => {
                    self.sharding = Some(Sharding { workers: Some(self.positive(&arg)), ..s });
                }
                ("--collectors", Some(s)) => {
                    self.sharding = Some(Sharding { collectors: Some(self.positive(&arg)), ..s });
                }
                ("--faults", Some(s)) => {
                    let faults = self.parse(&arg, "a non-negative integer");
                    self.sharding = Some(Sharding { faults: Some(faults), ..s });
                }
                _ => return Some(arg),
            }
        }
        None
    }
}

/// Prints `error: {msg}` to stderr and exits with `code`.
pub fn die(code: i32, msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code)
}

/// Writes `contents` to `path`, or exits 1 saying why not.
pub fn write(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        die(1, format!("failed to write {path}: {e}"));
    }
}
