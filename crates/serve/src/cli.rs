//! Command-line parsing shared by the `ams-serve` daemon and the
//! `bench_serve` load generator.
//!
//! Both binaries take `--flag value` pairs only. The six flags they
//! share (`--workers`, `--worker-threads`, `--max-batch`, `--enob`,
//! `--scale`, `--results`) are parsed and validated here, before any
//! scenario loads or trains; each binary handles its own flags through a
//! callback. A bad value is a usage error (see [`ams_exp::usage_exit`]),
//! never a panic further down.

use ams_exp::Scale;

use crate::scenario::ScenarioConfig;
use crate::server::ServeConfig;

/// One `--flag value` pair; the value is `None` when the flag ends the
/// argument list.
#[derive(Debug, Clone, Copy)]
pub struct Flag<'a> {
    /// The flag itself, e.g. `--workers`.
    pub name: &'a str,
    value: Option<&'a str>,
}

impl<'a> Flag<'a> {
    /// The flag's value, or the usage error for a dangling flag.
    ///
    /// # Errors
    ///
    /// Returns `"<flag> needs a value"` when the flag ends the arguments.
    pub fn value(&self) -> Result<&'a str, String> {
        self.value
            .ok_or_else(|| format!("{} needs a value", self.name))
    }

    /// The value parsed as an integer of at least 1.
    ///
    /// # Errors
    ///
    /// Returns a usage error for a missing, unparsable or zero value.
    pub fn positive_integer(&self) -> Result<usize, String> {
        let n: usize = self
            .value()?
            .parse()
            .map_err(|e| format!("{} needs a positive integer: {e}", self.name))?;
        if n == 0 {
            return Err(format!("{} needs a positive integer: got 0", self.name));
        }
        Ok(n)
    }
}

/// The scenario and pool settings both serve binaries configure.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// What to serve (`--scale`, `--results`, `--enob`, plus whatever
    /// scenario flags the binary adds).
    pub scenario: ScenarioConfig,
    /// Pool and batching knobs (`--workers`, `--worker-threads`,
    /// `--max-batch`).
    pub serve: ServeConfig,
}

impl ServeArgs {
    /// Parses `args` (without the program name) on top of the quick-scale
    /// default scenario and [`ServeConfig::default`]. Flags that are not
    /// shared go to `own`, which returns `Ok(false)` for a flag it does
    /// not know.
    ///
    /// # Errors
    ///
    /// Returns the usage-error message for an unknown flag, a missing
    /// value, or a value out of range.
    pub fn parse(
        args: &[String],
        mut own: impl FnMut(&mut Self, Flag<'_>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut out = ServeArgs {
            scenario: ScenarioConfig::default_at(Scale::quick()),
            serve: ServeConfig::default(),
        };
        for pair in args.chunks(2) {
            let flag = Flag {
                name: &pair[0],
                value: pair.get(1).map(String::as_str),
            };
            if !out.shared(flag)? && !own(&mut out, flag)? {
                return Err(format!("unknown argument {:?}", flag.name));
            }
        }
        Ok(out)
    }

    /// Applies one shared flag; `Ok(false)` if `flag` is not one of them.
    fn shared(&mut self, flag: Flag<'_>) -> Result<bool, String> {
        match flag.name {
            "--workers" => self.serve.workers = flag.positive_integer()?,
            "--worker-threads" => {
                self.serve.threads_per_worker = flag
                    .value()?
                    .parse()
                    .map_err(|e| format!("--worker-threads needs an integer: {e}"))?;
            }
            "--max-batch" => self.serve.max_batch = flag.positive_integer()?,
            "--enob" => {
                let enob: f64 = flag
                    .value()?
                    .parse()
                    .map_err(|e| format!("--enob needs a number: {e}"))?;
                if !enob.is_finite() || enob <= 0.0 {
                    return Err(format!("--enob needs a positive finite number, got {enob}"));
                }
                self.scenario.enob = Some(enob);
            }
            "--scale" => {
                self.scenario.scale = Scale::by_name(flag.value()?)
                    .map_err(|n| format!("unknown scale {n:?}; use quick|full|test"))?;
            }
            "--results" => self.scenario.results = flag.value()?.to_string(),
            _ => return Ok(false),
        }
        Ok(true)
    }
}
