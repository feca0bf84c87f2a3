//! The `run-looppoint` front door: one command registry over one flag
//! table ([`flags`]), one parser, and help generated from both. The
//! binary hands its argv to [`parse`] and runs what comes back.
//!
//! Exit codes: `0` success; `1` pipeline/service error (a run failed, a
//! job failed, the farm rejected work); `2` configuration or usage error
//! (bad flags, unknown program name, unopenable store, unbindable
//! address). A killed process dies by signal and reports no exit code.

mod client;
pub mod flags;
mod oneshot;
pub mod render;
mod serve;

use flags::*;
use std::process::ExitCode;
use std::str::FromStr;

/// Exit code for pipeline/service failures.
pub const EXIT_PIPELINE: u8 = 1;
/// Exit code for configuration/usage errors.
pub const EXIT_CONFIG: u8 = 2;

fn config_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(EXIT_CONFIG)
}

fn pipeline_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(EXIT_PIPELINE)
}

/// `0` when every step succeeded, else the pipeline-failure code.
fn exit_for(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_PIPELINE)
    }
}

/// Opens the artifact store `--store-dir` names, if it names one.
fn open_store(m: &Matches, obs: &lp_obs::Observer) -> Result<Option<lp_store::Store>, String> {
    let Some(dir) = m.opt::<String>("--store-dir") else {
        return Ok(None);
    };
    let config = lp_store::StoreConfig {
        max_bytes: m.opt("--store-max-bytes"),
    };
    let store = lp_store::Store::open_with(&dir, config, obs.clone());
    store
        .map(Some)
        .map_err(|e| format!("opening artifact store at {dir}: {e}"))
}

/// One `run-looppoint` mode: what it is called, what it accepts, and the
/// function that runs it.
pub struct Command {
    /// Subcommand word; `""` for the one-shot run that has none.
    pub name: &'static str,
    /// One-paragraph description, shown in help.
    pub summary: &'static str,
    /// The flag groups this command accepts — nothing else parses.
    pub groups: &'static [&'static Group],
    /// Per-command default overrides, by canonical flag name.
    pub defaults: &'static [(&'static str, &'static str)],
    /// Runs the command on its parsed arguments.
    pub run: fn(&Matches) -> ExitCode,
}

/// Client commands describe jobs for a 2-thread default, like `JobSpec`.
const CLIENT_DEFAULTS: &[(&str, &str)] = &[("--ncores", "2")];

/// Every mode of the binary; the first entry is the one-shot run.
pub static COMMANDS: [Command; 9] = [
    Command {
        name: "",
        summary: "one-shot pipeline run: profile, cluster, simulate the looppoints, \
                  extrapolate, and compare against a full-detail reference",
        groups: &[
            &PROGRAM, &ONESHOT, &REPORT, &TELEMETRY, &STORE, &LOG, &COMPAT,
        ],
        defaults: &[],
        run: oneshot::run,
    },
    Command {
        name: "live",
        summary: "one-shot Pac-Sim-style online sampling: no profiling prequel, regions \
                  classified as the program runs, compared against a full-detail reference \
                  (one JSON summary line per program)",
        groups: &[&PROGRAM, &REPORT, &LOG, &COMPAT],
        defaults: &[],
        run: oneshot::live,
    },
    Command {
        name: "serve",
        summary: "lp-farm analysis daemon (POST /jobs, GET /jobs/{id}, GET /queue, \
                  GET /metrics, POST /shutdown); a cluster node when --node-addr is given",
        groups: &[&SERVE, &CLUSTER, &STORE, &LOG],
        defaults: &[],
        run: serve::run,
    },
    Command {
        name: "submit",
        summary: "submit one job per program to a daemon",
        groups: &[&FARM_ADDR, &PROGRAM, &CLIENT, &SUBMIT],
        defaults: CLIENT_DEFAULTS,
        run: client::submit,
    },
    Command {
        name: "status",
        summary: "queue or per-job status",
        groups: &[&FARM_ADDR, &JOB, &STATUS],
        defaults: &[],
        run: client::status,
    },
    Command {
        name: "trace",
        summary: "print a job's span tree; a 32-hex trace id instead of a job id fetches \
                  the merged cross-node cluster trace",
        groups: &[&TRACE, &FARM_ADDR, &JOB],
        defaults: &[],
        run: client::trace,
    },
    Command {
        name: "top",
        summary: "live cluster dashboard: per-node jobs/s, queue depth, dedup %, queue-wait \
                  quantiles, sparklines; single farms work too (one-row dashboard)",
        groups: &[&FARM_ADDR, &TOP],
        defaults: &[],
        run: client::top,
    },
    Command {
        name: "shutdown",
        summary: "drain or stop a daemon",
        groups: &[&FARM_ADDR, &SHUTDOWN],
        defaults: &[],
        run: client::shutdown,
    },
    Command {
        name: "farm-load",
        summary: "concurrent keep-alive load burst; exits non-zero on any dropped request \
                  or a failed drain",
        groups: &[&FARM_ADDR, &PROGRAM, &CLIENT, &LOAD],
        defaults: CLIENT_DEFAULTS,
        run: client::farm_load,
    },
];

impl Command {
    /// Every flag this command accepts, in help order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|g| g.flags)
    }

    /// The accepted flag spelled `name` (any alias), if there is one.
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.names().any(|n| n == name))
    }

    /// `flag`'s default for this command (`""` = none).
    pub fn default_of(&self, flag: &Flag) -> &'static str {
        let overridden = self.defaults.iter().find(|(name, _)| *name == flag.name());
        overridden.map_or(flag.default, |(_, value)| value)
    }

    /// The positional argument this command takes, if it takes one.
    fn positional(&self) -> Option<&'static Flag> {
        self.flags().find(|f| f.is_positional())
    }
}

/// What an argv asks for.
pub enum Invocation {
    /// `-h`/`--help`: the text to print before exiting 0.
    Help(String),
    /// Run `command.run` on these arguments.
    Run(Matches),
}

/// A command's validated arguments.
pub struct Matches {
    /// The command the arguments were parsed for.
    pub command: &'static Command,
    given: Vec<(&'static Flag, String)>,
}

impl Matches {
    /// Every value given for `name`, in order (`--cluster-peer` repeats).
    /// Asking for a flag outside the command's groups is a bug.
    pub fn all(&self, name: &str) -> Vec<&str> {
        let Some(flag) = self.command.flag(name) else {
            panic!("{name} is not in the flag table for this command")
        };
        let of_flag = self.given.iter().filter(|(f, _)| std::ptr::eq(*f, flag));
        of_flag.map(|(_, v)| v.as_str()).collect()
    }

    /// Whether `name` was given (what a switch means).
    pub fn on(&self, name: &str) -> bool {
        !self.all(name).is_empty()
    }

    /// The last value given for `name`, else the command's default for
    /// it, typed; `None` when the flag is absent and has no default.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let default = self.command.flag(name).map(|f| self.command.default_of(f));
        let text = self.all(name).pop().or(default.filter(|d| !d.is_empty()))?;
        match text.parse() {
            Ok(value) => Some(value),
            Err(_) => panic!("the rule for {name} admitted '{text}', which does not parse"),
        }
    }

    /// [`Matches::opt`] for a flag with a default.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        let value = self.opt(name);
        value.unwrap_or_else(|| panic!("{name} has no default and was not given"))
    }
}

/// Parses a full argv (program name stripped): picks the command by its
/// first word — none means the one-shot run — and validates the rest
/// against that command's flag groups.
///
/// # Errors
/// A usage message (the binary exits 2 with it): a flag the command does
/// not accept, a missing or out-of-range value, a missing required flag.
pub fn parse(argv: &[String]) -> Result<Invocation, String> {
    let subcommand = |word: &String| COMMANDS[1..].iter().find(|c| c.name == word);
    let (command, args) = match argv.first().and_then(subcommand) {
        Some(command) => (command, &argv[1..]),
        None => (&COMMANDS[0], argv),
    };
    let mut m = Matches {
        command,
        given: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(Invocation::Help(help(command)));
        }
        let (flag, value) = match (command.flag(arg), command.positional()) {
            (Some(flag), _) if matches!(flag.rule, Rule::Switch) => (flag, ""),
            (Some(flag), _) => match args.next() {
                Some(value) => (flag, value.as_str()),
                None => return Err(format!("missing value for {arg}")),
            },
            (None, Some(slot)) if !arg.starts_with('-') && !m.on(slot.name()) => (slot, &**arg),
            _ => {
                let name = usage_name(command);
                return Err(format!("unknown argument '{arg}' (see `{name} --help`)"));
            }
        };
        flag.rule.check(flag.name(), value)?;
        m.given.push((flag, value.to_string()));
    }
    match command.flags().find(|f| f.required && !m.on(f.name())) {
        Some(missing) => Err(format!("{} is required (see --help)", missing.spec)),
        None => Ok(Invocation::Run(m)),
    }
}

fn usage_name(command: &Command) -> String {
    format!("run-looppoint {}", command.name)
        .trim_end()
        .to_string()
}

/// Greedy word wrap of `text` to `width` columns.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = vec![String::new()];
    for word in text.split_whitespace() {
        let last = lines.last_mut().expect("never empty");
        if !last.is_empty() && last.len() + 1 + word.chars().count() > width {
            lines.push(word.to_string());
        } else {
            if !last.is_empty() {
                last.push(' ');
            }
            last.push_str(word);
        }
    }
    lines
}

/// Appends `label` with `text` word-wrapped in the column to its right
/// (starting on the next line when the label overflows the column).
fn entry(out: &mut String, label: &str, column: usize, text: &str) {
    let mut label = label.to_string();
    if label.len() + 2 > column {
        out.push_str(&format!("{label}\n"));
        label.clear();
    }
    for line in wrap(text, 100 - column) {
        out.push_str(&format!("{label:<column$}{line}\n"));
        label.clear();
    }
}

/// The help page for `command`, generated from the registry and the flag
/// table; the one-shot command's page is the top-level help and also
/// lists every subcommand and the exit codes.
pub fn help(command: &Command) -> String {
    let name = usage_name(command);
    let mut out = format!("{name}\n");
    entry(&mut out, "", 4, command.summary);
    let target = command.positional().map_or("", |p| p.spec);
    let usage = [name.as_str(), target, "[OPTIONS]"].map(str::trim);
    out.push_str(&format!(
        "\nUSAGE:\n    {}\n",
        usage.join(" ").replace("  ", " ")
    ));
    if command.name.is_empty() {
        out.push_str("    run-looppoint <COMMAND> [OPTIONS]   (`<COMMAND> --help`: its options)\n");
        out.push_str("\nCOMMANDS:\n");
        for sub in &COMMANDS[1..] {
            entry(&mut out, &format!("    {}", sub.name), 15, sub.summary);
        }
        out.push_str(
            "\nEXIT CODES:\n    0  success\n    \
             1  pipeline/service error (a run or job failed, work was rejected)\n    \
             2  configuration or usage error (bad flags, unknown program,\n       \
             unopenable store, unbindable address)\n",
        );
    }
    for group in command.groups {
        out.push_str(&format!("\n{}:\n", group.title));
        for flag in group.flags {
            // Long-only flags align under the long name of aliased ones.
            let indent = if flag.spec.starts_with("--") { 8 } else { 4 };
            let label = format!("{}{}", " ".repeat(indent), flag.spec);
            match command.default_of(flag) {
                "" => entry(&mut out, &label, 31, flag.help),
                value => entry(
                    &mut out,
                    &label,
                    31,
                    &format!("{} [default: {value}]", flag.help),
                ),
            }
        }
    }
    entry(&mut out, "\n    -h, --help", 32, "print this help");
    out
}
