//! The artifact's `run-looppoint.py` driver, reimplemented for this
//! reproduction. Everything — the flag table, the command registry, the
//! nine modes — lives in [`looppoint_repro::cli`]; `run-looppoint --help`
//! and `run-looppoint <command> --help` are the reference.

use looppoint_repro::cli::{self, Invocation};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&argv) {
        Ok(Invocation::Help(text)) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Ok(Invocation::Run(matches)) => (matches.command.run)(&matches),
        Err(usage) => {
            eprintln!("error: {usage}");
            ExitCode::from(cli::EXIT_CONFIG)
        }
    }
}
