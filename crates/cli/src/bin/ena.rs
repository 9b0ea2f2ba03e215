//! The `ena` command-line tool. See `ena help`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Usage helps only when the command line itself is wrong; a command
    // that parsed but failed prints just its cause.
    let command = match ena_cli::parse(args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", ena_cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match ena_cli::execute(command) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
