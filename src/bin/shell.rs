//! `ticc-shell` — interactive temporal integrity checking.
//!
//! Reads commands from stdin (or from a script file given as the first
//! argument) and drives [`ticc::shell::Shell`]. See `help` inside the
//! shell or the module docs for the command language.
//!
//! `--history-window unbounded|<n>|<n>kb|<n>mb` bounds the resident
//! history (default: unbounded); replies are identical under every
//! budget.
//!
//! `--store <path>` backs the session with a durable write-ahead log:
//! committed states are logged, `checkpoint`/`compact` snapshot the
//! whole session, and reopening the same path resumes it.
//!
//! Exit codes: 0 success, 1 unreadable script file, 2 bad command-line
//! flags, 3 store cannot be opened or recovered.

use std::io::{BufRead, Write};
use ticc::core::{CheckOptions, HistoryBudget};

const USAGE: &str = "usage: ticc-shell [--history-window unbounded|<n>|<n>kb|<n>mb] \
[--store <path>] [script]";

/// Prints `msg` and the usage text, then exits with the bad-flags code.
fn usage_error(msg: &str) -> ! {
    eprintln!("ticc-shell: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut history_budget = HistoryBudget::default();
    let mut store_path: Option<String> = None;
    let mut script: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--history-window" => {
                let Some(v) = args.next() else {
                    usage_error("--history-window needs a value (unbounded|<n>|<n>kb|<n>mb)");
                };
                history_budget = HistoryBudget::parse(&v).unwrap_or_else(|e| usage_error(&e));
            }
            "--store" => {
                let Some(v) = args.next() else {
                    usage_error("--store needs a path");
                };
                store_path = Some(v);
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            _ if script.is_some() => usage_error(&format!("unexpected argument '{arg}'")),
            _ => script = Some(arg),
        }
    }
    let opts = CheckOptions::builder()
        .history_budget(history_budget)
        .build();
    let mut shell = match &store_path {
        Some(path) => match ticc::shell::Shell::with_store(opts, std::path::Path::new(path)) {
            Ok((shell, summary)) => {
                println!("{summary}");
                shell
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(3);
            }
        },
        None => ticc::shell::Shell::with_options(opts),
    };

    if let Some(path) = &script {
        // Script mode: run a file of commands, echoing each.
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        for line in content.lines() {
            if line.trim() == "quit" {
                break;
            }
            println!("> {line}");
            report(shell.exec(line));
        }
        return;
    }

    println!("ticc-shell — temporal integrity constraints (type 'help')");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("ticc> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        report(shell.exec(line));
    }
}

fn report(reply: ticc::shell::Reply) {
    match reply {
        Ok(s) if s.is_empty() => {}
        Ok(s) => println!("{s}"),
        Err(e) => println!("error: {e}"),
    }
}
