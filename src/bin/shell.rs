//! `ticc-shell` — interactive temporal integrity checking.
//!
//! Reads commands from stdin (or from a script file given as the first
//! argument) and drives [`ticc::shell::Shell`]. See `help` inside the
//! shell or the module docs for the command language.
//!
//! `--threads off|auto|<n>` selects the worker-pool policy for every
//! monitor, trigger, and ad-hoc check in the session (default: off).
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
use ticc::core::{CheckOptions, HistoryBudget, Threads};

const USAGE: &str = "usage: ticc-shell [--threads off|auto|<n>] \
[--history-window unbounded|<n>|<n>kb|<n>mb] [--store <path>] [script]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut threads = Threads::Off;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let Some(v) = args.get(i + 1) else {
            eprintln!("--threads needs a value (off|auto|<count>)");
            std::process::exit(2);
        };
        threads = match Threads::parse(v) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        args.drain(i..=i + 1);
    }
    let mut history_budget = HistoryBudget::default();
    if let Some(i) = args.iter().position(|a| a == "--history-window") {
        let Some(v) = args.get(i + 1) else {
            eprintln!("--history-window needs a value (unbounded|<n>|<n>kb|<n>mb)");
            std::process::exit(2);
        };
        history_budget = match HistoryBudget::parse(v) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        args.drain(i..=i + 1);
    }
    let mut store_path: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--store") {
        let Some(v) = args.get(i + 1) else {
            eprintln!("--store needs a path");
            std::process::exit(2);
        };
        store_path = Some(v.clone());
        args.drain(i..=i + 1);
    }
    let opts = CheckOptions::builder()
        .threads(threads)
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

    if let Some(path) = args.first() {
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
