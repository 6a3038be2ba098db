//! An interactive shell for the temporal integrity checker.
//!
//! Drives the whole stack from text commands — define a schema, register
//! constraints and triggers, stage tuple updates, commit them as
//! database states, and watch violations and trigger firings arrive at
//! the earliest possible time. The `ticc-shell` binary wraps this in a
//! stdin REPL; the engine itself is a plain `line in → report out`
//! state machine, which keeps it fully testable.
//!
//! The shell is a thin text veneer over
//! [`ticc_core::Session`] — the session owns the schema
//! lifecycle, constraints, triggers, staging, durability, and stats;
//! the shell owns parsing and report formatting. Anything the shell
//! can do, an embedder (or the `ticc-server`) can do through the same
//! [`Session`](ticc_core::Session) API.
//!
//! ```text
//! schema pred Sub 1              # declare predicates (before first commit)
//! schema const vip = 7           # declare constants with interpretation
//! constraint once: forall x. G (Sub(x) -> X G !Sub(x))
//! trigger dup: F (Sub(x) & X F Sub(x))
//! insert Sub(1)                  # stage updates
//! commit                         # apply as the next state, check everything
//! status                         # constraint statuses
//! stats [--json]                 # engine counters, gauges, and timers
//! checkpoint                     # snapshot the session to the store
//! compact                        # checkpoint + rewrite the log to just it
//! check G !Sub(9)                # ad-hoc potential-satisfaction query
//! witness once                   # a concrete extension satisfying it
//! history                        # the states so far
//! help | quit
//! ```

use std::fmt::Write as _;
use std::path::Path;
use ticc_core::{check_potential_satisfaction, CheckOptions, Error, Session, Status};
use ticc_fotl::parser::parse;
use ticc_store::codec::parse_fact;
use ticc_tdb::Value;

/// Shell outcome for one command.
pub type Reply = Result<String, String>;

/// The shell engine: a [`Session`] plus the command grammar.
pub struct Shell {
    session: Session,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a core error the way the shell always has: session and
/// store rules read as plain sentences, pipeline failures keep their
/// layer prefix (`grounding:`, `satisfiability:`, `database:`).
fn msg(e: Error) -> String {
    match e {
        Error::Session(m) | Error::Store(m) => m,
        other => other.to_string(),
    }
}

impl Shell {
    /// A fresh shell with an empty schema and default options.
    pub fn new() -> Self {
        Self::with_options(CheckOptions::default())
    }

    /// A fresh shell using `opts` for every monitor, trigger, and
    /// ad-hoc check (this is how `ticc-shell --history-window` plugs
    /// in).
    pub fn with_options(opts: CheckOptions) -> Self {
        let (session, _) = Session::builder()
            .options(opts)
            .open()
            .expect("an ephemeral session cannot fail to open");
        Self { session }
    }

    /// A shell backed by a durable store at `path` (this is how
    /// `ticc-shell --store <path>` plugs in). Returns the shell and a
    /// human-readable summary of what recovery found.
    ///
    /// If the store holds a checkpoint, the whole session resumes from
    /// it: schema, constants, history, constraints, statuses, and the
    /// triggers saved in the session's application blob, plus any
    /// transactions logged after the checkpoint. Without a checkpoint
    /// the shell starts in the schema-definition phase and any logged
    /// transactions replay once the schema is redeclared.
    pub fn with_store(opts: CheckOptions, path: &Path) -> Result<(Self, String), String> {
        let (session, rec) = Session::builder()
            .options(opts)
            .store(path)
            .open()
            .map_err(msg)?;
        let dropped = if rec.truncated_bytes > 0 {
            format!("; dropped {} corrupt trailing byte(s)", rec.truncated_bytes)
        } else {
            String::new()
        };
        let summary = if rec.resumed {
            format!(
                "restored from {}: {} state(s), {} constraint(s), {} trigger(s), replayed {} \
                 logged transaction(s){dropped}",
                path.display(),
                rec.states,
                rec.constraints,
                rec.triggers,
                rec.replayed,
            )
        } else if rec.pending_replay > 0 {
            format!(
                "opened store {} (no checkpoint): {} logged transaction(s) will \
                 replay once the schema is redeclared{dropped}",
                path.display(),
                rec.pending_replay
            )
        } else {
            format!("opened store {}{dropped}", path.display())
        };
        Ok((Self { session }, summary))
    }

    /// Executes one command line; returns the report to show the user.
    pub fn exec(&mut self, line: &str) -> Reply {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "help" => Ok(HELP.to_owned()),
            "schema" => self.cmd_schema(rest),
            "constraint" => self.cmd_constraint(rest),
            "trigger" => self.cmd_trigger(rest),
            "insert" => self.cmd_update(rest, true),
            "delete" => self.cmd_update(rest, false),
            "commit" => self.cmd_commit(),
            "status" => self.cmd_status(),
            "stats" | ":stats" => self.cmd_stats(rest),
            "checkpoint" | ":checkpoint" => self.cmd_checkpoint(false),
            "compact" | ":compact" => self.cmd_checkpoint(true),
            "history" => self.cmd_history(),
            "check" => self.cmd_check(rest),
            "explain" => self.cmd_explain(rest),
            "witness" => self.cmd_witness(rest),
            other => Err(format!("unknown command '{other}' (try 'help')")),
        }
    }

    /// Freezes the schema (bringing the session up) with the shell's
    /// traditional wording for the empty-schema case.
    fn ensure_running(&mut self) -> Result<(), String> {
        if self.session.is_defining() && self.session.declared_preds() == 0 {
            return Err(
                "declare at least one predicate first (schema pred <name> <arity>)".to_owned(),
            );
        }
        self.session.freeze().map_err(msg)
    }

    fn cmd_schema(&mut self, rest: &str) -> Reply {
        if !self.session.is_defining() {
            return Err("the schema is frozen once constraints or updates exist".to_owned());
        }
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.as_slice() {
            ["pred", name, arity] => {
                let arity: usize = arity.parse().map_err(|_| format!("bad arity '{arity}'"))?;
                self.session.declare_pred(name, arity).map_err(msg)?;
                Ok(format!("predicate {name}/{arity}"))
            }
            ["const", name, "=", value] => {
                let value: Value = value.parse().map_err(|_| format!("bad value '{value}'"))?;
                self.session.declare_const(name, value).map_err(msg)?;
                Ok(format!("constant {name} = {value}"))
            }
            _ => {
                Err("usage: schema pred <name> <arity> | schema const <name> = <value>".to_owned())
            }
        }
    }

    fn cmd_constraint(&mut self, rest: &str) -> Reply {
        let Some((name, src)) = rest.split_once(':') else {
            return Err("usage: constraint <name>: <formula>".to_owned());
        };
        let (name, src) = (name.trim().to_owned(), src.trim().to_owned());
        self.ensure_running()?;
        let schema = self.session.schema().expect("running");
        let phi = parse(&schema, &src).map_err(|e| e.to_string())?;
        let class = ticc_fotl::classify::classify(&phi);
        let id = self
            .session
            .add_constraint(&name, phi.clone())
            .map_err(msg)?;
        let mut out = format!("constraint '{name}' registered ({class:?})");
        if !ticc_fotl::classify::is_syntactically_safe(&phi) {
            let _ = write!(
                out,
                "\nwarning: not syntactically safe — Theorem 4.2's guarantee assumes a \
                 safety sentence"
            );
        }
        if let Status::Violated { at } = self.session.status(id) {
            let _ = write!(out, "\nalready VIOLATED at history length {at}");
        }
        Ok(out)
    }

    fn cmd_trigger(&mut self, rest: &str) -> Reply {
        let Some((name, src)) = rest.split_once(':') else {
            return Err("usage: trigger <name>: <condition formula>".to_owned());
        };
        let (name, src) = (name.trim().to_owned(), src.trim().to_owned());
        self.ensure_running()?;
        let schema = self.session.schema().expect("running");
        let condition = parse(&schema, &src).map_err(|e| e.to_string())?;
        self.session.add_trigger(&name, condition).map_err(msg)?;
        Ok(format!("trigger '{name}' registered"))
    }

    fn cmd_update(&mut self, rest: &str, insert: bool) -> Reply {
        self.ensure_running()?;
        let schema = self.session.schema().expect("running");
        let (pred, tuple) = parse_fact(&schema, rest)?;
        let verb = if insert { "insert" } else { "delete" };
        self.session.stage(insert, pred, tuple).map_err(msg)?;
        Ok(format!("staged: {verb} {rest}"))
    }

    fn cmd_commit(&mut self) -> Reply {
        self.ensure_running()?;
        let committed = self.session.commit().map_err(msg)?;
        let history = self.session.history().expect("running");
        let mut out = format!(
            "t={}: committed {} update(s); state = {}",
            committed.t,
            committed.ops,
            history.state(committed.t).display()
        );
        for e in &committed.events {
            let _ = write!(
                out,
                "\n  VIOLATION: '{}' — unavoidable after {} state(s)",
                e.name, e.at
            );
        }
        for f in &committed.fired {
            let subst: Vec<String> = f
                .substitution
                .iter()
                .map(|(v, val)| format!("{v}={val}"))
                .collect();
            let _ = write!(
                out,
                "\n  TRIGGER: '{}' fires [{}]",
                f.name,
                subst.join(", ")
            );
        }
        Ok(out)
    }

    fn cmd_status(&mut self) -> Reply {
        self.ensure_running()?;
        let mut out = String::new();
        for (id, name, _) in self.session.constraints() {
            let line = match self.session.status(id) {
                Status::Satisfied => format!("{name}: potentially satisfied"),
                Status::Violated { at } => {
                    format!("{name}: VIOLATED (after {at} state(s))")
                }
            };
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&line);
        }
        if out.is_empty() {
            return Ok("no constraints registered".to_owned());
        }
        Ok(out)
    }

    fn cmd_stats(&mut self, rest: &str) -> Reply {
        let json = match rest {
            "" => false,
            "--json" => true,
            other => return Err(format!("usage: stats [--json] (got '{other}')")),
        };
        self.ensure_running()?;
        if json {
            return Ok(self.session.stats_json());
        }
        let mut out = self.session.stats().engine.render();
        let ts = self.session.trigger_stats();
        if ts.grounds > 0 {
            let _ = write!(
                out,
                "\ntrigger engine:\n  one-shot checks     {}\n  ground time         {:?}\n  \
                 sat time            {:?}",
                ts.grounds, ts.ground_time, ts.sat_time
            );
        }
        Ok(out)
    }

    /// `checkpoint` writes a snapshot of the whole session (schema,
    /// history, constraints, residues, triggers) to the attached store;
    /// `compact` additionally rewrites the log so it holds nothing but
    /// the session's registration and that snapshot.
    fn cmd_checkpoint(&mut self, compact: bool) -> Reply {
        self.ensure_running()?;
        if !self.session.has_store() {
            return Err("no store attached (run the shell with --store <path>)".to_owned());
        }
        let mut out = if compact {
            let bytes = self.session.compact().map_err(msg)?;
            format!("log compacted to a single {bytes} byte checkpoint")
        } else {
            let bytes = self.session.checkpoint().map_err(msg)?;
            format!("checkpoint written ({bytes} byte snapshot)")
        };
        // Under a bounded budget, show where the resident window the
        // snapshot captured starts.
        if let Some(engine) = self.session.engine() {
            let h = engine.history();
            if h.is_truncated() {
                let _ = write!(
                    out,
                    "\nretention horizon t={}: {} resident instant(s), {} spilled",
                    h.base(),
                    h.states().len(),
                    h.base()
                );
            }
        }
        Ok(out)
    }

    fn cmd_history(&mut self) -> Reply {
        self.ensure_running()?;
        // Materialise through the spill tier so the listing is the
        // same under every history budget.
        let h = self.session.full_history().map_err(msg)?.expect("running");
        if h.is_empty() {
            return Ok("history is empty (use insert/delete + commit)".to_owned());
        }
        let mut out = String::new();
        for (t, s) in h.states().iter().enumerate() {
            if t > 0 {
                out.push('\n');
            }
            let _ = write!(out, "t={t}: {}", s.display());
        }
        Ok(out)
    }

    fn cmd_check(&mut self, rest: &str) -> Reply {
        self.ensure_running()?;
        let opts = self.session.options();
        let h = self.session.full_history().map_err(msg)?.expect("running");
        let phi = parse(h.schema(), rest).map_err(|e| e.to_string())?;
        let out = check_potential_satisfaction(&h, &phi, &opts).map_err(|e| e.to_string())?;
        Ok(if out.potentially_satisfied {
            "potentially satisfied (an extension exists)".to_owned()
        } else {
            "NOT potentially satisfied (no extension can satisfy it)".to_owned()
        })
    }

    fn cmd_explain(&mut self, rest: &str) -> Reply {
        self.ensure_running()?;
        let opts = self.session.options();
        let h = self.session.full_history().map_err(msg)?.expect("running");
        let phi = parse(h.schema(), rest).map_err(|e| e.to_string())?;
        Ok(ticc_core::explain(&h, &phi, &opts))
    }

    fn cmd_witness(&mut self, rest: &str) -> Reply {
        self.ensure_running()?;
        let opts = self.session.options();
        let name = rest.trim();
        let Some(phi) = self
            .session
            .constraints()
            .find(|(_, n, _)| *n == name)
            .map(|(_, _, phi)| phi.clone())
        else {
            return Err(format!("no constraint named '{name}'"));
        };
        let h = self.session.full_history().map_err(msg)?.expect("running");
        let out = check_potential_satisfaction(&h, &phi, &opts).map_err(|e| e.to_string())?;
        let Some(w) = out.witness else {
            return Ok(format!(
                "'{name}' is violated: no extension exists, hence no witness"
            ));
        };
        let mut text =
            format!("one extension satisfying '{name}' (append after the current history):");
        for (i, s) in w.prefix.iter().enumerate() {
            let _ = write!(text, "\n  +{}: {}", i + 1, s.display());
        }
        for (i, s) in w.cycle.iter().enumerate() {
            let _ = write!(
                text,
                "\n  +{}: {}  (repeat forever)",
                w.prefix.len() + i + 1,
                s.display()
            );
        }
        Ok(text)
    }
}

const HELP: &str = "commands:
  schema pred <name> <arity>      declare a predicate (before first commit)
  schema const <name> = <value>   declare a rigid constant
  constraint <name>: <formula>    register a universal safety constraint
  trigger <name>: <formula>       register a condition-action trigger (Log)
  insert <Pred>(<v>, …)           stage a tuple insertion
  delete <Pred>(<v>, …)           stage a tuple deletion
  commit                          apply staged updates as the next state
  status                          constraint statuses
  stats [--json]                  engine counters, gauges, and timers
  checkpoint                      snapshot the session to the attached store
  compact                         checkpoint, then rewrite the log to just it
  history                         print all states
  check <formula>                 ad-hoc potential-satisfaction query
  explain <formula>               narrate the whole pipeline for a formula
  witness <name>                  a concrete extension satisfying a constraint
  help                            this text
  quit                            leave";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shell: &mut Shell, lines: &[&str]) -> Vec<Reply> {
        lines.iter().map(|l| shell.exec(l)).collect()
    }

    #[test]
    fn full_session_detects_violation() {
        let mut sh = Shell::new();
        let replies = run(
            &mut sh,
            &[
                "schema pred Sub 1",
                "schema pred Fill 1",
                "constraint once: forall x. G (Sub(x) -> X G !Sub(x))",
                "insert Sub(1)",
                "commit",
                "delete Sub(1)",
                "commit",
                "insert Sub(1)",
                "commit",
                "status",
            ],
        );
        for r in &replies {
            assert!(r.is_ok(), "unexpected error: {r:?}");
        }
        let last_commit = replies[8].as_ref().unwrap();
        assert!(
            last_commit.contains("VIOLATION"),
            "resubmission must violate: {last_commit}"
        );
        assert!(replies[9].as_ref().unwrap().contains("VIOLATED"));
    }

    #[test]
    fn triggers_fire_in_session() {
        let mut sh = Shell::new();
        run(
            &mut sh,
            &[
                "schema pred Sub 1",
                "trigger dup: F (Sub(x) & X F Sub(x))",
                "insert Sub(2)",
                "commit",
                "insert Sub(2)",
            ],
        );
        let r = sh.exec("commit").unwrap();
        assert!(r.contains("TRIGGER: 'dup' fires [x=2]"), "{r}");
    }

    #[test]
    fn schema_frozen_after_first_use() {
        let mut sh = Shell::new();
        sh.exec("schema pred P 1").unwrap();
        sh.exec("constraint c: G !P(3)").unwrap();
        let err = sh.exec("schema pred Q 1").unwrap_err();
        assert!(err.contains("frozen"));
    }

    #[test]
    fn constants_resolve_in_formulas() {
        let mut sh = Shell::new();
        run(
            &mut sh,
            &[
                "schema pred P 1",
                "schema const vip = 7",
                "constraint novip: G !P(vip)",
                "insert P(7)",
            ],
        );
        let r = sh.exec("commit").unwrap();
        assert!(r.contains("VIOLATION"), "{r}");
    }

    #[test]
    fn check_command_answers_adhoc_queries() {
        let mut sh = Shell::new();
        run(&mut sh, &["schema pred P 1", "insert P(1)", "commit"]);
        let yes = sh.exec("check G !P(2)").unwrap();
        assert!(yes.contains("potentially satisfied"));
        let no = sh.exec("check G !P(1)").unwrap();
        assert!(no.contains("NOT"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut sh = Shell::new();
        assert!(sh.exec("bogus").is_err());
        assert!(sh.exec("schema pred P 0").is_err());
        sh.exec("schema pred P 2").unwrap();
        assert!(sh.exec("insert P(1)").is_err(), "arity mismatch");
        assert!(sh.exec("insert Q(1)").is_err(), "unknown predicate");
        assert!(sh.exec("constraint broken: G !P(").is_err());
        // Shell still usable afterwards.
        sh.exec("insert P(1, 2)").unwrap();
        sh.exec("commit").unwrap();
    }

    #[test]
    fn unsafe_constraint_warns() {
        let mut sh = Shell::new();
        sh.exec("schema pred P 1").unwrap();
        let r = sh
            .exec("constraint live: forall x. G (P(x) -> F !P(x))")
            .unwrap();
        assert!(r.contains("warning"), "{r}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut sh = Shell::new();
        assert_eq!(sh.exec("").unwrap(), "");
        assert_eq!(sh.exec("# a comment").unwrap(), "");
    }

    #[test]
    fn stats_report_engine_activity() {
        let mut sh = Shell::new();
        run(
            &mut sh,
            &[
                "schema pred Sub 1",
                "constraint once: forall x. G (Sub(x) -> X G !Sub(x))",
                "trigger dup: F (Sub(x) & X F Sub(x))",
                "insert Sub(1)",
                "commit",
                "delete Sub(1)",
                "commit",
            ],
        );
        let r = sh.exec("stats").unwrap();
        assert!(r.contains("appends             2"), "{r}");
        assert!(r.contains("delta regrounds"), "{r}");
        assert!(r.contains("trigger engine:"), "{r}");
        // The colon-prefixed spelling works too.
        assert!(sh.exec(":stats").unwrap().contains("appends"));
    }

    #[test]
    fn uncached_session_matches_default() {
        // Every production shortcut — template automata and their edge
        // memo, indexed grounding, incremental encoding, delta
        // re-grounding — is a pure performance strategy: each
        // script replies line for line as under the paper-shaped
        // reference pipeline, which runs none of them.
        let once_only = [
            "schema pred Sub 1",
            "constraint once: forall x. G (Sub(x) -> X G !Sub(x))",
            "trigger dup: F (Sub(x) & X F Sub(x))",
            "insert Sub(1)",
            "commit",
            "insert Sub(1)",
            "commit",
            "status",
        ];
        // Walks an obligation across two instantiations, so the
        // compiled default binds, steps, and reports the violation
        // from u32 state.
        let template_automata = [
            "schema pred Sub 1",
            "schema pred Fill 1",
            "constraint response: forall x. G (Sub(x) -> X Fill(x))",
            "insert Sub(1)",
            "commit",
            "delete Sub(1)",
            "insert Fill(1)",
            "insert Sub(2)",
            "commit",
            "delete Fill(1)",
            "commit",
            "status",
        ];
        // k = 2, so the odometer's instantiation space is real.
        let grounding = [
            "schema pred Sub 1",
            "schema pred Rep 2",
            "constraint pair: forall x y. G (Rep(x, y) -> X G !Rep(x, y))",
            "insert Sub(1)",
            "insert Rep(1, 2)",
            "commit",
            "insert Rep(3, 4)",
            "commit",
            "insert Rep(1, 2)",
            "commit",
            "status",
        ];
        for script in [&once_only[..], &template_automata, &grounding] {
            let mut production = Shell::new();
            let mut reference = Shell::with_options(CheckOptions::reference());
            let mut violated = false;
            for line in script {
                let reply = production.exec(line);
                assert_eq!(reply, reference.exec(line), "diverged at '{line}'");
                violated |= reply.is_ok_and(|r| r.contains("VIOLATION"));
            }
            assert!(violated, "script must reach a violation: {script:?}");
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ticc-shell-{tag}-{}.wal", std::process::id()))
    }

    #[test]
    fn store_session_survives_restart() {
        let path = temp_store("restart");
        let _ = std::fs::remove_file(&path);
        {
            let (mut sh, summary) = Shell::with_store(CheckOptions::default(), &path).unwrap();
            assert!(summary.contains("opened store"), "{summary}");
            run(
                &mut sh,
                &[
                    "schema pred Sub 1",
                    "constraint once: forall x. G (Sub(x) -> X G !Sub(x))",
                    "trigger dup: F (Sub(x) & X F Sub(x))",
                    "insert Sub(1)",
                    "commit",
                ],
            );
            let r = sh.exec("checkpoint").unwrap();
            assert!(r.contains("checkpoint written"), "{r}");
            // Logged after the checkpoint: must replay on reopen.
            sh.exec("delete Sub(1)").unwrap();
            sh.exec("commit").unwrap();
        }
        let (mut sh, summary) = Shell::with_store(CheckOptions::default(), &path).unwrap();
        assert!(
            summary.contains("restored from") && summary.contains("replayed 1"),
            "{summary}"
        );
        let h = sh.exec("history").unwrap();
        assert!(h.contains("t=0: {Sub(1)}") && h.contains("t=1: {}"), "{h}");
        // The restored constraint and trigger behave as if the session
        // never stopped: resubmitting Sub(1) violates and fires.
        sh.exec("insert Sub(1)").unwrap();
        let r = sh.exec("commit").unwrap();
        assert!(r.contains("VIOLATION: 'once'"), "{r}");
        assert!(r.contains("TRIGGER: 'dup' fires [x=1]"), "{r}");
        // Compact, reopen once more: still intact.
        sh.exec("compact").unwrap();
        drop(sh);
        let (mut sh, summary) = Shell::with_store(CheckOptions::default(), &path).unwrap();
        assert!(summary.contains("replayed 0"), "{summary}");
        assert!(sh.exec("status").unwrap().contains("VIOLATED"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_without_checkpoint_replays_after_schema_redeclared() {
        let path = temp_store("nockpt");
        let _ = std::fs::remove_file(&path);
        {
            let (mut sh, _) = Shell::with_store(CheckOptions::default(), &path).unwrap();
            run(&mut sh, &["schema pred P 1", "insert P(7)", "commit"]);
        }
        let (mut sh, summary) = Shell::with_store(CheckOptions::default(), &path).unwrap();
        assert!(
            summary.contains("1 logged transaction(s) will replay"),
            "{summary}"
        );
        sh.exec("schema pred P 1").unwrap();
        let h = sh.exec("history").unwrap();
        assert!(h.contains("t=0: {P(7)}"), "{h}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_store_reports_friendly_error() {
        let path = temp_store("corrupt");
        std::fs::write(&path, b"definitely not a ticc store").unwrap();
        let err = match Shell::with_store(CheckOptions::default(), &path) {
            Ok(_) => panic!("a corrupt file must not open as a store"),
            Err(e) => e,
        };
        assert!(err.contains("cannot open store"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_needs_a_store() {
        let mut sh = Shell::new();
        sh.exec("schema pred P 1").unwrap();
        let err = sh.exec("checkpoint").unwrap_err();
        assert!(err.contains("--store"), "{err}");
    }

    #[test]
    fn stats_json_is_versioned_and_machine_readable() {
        let path = temp_store("json");
        let _ = std::fs::remove_file(&path);
        let (mut sh, _) = Shell::with_store(CheckOptions::default(), &path).unwrap();
        run(
            &mut sh,
            &["schema pred P 1", "insert P(1)", "commit", "checkpoint"],
        );
        let j = sh.exec("stats --json").unwrap();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"schema\":\"ticc-engine-stats-v4\""), "{j}");
        assert!(j.contains("\"appends\":1"), "{j}");
        assert!(j.contains("\"automata\":{\"templates_compiled\":"), "{j}");
        // The session's log: registration, one transaction, one
        // snapshot.
        assert!(j.contains("\"store\":{\"frames\":3,"), "{j}");
        // v2 layers the session and server objects over the v1 fields.
        assert!(j.contains("\"session\":{\"commits\":1"), "{j}");
        assert!(j.contains("\"server\":null"), "{j}");
        assert!(sh.exec("stats bogus").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn history_lists_states() {
        let mut sh = Shell::new();
        run(
            &mut sh,
            &["schema pred P 1", "insert P(1)", "commit", "commit"],
        );
        let h = sh.exec("history").unwrap();
        assert!(h.contains("t=0: {P(1)}"));
        assert!(h.contains("t=1: {P(1)}"), "snapshots persist: {h}");
    }
}
