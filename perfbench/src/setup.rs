//! `setup_s`: set-ups timed in child processes.
//!
//! Each set-up runs in a fresh child process of this program
//! (`--setup-only 1`), so every one starts with empty in-process caches,
//! the decode cache (`Decoded::new`) above all, which would otherwise
//! serve every set-up after the first.

use std::process::Command;

use crate::report::median;
use crate::Args;

/// Set-ups timed per run: at least `REPS` taking `MIN_S` seconds in
/// total, at most `MAX_REPS`.
const REPS: usize = 5;
const MIN_S: f64 = 3.0;
const MAX_REPS: usize = 40;

/// The set-ups timed so far.
pub struct Setups {
    /// Arguments of the child: this run's, plus `--setup-only 1`.
    child_args: Vec<String>,
    /// False on a traced run, which reports no `setup_s`.
    enabled: bool,
    secs: Vec<f64>,
    error: Option<String>,
}

impl Setups {
    pub fn new(args: &Args) -> Setups {
        let child_args = [
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--setup-only",
            "1",
        ];
        Setups {
            child_args: child_args.iter().map(|s| s.to_string()).collect(),
            enabled: !args.trace,
            secs: Vec::new(),
            error: None,
        }
    }

    /// True once no more set-ups are needed (or one failed).
    fn enough(&self) -> bool {
        !self.enabled
            || self.error.is_some()
            || self.secs.len() >= MAX_REPS
            || (self.secs.len() >= REPS && self.secs.iter().sum::<f64>() >= MIN_S)
    }

    /// Times up to `n` more set-ups, one child process at a time.
    pub fn time(&mut self, n: usize) {
        for _ in 0..n {
            if self.enough() {
                return;
            }
            match self.one() {
                Ok(s) => self.secs.push(s),
                Err(e) => self.error = Some(e),
            }
        }
    }

    fn one(&self) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
        let child = Command::new(exe)
            .args(&self.child_args)
            .output()
            .map_err(|e| format!("starting a set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        match stdout.trim().parse::<f64>() {
            Ok(s) if child.status.success() => Ok(s),
            _ => Err(format!(
                "set-up process failed ({}): {}",
                child.status,
                String::from_utf8_lossy(&child.stderr).trim()
            )),
        }
    }

    /// Times the set-ups still needed, then returns the median.
    pub fn finish(mut self) -> Result<f64, String> {
        self.time(MAX_REPS);
        match self.error {
            Some(e) => Err(e),
            None => {
                println!("set-ups: {} cold processes", self.secs.len());
                Ok(median(&self.secs))
            }
        }
    }
}
