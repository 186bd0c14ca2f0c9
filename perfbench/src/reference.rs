//! Expected outputs, produced by the byte-walking reference dispatch
//! (`EngineConfig::interpreter_bytecode()`, the repository's differential
//! oracle) and committed as `reference.tsv` beside the benchmark.
//!
//! Regenerate with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-reference`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wizard_engine::EngineConfig;

use crate::programs::{run_job, Analysis, Observed, Program};
use crate::spans::Tracer;

/// The committed table, next to this file.
pub const PATH: &str = "perfbench/reference.tsv";

/// Expected output per `(program, analysis)`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Reference {
    rows: BTreeMap<(String, Analysis), Observed>,
}

impl Reference {
    /// Records an expected output.
    pub fn insert(&mut self, program: &str, analysis: Analysis, expect: Observed) {
        self.rows.insert((program.to_string(), analysis), expect);
    }

    /// The expected output; a missing row is an error.
    pub fn row(&self, program: &str, analysis: Analysis) -> Result<Observed, String> {
        self.rows
            .get(&(program.to_string(), analysis))
            .copied()
            .ok_or_else(|| format!("{program}/{}: no reference row", analysis.name()))
    }

    /// Checks one job's output: a missing row is a failure too.
    pub fn check(&self, program: &str, analysis: Analysis, got: &Observed) -> Result<(), String> {
        let want = self.row(program, analysis)?;
        if want == *got {
            Ok(())
        } else {
            Err(format!("{program}/{}: got {got:?}, reference {want:?}", analysis.name()))
        }
    }

    /// Parses the tab-separated table.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("{PATH}:{}: malformed row", i + 1);
            let [program, analysis, checksum, a, b] = f.as_slice() else { return Err(bad()) };
            let analysis = Analysis::parse(analysis).ok_or_else(bad)?;
            let expect = Observed {
                checksum: checksum.parse().map_err(|_| bad())?,
                a: a.parse().map_err(|_| bad())?,
                b: b.parse().map_err(|_| bad())?,
            };
            r.insert(program, analysis, expect);
        }
        Ok(r)
    }

    /// Renders the table; [`Reference::parse`] reads it back.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Expected outputs from EngineConfig::interpreter_bytecode().\n\
             # program\tanalysis\tchecksum\ta\tb\n",
        );
        for ((program, analysis), o) in &self.rows {
            let _ =
                writeln!(out, "{program}\t{}\t{}\t{}\t{}", analysis.name(), o.checksum, o.a, o.b);
        }
        out
    }

    /// Loads the committed table.
    pub fn load() -> Result<Reference, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
        Reference::parse(&text)
    }
}

/// Runs `p` under `analysis` on the reference dispatch.
pub fn oracle(p: &Program, analysis: Analysis) -> Result<Observed, String> {
    let mut off = Tracer::new(false);
    run_job(p, analysis, &EngineConfig::interpreter_bytecode(), &mut off, 0).map(|(o, _)| o)
}

/// Builds the whole table for the fixed program sets.
pub fn generate(sets: &[(Vec<Program>, Vec<Analysis>)]) -> Result<Reference, String> {
    let mut r = Reference::default();
    for (programs, analyses) in sets {
        for p in programs {
            for a in analyses {
                eprintln!("reference: {} / {}", p.name, a.name());
                r.insert(&p.name, *a, oracle(p, *a)?);
            }
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_checks() {
        let mut r = Reference::default();
        r.insert("gemm", Analysis::Hotness, Observed { checksum: -5, a: 10, b: 0 });
        r.insert("crc32", Analysis::Trace, Observed { checksum: 1, a: 2, b: u64::MAX });
        let back = Reference::parse(&r.render()).unwrap();
        assert_eq!(back, r);
        assert!(back
            .check("gemm", Analysis::Hotness, &Observed { checksum: -5, a: 10, b: 0 })
            .is_ok());
        assert!(back
            .check("gemm", Analysis::Hotness, &Observed { checksum: -5, a: 11, b: 0 })
            .is_err());
        assert!(back.check("gemm", Analysis::None, &Observed::default()).is_err());
        assert!(Reference::parse("gemm\thotness\tx\t1\t2\n").is_err());
        assert!(Reference::parse("gemm\tbogus\t1\t1\t2\n").is_err());
    }

    #[test]
    fn the_oracle_agrees_with_the_default_engine() {
        let m = wizard_suites::richards_benchmark(2);
        let p = Program::from_module("richards", &m.module, m.n);
        let mut off = Tracer::new(false);
        for a in Analysis::PROBED {
            let (got, _) = run_job(&p, a, &EngineConfig::default(), &mut off, 0).unwrap();
            let want = oracle(&p, a).unwrap();
            let mut r = Reference::default();
            r.insert("richards", a, want);
            assert!(r.check("richards", a, &got).is_ok(), "{a:?}: {got:?} vs {want:?}");
        }
    }
}
