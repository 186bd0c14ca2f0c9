//! Differential testing of the execution pipeline — the safety net for the
//! lowering refactor, wired into `cargo test` (unlike `proptests.rs`,
//! which needs the external `proptest` crate).
//!
//! A deterministic PRNG drives a small program generator over the builder
//! DSL (arithmetic, locals, `if`/`else`, nested loops, trapping division).
//! Every generated module must behave *identically* — results, traps,
//! monitor reports — across:
//!
//! * the in-place interpreter (the semantic reference) vs JIT-only vs
//!   tiered execution;
//! * uninstrumented vs probe-instrumented (hotness counts every
//!   instruction, so every instruction carries a probe byte);
//! * unbounded vs fuel-bounded execution resumed across suspensions, with
//!   the fuel charged and the suspensions taken identical in every tier.

use std::sync::Arc;

use wizard::engine::store::Linker;
use wizard::engine::{
    Dispatch, EngineConfig, ExecMode, ModuleArtifact, Process, RunOutcome, Trap, Value,
};
use wizard::monitors::HotnessMonitor;
use wizard::suites::randgen::random_module;
use wizard::wasm::Module;

fn configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("interp-bytecode", EngineConfig::interpreter_bytecode()),
        ("jit", EngineConfig::jit()),
        (
            "tiered-bytecode",
            EngineConfig::builder()
                .mode(ExecMode::Tiered)
                .dispatch(Dispatch::Bytecode)
                .tierup_threshold(2)
                .build(),
        ),
    ]
}

fn run_plain(m: &Module, config: EngineConfig, arg: i32) -> Result<Vec<Value>, Trap> {
    let mut p = Process::new(m.clone(), config, &Linker::new()).expect("instantiates");
    p.invoke_export("run", &[Value::I32(arg)])
}

/// Results and traps are identical across every dispatcher and tier.
#[test]
fn random_programs_agree_across_dispatchers_and_tiers() {
    for seed in 0..40u64 {
        let m = random_module(seed);
        for arg in [0i32, 3, 17] {
            let reference = run_plain(&m, EngineConfig::interpreter_bytecode(), arg);
            for (name, config) in configs() {
                let got = run_plain(&m, config, arg);
                assert_eq!(got, reference, "seed {seed} arg {arg} config {name}");
            }
        }
    }
}

/// Probe-instrumented runs (hotness counts every instruction — every
/// instruction probed) produce identical results AND identical reports
/// across dispatchers and tiers, and never perturb the program.
#[test]
fn random_programs_probed_reports_are_dispatcher_invariant() {
    for seed in 0..20u64 {
        let m = random_module(seed + 1000);
        let arg = 9i32;
        let reference = run_plain(&m, EngineConfig::interpreter_bytecode(), arg);
        let mut reports = Vec::new();
        for (name, config) in configs() {
            let mut p = Process::new(m.clone(), config, &Linker::new()).expect("instantiates");
            let mon = p.attach_monitor(HotnessMonitor::new()).expect("attach");
            let got = p.invoke_export("run", &[Value::I32(arg)]);
            assert_eq!(got, reference, "seed {seed} config {name}: probes perturbed the program");
            reports.push((name, mon.report()));
        }
        let (ref_name, ref_report) = &reports[0];
        for (name, report) in &reports[1..] {
            assert_eq!(report, ref_report, "seed {seed}: {name} report differs from {ref_name}");
        }
    }
}

/// Shared-artifact arm: two processes instantiated from one
/// `Arc<ModuleArtifact>` — one probed (every instruction) and then
/// detached, one left alone — must match an owned-module process
/// instruction-for-instruction and report-for-report, across every
/// dispatcher/tier and under fuel-bounded execution.
#[test]
fn random_programs_shared_artifact_processes_match_owned() {
    for seed in 0..12u64 {
        let m = random_module(seed + 3000);
        let arg = 8i32;
        let artifact = Arc::new(ModuleArtifact::new(m.clone()).expect("validates"));
        for (name, config) in configs() {
            // Reference: an owned-module process with the same monitor.
            let mut owned =
                Process::new(m.clone(), config.clone(), &Linker::new()).expect("instantiates");
            let mon_o = owned.attach_monitor(HotnessMonitor::new()).expect("attach");
            let expect = owned.invoke_export("run", &[Value::I32(arg)]);

            let mut probed =
                Process::instantiate(Arc::clone(&artifact), config.clone(), &Linker::new())
                    .expect("instantiates");
            let mut sibling =
                Process::instantiate(Arc::clone(&artifact), config.clone(), &Linker::new())
                    .expect("instantiates");

            // The probed sibling, fuel-bounded across tiny slices.
            let mon_p = probed.attach_monitor(HotnessMonitor::new()).expect("attach");
            let got = (|| {
                let mut out = probed.run_export_bounded("run", &[Value::I32(arg)], 29)?;
                while out == RunOutcome::OutOfFuel {
                    out = probed.resume(29)?;
                }
                Ok(out.done().expect("done"))
            })();
            assert_eq!(
                got, expect,
                "seed {seed} config {name}: shared-artifact result differs from owned"
            );
            assert_eq!(
                mon_p.report(),
                mon_o.report(),
                "seed {seed} config {name}: shared-artifact report differs from owned"
            );

            // The uninstrumented sibling: identical program behavior, zero
            // instrumentation observed, zero copies paid.
            let got_sib = sibling.invoke_export("run", &[Value::I32(arg)]);
            assert_eq!(got_sib, expect, "seed {seed} config {name}: sibling result differs");
            assert_eq!(sibling.stats().probe_fires, 0, "seed {seed} {name}: sibling saw probes");
            assert_eq!(sibling.resident_overlay_bytes(), 0);

            // Detach restores sharing: the probed process drops its copies
            // and rejoins the artifact's code.
            let handle = mon_p.handle();
            probed.detach_monitor(handle).expect("detach");
            assert_eq!(
                probed.resident_overlay_bytes(),
                0,
                "seed {seed} config {name}: detach left overlay copies resident"
            );
            let func = probed.module().export_func("run").unwrap();
            assert_eq!(
                probed.code_identity(func).unwrap(),
                sibling.code_identity(func).unwrap(),
                "seed {seed} config {name}: detach did not rejoin the shared code"
            );
        }
    }
}

/// Translation-validator arm: every random module's lowered form is
/// effect-equivalent to its byte form — checked directly over the
/// artifact, through the engine-side `validate_lowering(true)` hook, and
/// again after a full probe insert/remove cycle (instrumentation must
/// never perturb the canonical lowering).
#[test]
fn random_programs_lowerings_translation_validate() {
    wizard::analysis::install_engine_validator();

    // Direct arm: lower and validate a wide sweep of random modules.
    for seed in 0..500u64 {
        let m = random_module(seed + 4000);
        let artifact = ModuleArtifact::new(m).expect("validates");
        artifact.lower_all();
        wizard::analysis::validate_lowering(&artifact)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }

    // Engine-hook arm: instantiate with validation enabled, probe every
    // instruction, run, detach, and re-validate the shared lowering.
    for seed in 0..40u64 {
        let m = random_module(seed + 4000);
        let artifact = Arc::new(ModuleArtifact::new(m).expect("validates"));
        let config = EngineConfig::builder().validate_lowering(true).build();
        let mut p = Process::instantiate(Arc::clone(&artifact), config, &Linker::new())
            .unwrap_or_else(|e| panic!("seed {seed}: validated instantiate failed: {e}"));
        assert_eq!(p.stats().lowering_validations, 1, "seed {seed}");
        let mon = p.attach_monitor(HotnessMonitor::new()).expect("attach");
        let _ = p.invoke_export("run", &[Value::I32(5)]);
        p.detach_monitor(mon.handle()).expect("detach");
        wizard::analysis::validate_lowering(&artifact)
            .unwrap_or_else(|e| panic!("seed {seed} after probe cycle: {e}"));
    }
}

/// Fuel-bounded runs suspended and resumed across tiny slices finish with
/// the same results, traps, and monitor reports as unbounded runs — and
/// every tier charges exactly the interpreter's fuel (one unit per
/// bytecode instruction) and suspends exactly as often, uninstrumented
/// and probed alike.
#[test]
fn random_programs_bounded_runs_are_transparent() {
    for seed in 0..12u64 {
        let m = random_module(seed + 2000);
        let arg = 7i32;
        // (fuel consumed, suspensions) of the interp-bytecode arm (the
        // first config), per instrumentation.
        let mut oracle: [Option<(u64, u64)>; 2] = [None, None];
        for (name, config) in configs() {
            for (probed, want) in [false, true].into_iter().zip(&mut oracle) {
                let mut unbounded =
                    Process::new(m.clone(), config.clone(), &Linker::new()).expect("instantiates");
                let mon_u = probed
                    .then(|| unbounded.attach_monitor(HotnessMonitor::new()).expect("attach"));
                let expect = unbounded.invoke_export("run", &[Value::I32(arg)]);

                let mut bounded =
                    Process::new(m.clone(), config.clone(), &Linker::new()).expect("instantiates");
                let mon_b =
                    probed.then(|| bounded.attach_monitor(HotnessMonitor::new()).expect("attach"));
                let got = (|| {
                    let mut out = bounded.run_export_bounded("run", &[Value::I32(arg)], 37)?;
                    while out == RunOutcome::OutOfFuel {
                        out = bounded.resume(37)?;
                    }
                    Ok(out.done().expect("done"))
                })();
                assert_eq!(
                    got, expect,
                    "seed {seed} config {name} probed {probed}: result differs"
                );
                if let (Some(b), Some(u)) = (&mon_b, &mon_u) {
                    assert_eq!(
                        b.report(),
                        u.report(),
                        "seed {seed} config {name}: bounded report differs"
                    );
                }
                let stats = bounded.stats();
                let fuel = (stats.fuel_consumed, stats.suspensions);
                assert_eq!(
                    fuel,
                    *want.get_or_insert(fuel),
                    "seed {seed} config {name} probed {probed}: (fuel, suspensions) differ from \
                     interp-bytecode"
                );
            }
        }
    }
}
