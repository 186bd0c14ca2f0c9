//! Register-dispatch edge cases around the byte-offset `Location`
//! contract: fuel suspension and resume under `Dispatch::Register`,
//! probe attach/detach while suspended, demotion of a parked register
//! frame when its function gains an overlay mid-run, and OSR tier-up
//! from the register interpreter into register-shaped compiled code.

use std::cell::Cell;
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{
    ClosureProbe, CountProbe, Dispatch, EngineConfig, ExecMode, Process, RunOutcome, Value,
};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::ValType::I32;
use wizard_wasm::validate::ModuleMeta;

/// `sum(n) = 0 + 1 + ... + n-1` via a loop (a tier-up candidate).
fn sum_module() -> (Module, ModuleMeta) {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("sum", f);
    mb.build_with_meta().unwrap()
}

fn register() -> EngineConfig {
    EngineConfig::interpreter_register()
}

fn tiered_register(threshold: u32) -> EngineConfig {
    EngineConfig::builder()
        .mode(ExecMode::Tiered)
        .dispatch(Dispatch::Register)
        .tierup_threshold(threshold)
        .build()
}

/// Drives a suspended process to completion, returning the results and
/// the number of resume slices it took.
fn drain(p: &mut Process, fuel: u64) -> (Vec<Value>, u64) {
    let mut slices = 0;
    loop {
        slices += 1;
        match p.resume(fuel).expect("no trap") {
            RunOutcome::Done(v) => return (v, slices),
            RunOutcome::OutOfFuel => {}
        }
    }
}

#[test]
fn register_dispatch_computes_and_counts_lowering() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, register(), &Linker::new()).unwrap();
    let r = p.invoke_export("sum", &[Value::I32(50)]).unwrap();
    assert_eq!(r, vec![Value::I32(1225)]);
    let stats = p.stats();
    assert_eq!(stats.functions_reg_lowered, 1, "sum lowered to register form");
    assert_eq!(stats.reg_fallbacks, 0);
    assert_eq!(stats.reg_demotions, 0, "nothing forced the stack tier");
}

/// Fuel exhaustion mid-loop under register dispatch: the bounded run
/// suspends and resumes to the same result, and a probe at the loop
/// header fires exactly as often as in an unbounded run, for every
/// slice size. (Metered slices run on the stack tier by policy; the
/// probe counts prove the switch is invisible.)
#[test]
fn bounded_register_run_keeps_probe_counts_exact() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];

    let expected = {
        let mut p = Process::new(m.clone(), register(), &Linker::new()).unwrap();
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let cell = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        let r = p.invoke(f, &[Value::I32(40)]).unwrap();
        assert_eq!(r, vec![Value::I32(780)]);
        cell.get()
    };
    assert!(expected > 0);

    for slice in [1u64, 2, 5, 13] {
        let mut p = Process::new(m.clone(), register(), &Linker::new()).unwrap();
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let cell = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        match p.run_bounded(f, &[Value::I32(40)], slice).unwrap() {
            RunOutcome::Done(r) => assert_eq!(r, vec![Value::I32(780)]),
            RunOutcome::OutOfFuel => {
                let (r, slices) = drain(&mut p, slice);
                assert_eq!(r, vec![Value::I32(780)]);
                assert!(slices > 1, "slice {slice} should preempt repeatedly");
            }
        }
        assert_eq!(cell.get(), expected, "slice {slice} changed probe fires");
    }
}

/// Probe attach and detach while a register-dispatch process is
/// suspended mid-loop: the probe fires on the resumed slices, stops at
/// detach, and the run still completes correctly. A subsequent
/// unbounded invocation goes back to the register tier.
#[test]
fn probe_attach_detach_while_suspended() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, register(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();

    let out = p.run_bounded(f, &[Value::I32(60)], 25).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    assert!(p.is_suspended());

    // Attach at the loop header while parked mid-loop.
    let probe = CountProbe::new();
    let cell = probe.cell();
    let id = p.add_local_probe_val(f, loop_pc, probe).unwrap();
    assert_eq!(p.resume(25).unwrap(), RunOutcome::OutOfFuel);
    assert_eq!(p.resume(25).unwrap(), RunOutcome::OutOfFuel);
    let fired_while_attached = cell.get();
    assert!(fired_while_attached > 0, "probe fired on resumed slices");

    // Detach while still suspended: no further fires.
    p.remove_probe(id).unwrap();
    let (r, _) = drain(&mut p, 25);
    assert_eq!(r, vec![Value::I32(1770)]);
    assert_eq!(cell.get(), fired_while_attached, "no fires after detach");

    // Back to the register tier for the next unbounded run.
    let r = p.invoke(f, &[Value::I32(10)]).unwrap();
    assert_eq!(r, vec![Value::I32(45)]);
    assert_eq!(p.stats().reg_demotions, 0, "suspended slices never held register frames");
}

/// Deopt at a probed site: a register-tier frame parks at a call; the
/// callee's probe instruments the *caller's* loop header; on return the
/// parked register frame demotes to the stack tier (counted), resumes
/// at its byte pc, and the freshly inserted probe fires for the rest of
/// the loop — behavior identical to the lowered-dispatch run.
#[test]
fn parked_register_frame_demotes_when_probed_mid_run() {
    let build = || {
        let mut mb = ModuleBuilder::new();
        // outer = func 0: acc += helper(i) over i in 0..n.
        let mut fo = FuncBuilder::new(&[I32], &[I32]);
        let i = fo.local(I32);
        let acc = fo.local(I32);
        fo.for_range(i, 0, |f| {
            f.local_get(acc);
            f.local_get(i).call(1);
            f.i32_add().local_set(acc);
        });
        fo.local_get(acc);
        mb.add_func("outer", fo);
        // helper = func 1: i + 1.
        let mut fh = FuncBuilder::new(&[I32], &[I32]);
        fh.local_get(0).i32_const(1).i32_add();
        mb.add_func("helper", fh);
        mb.build_with_meta().unwrap()
    };

    let run = |config: EngineConfig| {
        let (m, meta) = build();
        let loop_pc = meta.funcs[0].loop_headers[0];
        let mut p = Process::new(m, config, &Linker::new()).unwrap();
        let outer = p.module().export_func("outer").unwrap();
        let helper = p.module().export_func("helper").unwrap();

        let loop_fires = Rc::new(Cell::new(0u64));
        let inserted = Rc::new(Cell::new(false));
        let (lf2, ins2) = (Rc::clone(&loop_fires), Rc::clone(&inserted));
        p.add_local_probe(
            helper,
            0,
            ClosureProbe::shared(move |ctx| {
                if !ins2.get() {
                    ins2.set(true);
                    let lf3 = Rc::clone(&lf2);
                    ctx.insert_local_probe(
                        outer,
                        loop_pc,
                        ClosureProbe::shared(move |_| lf3.set(lf3.get() + 1)),
                    );
                }
            }),
        )
        .unwrap();

        let r = p.invoke(outer, &[Value::I32(10)]).unwrap();
        assert_eq!(r, vec![Value::I32(55)]);
        assert!(p.has_overlay(outer), "insertion copy-on-wrote outer mid-run");
        (loop_fires.get(), p.stats())
    };

    let (ref_fires, ref_stats) = run(EngineConfig::interpreter());
    assert!(ref_fires > 0);
    assert_eq!(ref_stats.reg_demotions, 0);

    let (fires, stats) = run(register());
    assert_eq!(fires, ref_fires, "mid-run instrumentation fires identically");
    assert!(stats.reg_demotions > 0, "the parked register frame demoted");
    assert_eq!(stats.functions_reg_lowered, 2);
}

/// OSR under tiered register dispatch: the loop gets hot inside the
/// register interpreter, tiers up at the loop header into
/// register-shaped compiled code, and finishes with the same result —
/// across plain and fuel-sliced runs.
#[test]
fn tiered_register_osr_tier_up() {
    let (m, _) = sum_module();
    let mut p = Process::new(m.clone(), tiered_register(3), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let r = p.invoke(f, &[Value::I32(200)]).unwrap();
    assert_eq!(r, vec![Value::I32(19_900)]);
    assert!(p.is_compiled(f), "hot loop tiered up");
    assert!(p.stats().tier_ups > 0);
    assert_eq!(p.stats().functions_reg_lowered, 1);

    // Fuel-sliced on the same config: metered slices stay on the stack
    // tiers by policy, same result, and suspension really happened.
    let mut p = Process::new(m, tiered_register(3), &Linker::new()).unwrap();
    let out = p.run_export_bounded("sum", &[Value::I32(200)], 97).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    let (r, slices) = drain(&mut p, 97);
    assert_eq!(r, vec![Value::I32(19_900)]);
    assert!(slices > 1);
}

/// A global probe forces global mode: every frame runs the in-place
/// instrumented interpreter even under register dispatch, and removing
/// the probe hands execution back to the register tier.
#[test]
fn global_probe_suppresses_register_tier_then_releases_it() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, register(), &Linker::new()).unwrap();
    let count = Rc::new(Cell::new(0u64));
    let c = Rc::clone(&count);
    let id = p.add_global_probe(ClosureProbe::shared(move |_| c.set(c.get() + 1))).unwrap();
    let r = p.invoke_export("sum", &[Value::I32(30)]).unwrap();
    assert_eq!(r, vec![Value::I32(435)]);
    assert!(count.get() > 100, "global probe fired per instruction");
    p.remove_probe(id).unwrap();
    let fired = count.get();
    let r = p.invoke_export("sum", &[Value::I32(30)]).unwrap();
    assert_eq!(r, vec![Value::I32(435)]);
    assert_eq!(count.get(), fired, "register-tier rerun fires no global probes");
}
