//! Seeded modules for `probe-churn`: several functions per module, so
//! decode, validation, artifact build and lowering see larger bodies than
//! `wizard_suites::randgen::random_module` makes. Programs never trap
//! (no division) and always terminate (every loop has a constant or
//! parameter bound, and only leaf functions are called).

use wizard_suites::randgen::Rng;
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::{FuncIdx, Module};
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::I32;

/// Pushes one i32.
fn expr(f: &mut FuncBuilder, rng: &mut Rng, locals: u32, depth: u32) {
    if depth == 0 || rng.below(3) == 0 {
        if rng.below(3) == 0 {
            f.i32_const(rng.next() as i32 >> 8);
        } else {
            f.local_get(rng.below(u64::from(locals)) as u32);
        }
        return;
    }
    match rng.below(10) {
        0..=6 => {
            expr(f, rng, locals, depth - 1);
            expr(f, rng, locals, depth - 1);
            match rng.below(9) {
                0 => f.i32_add(),
                1 => f.i32_sub(),
                2 => f.i32_mul(),
                3 => f.i32_and(),
                4 => f.i32_xor(),
                5 => f.i32_or(),
                6 => f.i32_shl(),
                7 => f.i32_shr_s(),
                _ => f.i32_rotl(),
            };
        }
        7 => {
            expr(f, rng, locals, depth - 1);
            f.i32_eqz();
        }
        8 => {
            expr(f, rng, locals, depth - 1);
            expr(f, rng, locals, depth - 1);
            f.i32_lt_s();
        }
        _ => {
            expr(f, rng, locals, depth - 1);
            expr(f, rng, locals, depth - 1);
            expr(f, rng, locals, depth - 1);
            f.select();
        }
    }
}

/// One statement with no net stack effect; `leaves` may be called.
fn stmt(f: &mut FuncBuilder, rng: &mut Rng, locals: u32, leaves: &[FuncIdx], depth: u32) {
    // Local 0 is the loop bound parameter and is never written.
    let dst = 1 + rng.below(u64::from(locals - 1)) as u32;
    match rng.below(8) {
        0..=3 => {
            expr(f, rng, locals, 3);
            f.local_set(dst);
        }
        4 | 5 => {
            expr(f, rng, locals, 2);
            f.if_(BlockType::Empty);
            stmt(f, rng, locals, leaves, depth.saturating_sub(1));
            if rng.below(2) == 0 {
                f.else_();
                stmt(f, rng, locals, leaves, depth.saturating_sub(1));
            }
            f.end();
        }
        6 if !leaves.is_empty() => {
            f.i32_const(1 + rng.below(2) as i32);
            f.call(leaves[rng.below(leaves.len() as u64) as usize]);
            f.local_get(dst).i32_add().local_set(dst);
        }
        _ if depth > 0 => {
            let i = f.local(I32);
            let n = 2 + rng.below(2) as i32;
            let body = 1 + rng.below(3);
            f.for_const(i, n, |f| {
                for _ in 0..body {
                    stmt(f, rng, locals, leaves, depth - 1);
                }
            });
        }
        _ => {
            expr(f, rng, locals, 2);
            f.local_set(dst);
        }
    }
}

/// A function `(i32) -> i32` looping `param` times over random statements.
fn function(rng: &mut Rng, leaves: &[FuncIdx], stmts: u64) -> FuncBuilder {
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let declared = 3 + rng.below(4) as u32;
    for k in 0..declared {
        f.local(I32);
        f.local_get(0).i32_const(k as i32 * 7 + 1).i32_mul().local_set(k + 1);
    }
    let locals = 1 + declared;
    let i = f.local(I32);
    f.for_range(i, 0, |f| {
        for _ in 0..stmts {
            stmt(f, rng, locals, leaves, 2);
        }
    });
    f.local_get(1);
    for k in 2..locals {
        f.local_get(k).i32_xor();
    }
    f
}

/// A module with 2 leaf functions, 4 callers and an exported
/// `run(n) -> checksum`; deterministic in `seed`.
pub fn churn_module(seed: u64) -> Module {
    let mut rng = Rng::new(seed);
    let mut mb = ModuleBuilder::new();
    let mut leaves = Vec::new();
    for k in 0..2 {
        let stmts = 6 + rng.below(3);
        let f = function(&mut rng, &[], stmts);
        leaves.push(mb.add_private_func(&format!("leaf{k}"), f));
    }
    let mut callers = Vec::new();
    for k in 0..4 {
        let stmts = 10 + rng.below(4);
        let f = function(&mut rng, &leaves, stmts);
        callers.push(mb.add_private_func(&format!("f{k}"), f));
    }
    let mut run = FuncBuilder::new(&[I32], &[I32]);
    let acc = run.local(I32);
    let i = run.local(I32);
    run.for_range(i, 0, |f| {
        for c in &callers {
            f.local_get(i).i32_const(1).i32_and().i32_const(1).i32_add();
            f.call(*c);
            f.local_get(acc).i32_add().local_set(acc);
        }
    });
    run.local_get(acc);
    mb.add_func("run", run);
    mb.build().expect("generated module validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::encode::encode;

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(encode(&churn_module(3)), encode(&churn_module(3)));
        assert_ne!(encode(&churn_module(3)), encode(&churn_module(4)));
        assert!(churn_module(5).funcs.len() >= 5);
    }
}
