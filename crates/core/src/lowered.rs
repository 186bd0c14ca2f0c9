//! The lowered code pipeline: one-time translation of validated bytecode
//! into fixed-width internal instructions with pre-decoded immediates and
//! pre-resolved branch targets — the JIT tier's compile input.
//!
//! Execution never dispatches over this form. The in-place interpreter
//! walks the bytecode itself (paper §4.1–4.2), and the JIT
//! ([`crate::jit`]) compiles from the lowered form instead of re-walking
//! raw bytes: a single pass over the body produces one [`LInstr`] per
//! bytecode instruction, with LEB128 immediates decoded and the branch
//! side table folded into a dense target array.
//!
//! [`Lowered`] is **immutable and thread-safe** — all `Arc`-backed,
//! `Send + Sync`, built once per function inside a
//! [`ModuleArtifact`](crate::artifact::ModuleArtifact) and shared by every
//! process instantiated from it. Instrumentation never touches it: probes
//! overwrite bytes in the process-local byte overlay
//! ([`FuncOverlay`](crate::code::FuncOverlay)), and the JIT finds probe
//! sites through the probe registry, not through the lowered slots.
//!
//! **The byte-offset `Location` space stays the public contract.** The
//! lowering keeps a bidirectional `pc ↔ slot` map ([`Lowered::pc_of`],
//! [`Lowered::slot_of`]), so compiled code records byte pcs for probes,
//! fuel suspension, OSR entries and deoptimization.

use std::sync::Arc;

use wizard_wasm::instr::{Imm, InstrIter};
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::{FuncMeta, SideEntry, Target};

use crate::value::Slot;

/// A pre-resolved control-transfer destination in lowered code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LTarget {
    /// Destination slot index.
    pub slot: u32,
    /// Number of operand values carried across the branch.
    pub keep: u32,
    /// Operand-stack height (above the frame's operand base) to truncate to.
    pub height: u32,
}

/// One fixed-width lowered instruction.
///
/// `op` is the Wasm opcode byte. The immediate fields are interpreted per
/// opcode:
///
/// | opcode                      | `x`                       | `z`             |
/// |-----------------------------|---------------------------|-----------------|
/// | `local.*` / `global.*`      | index                     | —               |
/// | `*.const`                   | —                         | value as slot bits |
/// | loads / stores              | constant offset           | —               |
/// | `br` / `br_if` / `if` / `else` | index into [`Lowered::targets`] | —    |
/// | `br_table`                  | index into [`Lowered::tables`] | —          |
/// | `call`                      | callee function index     | —               |
/// | `call_indirect`             | expected type index       | —               |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LInstr {
    /// Wasm opcode byte.
    pub op: u8,
    /// Primary pre-decoded immediate (see table above).
    pub x: u32,
    /// Wide pre-decoded immediate: constant payloads as value-slot bits.
    pub z: u64,
}

impl LInstr {
    fn plain(opcode: u8) -> LInstr {
        LInstr { op: opcode, x: 0, z: 0 }
    }

    fn with_x(opcode: u8, x: u32) -> LInstr {
        LInstr { op: opcode, x, z: 0 }
    }

    fn with_z(opcode: u8, z: u64) -> LInstr {
        LInstr { op: opcode, x: 0, z }
    }
}

/// A function body lowered to fixed-width instructions.
///
/// Every field is `Arc`-backed plain data: the whole structure is
/// `Send + Sync` and is shared by reference between every process
/// instantiated from the same
/// [`ModuleArtifact`](crate::artifact::ModuleArtifact).
#[derive(Debug, Clone)]
pub struct Lowered {
    /// One slot per bytecode instruction, in code order.
    ops: Arc<[LInstr]>,
    /// Pre-resolved branch targets (side table folded in), referenced by
    /// `x` of `br`/`br_if`/`if`/`else` slots.
    pub targets: Arc<[LTarget]>,
    /// `br_table` target lists (targets then default, matching the side
    /// table), referenced by `x` of `br_table` slots.
    pub tables: Arc<[Box<[LTarget]>]>,
    /// slot → byte pc of the instruction; one extra sentinel entry mapping
    /// `slot == len()` to the body's byte length (one-past-the-end).
    slot_to_pc: Arc<[u32]>,
    /// byte pc → slot; `u32::MAX` for offsets that are not instruction
    /// boundaries; one extra sentinel entry for `pc == body len`.
    pc_to_slot: Arc<[u32]>,
}

impl Lowered {
    /// Lowers a *clean* body (no probe bytes) using its validation metadata.
    ///
    /// # Panics
    ///
    /// Panics on undecodable bytes or missing side entries — impossible for
    /// validated code.
    pub fn lower(clean: &[u8], meta: &FuncMeta) -> Lowered {
        let mut ops: Vec<LInstr> = Vec::with_capacity(clean.len() / 2 + 1);
        let mut targets: Vec<LTarget> = Vec::new();
        let mut tables: Vec<Box<[LTarget]>> = Vec::new();
        let mut slot_to_pc: Vec<u32> = Vec::with_capacity(ops.capacity() + 1);
        let mut pc_to_slot: Vec<u32> = vec![u32::MAX; clean.len() + 1];

        // Targets are collected with `slot` temporarily holding the
        // destination *byte pc*; a second pass resolves them to slots once
        // the pc → slot map is complete.
        let unresolved = |t: Target| LTarget { slot: t.target_pc, keep: t.arity, height: t.height };
        let side_br = |pc: u32| -> Target {
            match meta.side.get(&pc) {
                Some(SideEntry::Br(t) | SideEntry::IfFalse(t) | SideEntry::ElseSkip(t)) => *t,
                other => unreachable!("missing side entry at pc={pc}: {other:?}"),
            }
        };

        for item in InstrIter::new(clean) {
            let instr = item.expect("validated code decodes");
            let pc = instr.pc;
            pc_to_slot[pc as usize] = ops.len() as u32;
            slot_to_pc.push(pc);
            let lowered = match instr.op {
                op::BR | op::BR_IF | op::IF | op::ELSE => {
                    targets.push(unresolved(side_br(pc)));
                    LInstr::with_x(instr.op, targets.len() as u32 - 1)
                }
                op::BR_TABLE => match meta.side.get(&pc) {
                    Some(SideEntry::Table(entries)) => {
                        tables.push(entries.iter().map(|t| unresolved(*t)).collect());
                        LInstr::with_x(instr.op, tables.len() as u32 - 1)
                    }
                    other => unreachable!("missing br_table side entry at pc={pc}: {other:?}"),
                },
                op::I32_CONST => match instr.imm {
                    Imm::I32(v) => LInstr::with_z(instr.op, Slot::from_i32(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                op::I64_CONST => match instr.imm {
                    Imm::I64(v) => LInstr::with_z(instr.op, Slot::from_i64(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                op::F32_CONST => match instr.imm {
                    Imm::F32(v) => LInstr::with_z(instr.op, Slot::from_f32(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                op::F64_CONST => match instr.imm {
                    Imm::F64(v) => LInstr::with_z(instr.op, Slot::from_f64(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                _ => match instr.imm {
                    Imm::None | Imm::Block(_) | Imm::MemIdx(_) => LInstr::plain(instr.op),
                    Imm::Idx(i) => LInstr::with_x(instr.op, i),
                    Imm::CallIndirect { type_idx, .. } => LInstr::with_x(instr.op, type_idx),
                    Imm::Mem { offset, .. } => LInstr::with_x(instr.op, offset),
                    _ => unreachable!("immediate shape handled above"),
                },
            };
            ops.push(lowered);
        }

        // Sentinels: one-past-the-end maps both ways, so branches to the
        // body end and the implicit-return pc stay representable.
        let end_slot = ops.len() as u32;
        slot_to_pc.push(clean.len() as u32);
        pc_to_slot[clean.len()] = end_slot;

        let resolve = |t: &mut LTarget| {
            let slot = pc_to_slot[t.slot as usize];
            debug_assert_ne!(slot, u32::MAX, "branch target {t:?} is not an instruction boundary");
            t.slot = slot;
        };
        for t in &mut targets {
            resolve(t);
        }
        for table in &mut tables {
            for t in table.iter_mut() {
                resolve(t);
            }
        }

        Lowered {
            ops: ops.into(),
            targets: targets.into(),
            tables: tables.into(),
            slot_to_pc: slot_to_pc.into(),
            pc_to_slot: pc_to_slot.into(),
        }
    }

    /// Number of instruction slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the body lowered to no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reads the instruction at `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> LInstr {
        self.ops[slot]
    }

    /// Byte pc of the instruction at `slot` (`slot == len()` maps to the
    /// body's byte length).
    #[inline]
    pub fn pc_of(&self, slot: usize) -> u32 {
        self.slot_to_pc[slot]
    }

    /// Slot of the instruction starting at byte `pc`, or `None` if `pc` is
    /// not an instruction boundary.
    #[inline]
    pub fn slot_of(&self, pc: u32) -> Option<u32> {
        match self.pc_to_slot.get(pc as usize) {
            Some(&s) if s != u32::MAX => Some(s),
            _ => None,
        }
    }

    /// Resolves a target index of a `br`/`br_if`/`if`/`else` slot.
    #[inline]
    pub fn target(&self, idx: u32) -> LTarget {
        self.targets[idx as usize]
    }

    /// Resolves a `br_table` slot's target list.
    #[inline]
    pub fn table(&self, idx: u32) -> &[LTarget] {
        &self.tables[idx as usize]
    }

    /// Address of the op stream — the identity tests use to assert that
    /// the lowering is built once and shared.
    pub fn ops_addr(&self) -> usize {
        self.ops.as_ptr() as usize
    }

    /// Size of the lowered form in bytes (op stream + targets + maps).
    pub fn size_bytes(&self) -> usize {
        self.ops.len() * core::mem::size_of::<LInstr>()
            + self.targets.len() * core::mem::size_of::<LTarget>()
            + self.tables.iter().map(|t| t.len() * core::mem::size_of::<LTarget>()).sum::<usize>()
            + (self.slot_to_pc.len() + self.pc_to_slot.len()) * core::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;
    use wizard_wasm::validate::validate;

    fn lowered_for(f: FuncBuilder) -> (Vec<u8>, Lowered) {
        let mut mb = ModuleBuilder::new();
        mb.add_func("f", f);
        let m = mb.build().expect("validates");
        let meta = validate(&m).expect("validates");
        let body = m.funcs[0].body.code.clone();
        let low = Lowered::lower(&body, &meta.funcs[0]);
        (body, low)
    }

    #[test]
    fn lowered_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Lowered>();
    }

    #[test]
    fn slots_map_bijectively_to_instruction_boundaries() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(624_485).i32_add();
        let (body, low) = lowered_for(f);
        // local.get 0; i32.const (3-byte LEB); i32.add; end
        assert_eq!(low.len(), 4);
        for slot in 0..low.len() {
            let pc = low.pc_of(slot);
            assert_eq!(low.slot_of(pc), Some(slot as u32));
        }
        // Sentinels: one-past-the-end maps both ways.
        assert_eq!(low.pc_of(low.len()) as usize, body.len());
        assert_eq!(low.slot_of(body.len() as u32), Some(low.len() as u32));
        // Mid-immediate offsets are not boundaries.
        assert_eq!(low.slot_of(low.pc_of(1) + 1), None);
    }

    #[test]
    fn immediates_are_predecoded() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(-99_999).i32_add();
        let (_, low) = lowered_for(f);
        assert_eq!(low.get(0).op, op::LOCAL_GET);
        assert_eq!(low.get(0).x, 0);
        // One slot per instruction: the const keeps its payload as slot
        // bits, the add follows in its own slot.
        assert_eq!(low.get(1).op, op::I32_CONST);
        assert_eq!(Slot(low.get(1).z).i32(), -99_999);
        assert_eq!(low.get(2).op, op::I32_ADD);
    }

    #[test]
    fn branch_targets_resolve_to_slots() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        f.for_range(i, 0, |f| {
            f.nop();
        });
        f.local_get(i);
        let (_, low) = lowered_for(f);
        let mut saw_branch = false;
        for slot in 0..low.len() {
            let li = low.get(slot);
            if matches!(li.op, op::BR | op::BR_IF | op::IF) {
                let t = low.target(li.x);
                assert!((t.slot as usize) <= low.len(), "target slot in range");
                saw_branch = true;
            }
        }
        assert!(saw_branch, "loop lowering produced branches");
    }

    #[test]
    fn empty_lowering_is_consistent() {
        let low = Lowered::lower(&[], &FuncMeta::default());
        assert!(low.is_empty());
        assert_eq!(low.pc_of(0), 0);
        assert_eq!(low.slot_of(0), Some(0));
    }
}
