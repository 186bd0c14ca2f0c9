//! The JIT tier: a pre-decoded micro-op compiler and executor.
//!
//! This stands in for Wizard's baseline JIT (which emits x86-64). The
//! function's shared *lowered* form ([`crate::lowered`] — immediates
//! pre-decoded, side table folded in) is compiled into a dense array of
//! micro-ops executed by a tight dispatch loop — the same structural role
//! machine code plays in the paper:
//!
//! * local probes are *compiled into* the code at their sites, found
//!   through the probe registry (the lowered form itself is never
//!   patched);
//! * a generic probe site requires a state checkpoint and a runtime call
//!   (paper Figure 2, second column);
//! * intrinsified `CountProbe`s compile to an inline counter increment and
//!   intrinsified operand probes to a direct top-of-stack call (Figure 2,
//!   third and fourth columns) — no FrameAccessor reification;
//! * inserting/removing probes bumps the function's instrumentation
//!   version, invalidating compiled code; executing frames deoptimize back
//!   to the interpreter in place (paper §4.5–4.6, strategy 4).
//!
//! Compiled code is split in two layers so probe-free code can be shared:
//!
//! * [`CompiledCode`] is plain data (`Send + Sync`): the op stream, pc
//!   metadata and OSR entries. Probe sites reference their M-code through
//!   *indices* into the binding tables, never through pointers.
//! * [`Compiled`] binds a `CompiledCode` to one process: the counter cells
//!   and probe references the indices resolve against. Code compiled at
//!   instrumentation version 0 has empty bindings, so the artifact caches
//!   one `Arc<CompiledCode>` and every uninstrumented process of the
//!   module executes the very same compiled ops
//!   ([`FuncArtifact::baseline_compiled`](crate::artifact::FuncArtifact)).
//!   The first probe invalidates only that process's binding; siblings
//!   keep running the shared code.
//!
//! Fuel-metered runs charge exactly what the in-place interpreter charges:
//! one unit per bytecode instruction, including the structural
//! instructions (`nop`/`block`/`loop`/`end`) that compile to nothing.
//! Their units ride on the first op of the next instruction that does
//! compile ([`CompiledCode::fuel`]), branch targets and OSR entries record
//! how many of those units were skipped by entering mid-way, and a slice
//! that runs out inside such a run parks at the exact byte pc the
//! interpreter would.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;

use crate::code::FuncOverlay;
use crate::exec::{Exec, Exit, Sig};
use crate::frame::Tier;
use crate::lowered::{LTarget, Lowered};
use crate::numeric;
use crate::probe::{Location, ProbeKind, ProbeRef, ProbeRegistry};
use crate::trap::Trap;
use crate::value::Slot;
use crate::EngineConfig;

/// A resolved branch target in compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JTarget {
    /// Destination op index.
    pub ip: u32,
    /// Values carried across the branch.
    pub keep: u32,
    /// Operand height (above the frame's operand base) to truncate to.
    pub height: u32,
    /// Fuel units of [`CompiledCode::fuel`]`[ip]` that belong to
    /// uncompiled instructions *before* the branch target: a metered run
    /// entering here does not execute them, so it does not pay for them.
    pub skip: u32,
}

/// One compiled micro-op. Plain data — probe sites carry indices into the
/// owning [`Compiled`]'s binding tables, keeping the op stream shareable.
#[derive(Clone)]
pub enum Op {
    /// Push a constant slot.
    Const(u64),
    /// Push local `n`.
    LocalGet(u32),
    /// Pop into local `n`.
    LocalSet(u32),
    /// Copy top of stack into local `n`.
    LocalTee(u32),
    /// Push global `n`.
    GlobalGet(u32),
    /// Pop into global `n`.
    GlobalSet(u32),
    /// Pop and discard.
    Drop,
    /// Ternary select.
    Select,
    /// Binary numeric op (shared semantics with the interpreter).
    Bin(u8),
    /// Unary numeric op.
    Un(u8),
    /// Memory load with constant offset.
    Load {
        /// Original opcode (selects width/signedness).
        op: u8,
        /// Constant offset.
        offset: u32,
    },
    /// Memory store with constant offset.
    Store {
        /// Original opcode.
        op: u8,
        /// Constant offset.
        offset: u32,
    },
    /// `memory.size`.
    MemorySize,
    /// `memory.grow`.
    MemoryGrow,
    /// Unconditional branch.
    Br(JTarget),
    /// Branch if popped i32 is non-zero (`br_if`).
    BrIf(JTarget),
    /// Branch if popped i32 is zero (`if` false edge).
    BrIfZero(JTarget),
    /// `br_table`: targets then default (last).
    BrTable(Box<[JTarget]>),
    /// Explicit return.
    Return,
    /// Direct call.
    Call {
        /// Callee function index.
        callee: u32,
        /// Bytecode pc of the instruction after the call (frame resume point).
        ret_pc: u32,
    },
    /// Indirect call through the table.
    CallIndirect {
        /// Expected type index.
        type_idx: u32,
        /// Bytecode resume pc.
        ret_pc: u32,
    },
    /// `unreachable`.
    Unreachable,
    /// Generic probe site: checkpoint state and fire through the runtime
    /// (Figure 2, "generic probe").
    Probe {
        /// Bytecode pc of the probed instruction.
        pc: u32,
    },
    /// Intrinsified counter probe: inline increment, no call (Figure 2,
    /// "counter probe").
    CountBump {
        /// Index into [`Compiled::cells`].
        cell: u32,
    },
    /// Intrinsified top-of-stack operand probe: direct call with the
    /// operand value, no FrameAccessor (Figure 2, "operand probe").
    OperandProbe {
        /// Index into [`Compiled::operands`].
        probe: u32,
        /// Bytecode pc of the probed instruction.
        pc: u32,
    },
}

impl core::fmt::Debug for Op {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Op::Const(v) => write!(f, "const {v:#x}"),
            Op::LocalGet(i) => write!(f, "local.get {i}"),
            Op::LocalSet(i) => write!(f, "local.set {i}"),
            Op::LocalTee(i) => write!(f, "local.tee {i}"),
            Op::GlobalGet(i) => write!(f, "global.get {i}"),
            Op::GlobalSet(i) => write!(f, "global.set {i}"),
            Op::Drop => f.write_str("drop"),
            Op::Select => f.write_str("select"),
            Op::Bin(b) => f.write_str(op::name(*b)),
            Op::Un(b) => f.write_str(op::name(*b)),
            Op::Load { op: b, offset } => write!(f, "{} +{offset}", op::name(*b)),
            Op::Store { op: b, offset } => write!(f, "{} +{offset}", op::name(*b)),
            Op::MemorySize => f.write_str("memory.size"),
            Op::MemoryGrow => f.write_str("memory.grow"),
            Op::Br(t) => write!(f, "br -> ip {} (keep {}, h {})", t.ip, t.keep, t.height),
            Op::BrIf(t) => write!(f, "br_if -> ip {} (keep {}, h {})", t.ip, t.keep, t.height),
            Op::BrIfZero(t) => {
                write!(f, "br_if_zero -> ip {} (keep {}, h {})", t.ip, t.keep, t.height)
            }
            Op::BrTable(ts) => {
                write!(f, "br_table [")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{}", t.ip)?;
                }
                write!(f, "]")
            }
            Op::Return => f.write_str("return"),
            Op::Call { callee, .. } => write!(f, "call {callee}"),
            Op::CallIndirect { type_idx, .. } => write!(f, "call_indirect (type {type_idx})"),
            Op::Unreachable => f.write_str("unreachable"),
            Op::Probe { pc } => write!(
                f,
                "probe.generic pc={pc}  ; checkpoint state, runtime call, FrameAccessor available"
            ),
            Op::CountBump { .. } => {
                f.write_str("count.bump          ; intrinsified: inline counter increment")
            }
            Op::OperandProbe { pc, .. } => {
                write!(f, "probe.operand pc={pc} ; intrinsified: direct call with top-of-stack")
            }
        }
    }
}

/// A function compiled to micro-ops: the shareable, process-independent
/// layer (plain data, `Send + Sync`).
#[derive(Debug)]
pub struct CompiledCode {
    /// Instrumentation version this code was specialized against (0 for
    /// the shared probe-free baseline).
    pub version: u32,
    /// The op stream.
    pub ops: Vec<Op>,
    /// Bytecode pc for each op (deoptimization metadata).
    pub ip_to_pc: Vec<u32>,
    /// Fuel charged on reaching each op (metered runs only): for the first
    /// op of a bytecode instruction, 1 plus the number of directly
    /// preceding instructions that compiled to nothing; 0 for every other
    /// op.
    pub fuel: Vec<u32>,
    /// Fuel charged on falling off the end of the op stream: the trailing
    /// instructions that compiled to nothing, plus 1 for the implicit
    /// return (the in-place interpreter charges one unit there too).
    pub tail_fuel: u32,
    /// OSR entry points: loop-header pc → (op index *after* that pc's
    /// probe ops, fuel skip). The op index keeps tier-up from re-firing
    /// probes the interpreter already ran; the skip counts the units of
    /// that op's charge the interpreter already paid (the `loop` itself
    /// and the uncompiled instructions before it), like [`JTarget::skip`].
    pub osr_entry: HashMap<u32, (u32, u32)>,
    /// When set, this "compiled" code is the function's **register form**
    /// ([`crate::regir`]) and `ops`/`ip_to_pc` are empty: the JIT tier
    /// executes register instructions directly (the micro-op compiler's
    /// structural role — pre-decoded, pre-resolved, fixed-width — is
    /// already fulfilled by the register lowering, so recompiling it to
    /// stack-shaped micro-ops would only reintroduce the stack traffic
    /// the register tier exists to eliminate). Probed functions always
    /// compile the stack-shaped form instead, so probe sites keep their
    /// Figure-2 compilation strategies.
    pub reg: Option<Arc<crate::regir::RegFunc>>,
}

/// Compiled code bound to one process: the shareable op stream plus the
/// probe bindings its probe-site indices resolve against. Version-0 code
/// has empty bindings and wraps the artifact's shared `Arc<CompiledCode>`.
pub struct Compiled {
    /// The (possibly shared) op stream.
    pub code: Arc<CompiledCode>,
    /// The owning process's instrumentation version this binding is valid
    /// for. For privately-compiled code this equals `code.version`; for
    /// the shared baseline it is the process's version at wrap time
    /// (`code.version` stays 0 there). Stamped per process so versions
    /// observed by live frames stay strictly monotonic even though the
    /// baseline op stream is reused across probe/detach cycles.
    pub version: u32,
    /// Counter cells referenced by [`Op::CountBump`].
    pub cells: Vec<Rc<Cell<u64>>>,
    /// Operand probes referenced by [`Op::OperandProbe`].
    pub operands: Vec<ProbeRef>,
}

impl core::fmt::Debug for Compiled {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Compiled")
            .field("code", &self.code)
            .field("cells", &self.cells.len())
            .field("operands", &self.operands.len())
            .finish()
    }
}

impl Compiled {
    /// The instrumentation version this process-bound code is valid for.
    #[inline]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Address of the op stream, for sharing assertions.
    pub fn code_addr(&self) -> usize {
        Arc::as_ptr(&self.code) as usize
    }
}

/// Compiles the probe-free baseline (instrumentation version 0) of `func`
/// from the shared lowered form. The result references no process state
/// and is cached on the [`FuncArtifact`](crate::artifact::FuncArtifact),
/// shared by every process until it instruments the function.
pub(crate) fn compile_baseline(func: FuncIdx, low: &Lowered) -> CompiledCode {
    let (code, cells, operands) = compile_inner(func, low, None, 0);
    debug_assert!(cells.is_empty() && operands.is_empty(), "baseline has no probe sites");
    code
}

/// Compiles `fc` from the shared lowered form to micro-ops, baking in the
/// currently-installed probes.
///
/// The lowering pass already pre-decoded every immediate and folded in
/// the side table, so compilation is a single walk over fixed-width slots.
pub(crate) fn compile(
    fc: &FuncOverlay,
    low: &Lowered,
    probes: &ProbeRegistry,
    config: &EngineConfig,
) -> Compiled {
    let version = fc.version.get();
    let (code, cells, operands) =
        compile_inner(fc.func(), low, Some((fc, probes, config)), version);
    Compiled { code: Arc::new(code), version, cells, operands }
}

/// The shared compilation walk. `instr` carries the probe context for
/// instrumented compiles; `None` compiles the pristine baseline.
#[allow(clippy::type_complexity)]
fn compile_inner(
    func: FuncIdx,
    low: &Lowered,
    instr: Option<(&FuncOverlay, &ProbeRegistry, &EngineConfig)>,
    version: u32,
) -> (CompiledCode, Vec<Rc<Cell<u64>>>, Vec<ProbeRef>) {
    let nslots = low.len();
    let mut ops: Vec<Op> = Vec::with_capacity(nslots);
    let mut ip_to_pc: Vec<u32> = Vec::with_capacity(nslots);
    let mut fuel: Vec<u32> = Vec::with_capacity(nslots);
    // Per slot (plus the one-past-the-end sentinel): the first op at or
    // after it, and the uncompiled instructions between the previous
    // compiled one and it — a branch landing there skips paying for them.
    let mut slot_to_ip: Vec<u32> = Vec::with_capacity(nslots + 1);
    let mut slot_skip: Vec<u32> = Vec::with_capacity(nslots + 1);
    let mut osr_entry: HashMap<u32, (u32, u32)> = HashMap::new();
    let mut cells: Vec<Rc<Cell<u64>>> = Vec::new();
    let mut operands: Vec<ProbeRef> = Vec::new();
    // Instructions since the last one that compiled to at least one op.
    let mut uncharged: u32 = 0;

    // Branch targets are emitted with `ip` temporarily holding the lowered
    // *slot*; a second pass resolves slots to op indices.
    let jt = |t: LTarget| JTarget { ip: t.slot, keep: t.keep, height: t.height, skip: 0 };

    for slot in 0..nslots {
        // The shared lowered form is never patched: probe sites come from
        // the registry and are compiled in (or intrinsified) below.
        let pc = low.pc_of(slot);
        let li = low.get(slot);
        slot_to_ip.push(ops.len() as u32);
        slot_skip.push(uncharged);
        let first = ops.len();
        let opb = li.op;
        // Probe site: intrinsify if every probe at the site supports it,
        // otherwise fall back to a single generic probe op that dispatches
        // the whole site list through the runtime.
        if let Some((_, probes, config)) = instr {
            if let Some(list) = probes.locals_at(func, pc) {
                let all_intrinsic = list.iter().all(|(_, p)| match p.borrow().kind() {
                    ProbeKind::Count => config.intrinsify_count,
                    ProbeKind::Operand => config.intrinsify_operand,
                    ProbeKind::Generic => false,
                });
                if all_intrinsic {
                    for (_, p) in list.iter() {
                        let kind = p.borrow().kind();
                        match kind {
                            ProbeKind::Count => {
                                let cell = p.borrow().count_cell().expect("count probe has cell");
                                cells.push(cell);
                                ops.push(Op::CountBump { cell: cells.len() as u32 - 1 });
                            }
                            ProbeKind::Operand => {
                                operands.push(Rc::clone(p));
                                ops.push(Op::OperandProbe { probe: operands.len() as u32 - 1, pc });
                            }
                            ProbeKind::Generic => unreachable!("checked all_intrinsic"),
                        }
                        ip_to_pc.push(pc);
                    }
                } else {
                    ops.push(Op::Probe { pc });
                    ip_to_pc.push(pc);
                }
            }
        }
        if opb == op::LOOP {
            // Unprobed, the loop compiles to nothing: its unit and the
            // uncharged ones before it ride on the next op, and the
            // interpreter already paid them before tiering up.
            let skip = if ops.len() > first { 0 } else { uncharged + 1 };
            osr_entry.insert(pc, (ops.len() as u32, skip));
        }
        let emitted: Option<Op> = match opb {
            op::NOP | op::BLOCK | op::LOOP | op::END => None,
            op::UNREACHABLE => Some(Op::Unreachable),
            op::BR | op::ELSE => Some(Op::Br(jt(low.target(li.x)))),
            op::BR_IF => Some(Op::BrIf(jt(low.target(li.x)))),
            op::IF => Some(Op::BrIfZero(jt(low.target(li.x)))),
            op::BR_TABLE => Some(Op::BrTable(low.table(li.x).iter().map(|t| jt(*t)).collect())),
            op::RETURN => Some(Op::Return),
            op::CALL => Some(Op::Call { callee: li.x, ret_pc: low.pc_of(slot + 1) }),
            op::CALL_INDIRECT => {
                Some(Op::CallIndirect { type_idx: li.x, ret_pc: low.pc_of(slot + 1) })
            }
            op::DROP => Some(Op::Drop),
            op::SELECT => Some(Op::Select),
            op::LOCAL_GET => Some(Op::LocalGet(li.x)),
            op::LOCAL_SET => Some(Op::LocalSet(li.x)),
            op::LOCAL_TEE => Some(Op::LocalTee(li.x)),
            op::GLOBAL_GET => Some(Op::GlobalGet(li.x)),
            op::GLOBAL_SET => Some(Op::GlobalSet(li.x)),
            op::MEMORY_SIZE => Some(Op::MemorySize),
            op::MEMORY_GROW => Some(Op::MemoryGrow),
            // The lowering already holds const payloads as slot bits.
            op::I32_CONST | op::I64_CONST | op::F32_CONST | op::F64_CONST => Some(Op::Const(li.z)),
            b if op::is_load(b) => Some(Op::Load { op: b, offset: li.x }),
            b if op::is_store(b) => Some(Op::Store { op: b, offset: li.x }),
            b if numeric::is_binop(b) => Some(Op::Bin(b)),
            b if numeric::is_unop(b) => Some(Op::Un(b)),
            b => unreachable!("unhandled opcode {b:#04x} in validated code"),
        };
        if let Some(o) = emitted {
            ops.push(o);
            ip_to_pc.push(pc);
        }
        if ops.len() > first {
            fuel.resize(ops.len(), 0);
            fuel[first] = uncharged + 1;
            uncharged = 0;
        } else {
            uncharged += 1;
        }
    }
    // Sentinel: branches to one-past-the-end resolve to the return path.
    slot_to_ip.push(ops.len() as u32);
    slot_skip.push(uncharged);

    // Resolve branch targets: JTarget.ip currently holds a lowered slot.
    let map = |t: &mut JTarget| {
        t.skip = slot_skip[t.ip as usize];
        t.ip = slot_to_ip[t.ip as usize];
    };
    for o in &mut ops {
        match o {
            Op::Br(t) | Op::BrIf(t) | Op::BrIfZero(t) => map(t),
            Op::BrTable(ts) => {
                for t in ts.iter_mut() {
                    map(t);
                }
            }
            _ => {}
        }
    }

    let tail_fuel = uncharged + 1;
    (
        CompiledCode { version, ops, ip_to_pc, fuel, tail_fuel, osr_entry, reg: None },
        cells,
        operands,
    )
}

/// Compiles the probe-free baseline of `func` from its **register form**:
/// the register instructions are executed directly by the JIT tier, so
/// "compilation" is only the OSR-entry metadata (loop-header byte pc →
/// register instruction index, for tier-up from the interpreters).
pub(crate) fn compile_baseline_reg(func: FuncIdx, rf: Arc<crate::regir::RegFunc>) -> CompiledCode {
    let _ = func;
    let mut osr_entry: HashMap<u32, (u32, u32)> = HashMap::new();
    for (idx, ri) in rf.ops().iter().enumerate() {
        if ri.op == crate::regir::R_LOOP {
            osr_entry.insert(ri.x, (idx as u32, 0));
        }
    }
    CompiledCode {
        version: 0,
        ops: Vec::new(),
        ip_to_pc: Vec::new(),
        fuel: Vec::new(),
        tail_fuel: 0,
        osr_entry,
        reg: Some(rf),
    }
}

/// Runs the current (JIT-tier) frame until the invocation finishes, the
/// frame deoptimizes, or a trap unwinds.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_frame(ex: &mut Exec) -> Result<Exit, Trap> {
    'frames: loop {
        let (lf, start_ip, expect_version, mut skip) = {
            let f = ex.frames.last_mut().expect("frame");
            debug_assert_eq!(f.tier, Tier::Jit);
            (f.lf, f.cip, f.code_version, std::mem::take(&mut f.fuel_skip))
        };
        let Some(compiled) = ex.proc.code[lf].compiled.borrow().clone() else {
            // Code was invalidated while this frame was suspended: deopt.
            deopt_here(ex);
            return Ok(Exit::Redispatch);
        };
        if compiled.version() != expect_version {
            deopt_here(ex);
            return Ok(Exit::Redispatch);
        }
        // Register-form code: the register executor runs it directly.
        // Frame-stack changes (calls/returns) surface as `Redispatch`, so
        // the drive loop re-resolves the new top frame's code.
        if compiled.code.reg.is_some() {
            return crate::regint::run_jit(ex, &compiled);
        }
        let func = ex.func;
        let code = &compiled.code;
        let mut ip = start_ip;
        loop {
            // Fuel metering (bounded runs only): the first micro-op of each
            // bytecode instruction charges that instruction plus the
            // uncompiled ones before it, less what entering mid-way
            // skipped. Probe ops are emitted *before* their instruction's
            // ops and share its pc, so a suspension here is always before
            // an instruction whose probes have not fired yet.
            if ex.metered {
                let cost = code.fuel.get(ip).copied().unwrap_or(code.tail_fuel);
                if cost != 0 {
                    let need = u64::from(cost - skip);
                    if ex.fuel < need {
                        suspend_in_run(ex, lf, code, ip, skip + ex.fuel as u32);
                        return Ok(Exit::OutOfFuel);
                    }
                    ex.fuel -= need;
                    skip = 0;
                }
            }
            if ip >= code.ops.len() {
                // Fell off the end: return.
                ex.frames.last_mut().expect("frame").cip = ip;
                match ex.do_return(Tier::Jit) {
                    Ok(()) => continue 'frames,
                    Err(Sig::Done) => return Ok(Exit::Done),
                    Err(Sig::Switch) => return Ok(Exit::Redispatch),
                    Err(Sig::Trap(t)) => return Err(t),
                }
            }
            match &code.ops[ip] {
                Op::Const(v) => ex.values.push(*v),
                Op::LocalGet(i) => {
                    let v = ex.values[ex.base + *i as usize];
                    ex.values.push(v);
                }
                Op::LocalSet(i) => {
                    let v = ex.pop();
                    ex.values[ex.base + *i as usize] = v.0;
                }
                Op::LocalTee(i) => {
                    let v = ex.peek();
                    ex.values[ex.base + *i as usize] = v.0;
                }
                Op::GlobalGet(i) => {
                    let v = ex.proc.globals[*i as usize];
                    ex.values.push(v);
                }
                Op::GlobalSet(i) => {
                    let v = ex.pop();
                    ex.proc.globals[*i as usize] = v.0;
                }
                Op::Drop => {
                    ex.pop();
                }
                Op::Select => {
                    let c = ex.pop().i32();
                    let v2 = ex.pop();
                    let v1 = ex.pop();
                    ex.push(if c != 0 { v1 } else { v2 });
                }
                Op::Bin(b) => {
                    let rhs = ex.pop();
                    let lhs = ex.pop();
                    match numeric::binop(*b, lhs, rhs) {
                        Ok(v) => ex.push(v),
                        Err(t) => return trap(ex, t),
                    }
                }
                Op::Un(b) => {
                    let a = ex.pop();
                    match numeric::unop(*b, a) {
                        Ok(v) => ex.push(v),
                        Err(t) => return trap(ex, t),
                    }
                }
                Op::Load { op: b, offset } => {
                    let addr = ex.pop().u32();
                    let mem = ex.proc.memory.as_ref().expect("validated");
                    match numeric::do_load(mem, *b, addr, *offset) {
                        Ok(v) => ex.push(v),
                        Err(t) => return trap(ex, t),
                    }
                }
                Op::Store { op: b, offset } => {
                    let val = ex.pop();
                    let addr = ex.pop().u32();
                    let mem = ex.proc.memory.as_mut().expect("validated");
                    if let Err(t) = numeric::do_store(mem, *b, addr, *offset, val) {
                        return trap(ex, t);
                    }
                }
                Op::MemorySize => {
                    let pages = ex.proc.memory.as_ref().expect("validated").pages();
                    ex.push(Slot::from_u32(pages));
                }
                Op::MemoryGrow => {
                    let delta = ex.pop().u32();
                    let r = ex.proc.memory.as_mut().expect("validated").grow(delta);
                    ex.push(Slot::from_i32(r));
                }
                Op::Br(t) => {
                    ex.branch_values(t.keep, t.height);
                    (ip, skip) = (t.ip as usize, t.skip);
                    continue;
                }
                Op::BrIf(t) => {
                    let c = ex.pop().i32();
                    if c != 0 {
                        ex.branch_values(t.keep, t.height);
                        (ip, skip) = (t.ip as usize, t.skip);
                        continue;
                    }
                }
                Op::BrIfZero(t) => {
                    let c = ex.pop().i32();
                    if c == 0 {
                        ex.branch_values(t.keep, t.height);
                        (ip, skip) = (t.ip as usize, t.skip);
                        continue;
                    }
                }
                Op::BrTable(ts) => {
                    let i = ex.pop().u32() as usize;
                    let t = ts[i.min(ts.len() - 1)];
                    ex.branch_values(t.keep, t.height);
                    (ip, skip) = (t.ip as usize, t.skip);
                    continue;
                }
                Op::Return => {
                    ex.frames.last_mut().expect("frame").cip = ip + 1;
                    match ex.do_return(Tier::Jit) {
                        Ok(()) => continue 'frames,
                        Err(Sig::Done) => return Ok(Exit::Done),
                        Err(Sig::Switch) => return Ok(Exit::Redispatch),
                        Err(Sig::Trap(t)) => return Err(t),
                    }
                }
                Op::Call { callee, ret_pc } => {
                    ex.pc = *ret_pc as usize;
                    {
                        let f = ex.frames.last_mut().expect("frame");
                        f.cip = ip + 1;
                        f.pc = *ret_pc as usize;
                    }
                    match ex.do_call(*callee, Tier::Jit) {
                        Ok(()) => continue 'frames,
                        Err(Sig::Switch) => return Ok(Exit::Redispatch),
                        Err(Sig::Trap(t)) => return trap(ex, t),
                        Err(Sig::Done) => unreachable!("call cannot finish invocation"),
                    }
                }
                Op::CallIndirect { type_idx, ret_pc } => {
                    ex.pc = *ret_pc as usize;
                    {
                        let f = ex.frames.last_mut().expect("frame");
                        f.cip = ip + 1;
                        f.pc = *ret_pc as usize;
                    }
                    match ex.do_call_indirect(*type_idx, Tier::Jit) {
                        Ok(()) => continue 'frames,
                        Err(Sig::Switch) => return Ok(Exit::Redispatch),
                        Err(Sig::Trap(t)) => return trap(ex, t),
                        Err(Sig::Done) => unreachable!("call cannot finish invocation"),
                    }
                }
                Op::Unreachable => return trap(ex, Trap::Unreachable),
                Op::CountBump { cell } => {
                    // Fully-inlined counter: the intrinsified fast path.
                    let cell = &compiled.cells[*cell as usize];
                    cell.set(cell.get() + 1);
                }
                Op::OperandProbe { probe, pc } => {
                    // Direct call with the top-of-stack value; no runtime
                    // dispatch, no FrameAccessor.
                    let top = ex.peek();
                    compiled.operands[*probe as usize]
                        .borrow_mut()
                        .fire_operand(Location { func, pc: *pc }, top);
                }
                Op::Probe { pc } => {
                    // Generic probe site: checkpoint (sync pc/cip), then fire
                    // through the same runtime path as the interpreter.
                    let pcv = *pc;
                    ex.pc = pcv as usize;
                    {
                        let f = ex.frames.last_mut().expect("frame");
                        f.cip = ip + 1;
                        f.pc = pcv as usize;
                    }
                    ex.fire_local_probes(pcv);
                    // Consistency checks: instrumentation changes or frame
                    // modification force deoptimization of this frame only
                    // (paper §4.6, strategy 4).
                    let deopt_needed = {
                        let f = ex.frames.last().expect("frame");
                        ex.proc.code[lf].version.get() != compiled.version()
                            || f.deopt_requested
                            || ex.proc.global_mode
                    };
                    if deopt_needed {
                        // The interpreter will re-charge fuel for this pc on
                        // re-entry; refund the unit this tier already charged
                        // so the instruction costs one unit, not two.
                        if ex.metered {
                            ex.fuel += 1;
                        }
                        let f = ex.frames.last_mut().expect("frame");
                        f.tier = Tier::Interp;
                        f.pc = pcv as usize;
                        f.deopt_requested = false;
                        // The probes at this pc already fired; suppress the
                        // interpreter's re-fire if the probe byte remains.
                        if ex.proc.code[lf].byte_at(pcv as usize) == op::PROBE {
                            ex.skip_probe = Some(Location { func, pc: pcv });
                        }
                        ex.proc.stats.deopts += 1;
                        ex.load_cur();
                        return Ok(Exit::Redispatch);
                    }
                }
            }
            ip += 1;
        }
    }
}

/// Parks the current frame at op `ip` when the fuel slice runs out before
/// the bytecode instructions charged there have all been paid for: `done`
/// of them have executed (they compiled to nothing), so the frame's byte
/// pc is the next one — exactly where the in-place interpreter would
/// suspend. Resuming compiled code re-enters at `ip` skipping the `done`
/// units; if the code is invalidated meanwhile, the interpreter resumes
/// at the byte pc.
fn suspend_in_run(ex: &mut Exec, lf: usize, code: &CompiledCode, ip: usize, done: u32) {
    let low = ex.proc.code[lf].artifact().lowered();
    let (slot, cost) = match code.ip_to_pc.get(ip) {
        Some(&pc) => (low.slot_of(pc).expect("op pcs are instruction boundaries"), code.fuel[ip]),
        None => (low.len() as u32, code.tail_fuel),
    };
    let pc = low.pc_of((slot + 1 - cost + done) as usize) as usize;
    ex.fuel = 0;
    ex.pc = pc;
    let f = ex.frames.last_mut().expect("frame");
    f.cip = ip;
    f.pc = pc;
    f.fuel_skip = done;
}

/// Deoptimizes the current frame in place to the interpreter (its `pc` is
/// already a valid bytecode resume point — frames suspend only at sync
/// points).
fn deopt_here(ex: &mut Exec) {
    let f = ex.frames.last_mut().expect("frame");
    f.tier = Tier::Interp;
    f.deopt_requested = false;
    ex.proc.stats.deopts += 1;
    ex.load_cur();
}

fn trap(ex: &mut Exec, t: Trap) -> Result<Exit, Trap> {
    let _ = ex;
    Err(t)
}
