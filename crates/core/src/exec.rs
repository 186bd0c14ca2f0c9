//! The execution core: the unified value stack, frame management, the
//! tier dispatcher, probe firing with the paper's consistency guarantees,
//! and the [`ProbeCtx`] / [`FrameView`] APIs that M-code programs against.

use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::{FuncMeta, Target};

use crate::classic;
use crate::code::CodeBytes;
use crate::engine::{Dispatch, Process};
use crate::frame::{Frame, FrameAccessor, Tier};
use crate::probe::{Location, Pending, ProbeId, ProbeRef};
use crate::store::HostCtx;
use crate::trap::Trap;
use crate::value::{Slot, Value};
use crate::ExecMode;

/// Control signal raised by interpreter handlers.
#[derive(Debug)]
pub(crate) enum Sig {
    /// A trap occurred; unwind.
    Trap(Trap),
    /// The outermost invocation frame returned.
    Done,
    /// The current frame changed tier (or frames changed in a way the
    /// running loop cannot continue from); re-dispatch.
    Switch,
}

impl From<Trap> for Sig {
    fn from(t: Trap) -> Sig {
        Sig::Trap(t)
    }
}

/// Why a tier loop returned to the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    Done,
    Redispatch,
    /// The metered fuel slice is exhausted. The current frame's `pc` (and
    /// `cip` in the JIT tier) is a valid resume point *before* an
    /// instruction whose probes have not fired yet, so resuming — in either
    /// tier — fires exactly the probes an unbounded run would.
    OutOfFuel,
}

/// Error from a frame modification that the engine configuration forbids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameModError {
    /// Frame state modification requires the interpreter; the engine is in
    /// JIT-only mode (paper §4.6: "Wizard will not allow modifications in
    /// the JIT-only configuration").
    JitOnly,
    /// The value's type does not match the local's declared type.
    TypeMismatch,
    /// The referenced local or operand index is out of range.
    OutOfRange,
    /// The accessor no longer refers to a live frame.
    InvalidFrame,
}

impl core::fmt::Display for FrameModError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameModError::JitOnly => {
                f.write_str("frame modification requires the interpreter tier")
            }
            FrameModError::TypeMismatch => f.write_str("value type does not match slot type"),
            FrameModError::OutOfRange => f.write_str("local or operand index out of range"),
            FrameModError::InvalidFrame => f.write_str("accessor does not refer to a live frame"),
        }
    }
}

impl std::error::Error for FrameModError {}

/// Execution state for one invocation.
pub(crate) struct Exec<'p> {
    pub proc: &'p mut Process,
    /// Unified locals+operand stack.
    pub values: Vec<u64>,
    /// Call stack; `frames.last()` is the current frame (its `pc`/`cip`
    /// are authoritative only at sync points).
    pub frames: Vec<Frame>,
    /// Live cursor of the current frame. In the register interpreter
    /// this is a *register-instruction index*; in the in-place
    /// interpreter and in the JIT tier's sync writes it is a byte pc.
    /// Frames always receive byte pcs ([`Exec::sync_pc`] converts),
    /// keeping the paper's byte-offset location space the contract
    /// everywhere outside the register hot loop.
    pub pc: usize,
    /// Current function (global index).
    pub func: FuncIdx,
    /// Current local-function index.
    pub lf: usize,
    /// Locals base of the current frame.
    pub base: usize,
    /// Operand base of the current frame.
    pub opbase: usize,
    /// Result arity of the current function.
    pub results: u32,
    /// Current function's bytecode view (shared pristine bytes, or the
    /// process-local instrumented overlay).
    pub code: CodeBytes,
    /// Current function's register form ([`Dispatch::Register`] only,
    /// while the top frame runs in [`Tier::Reg`] or register-form JIT).
    /// Held by value — a shared pointer, like [`CodeBytes`] — so the
    /// dispatch loop reaches the instruction stream in one indirection.
    pub reg: Arc<crate::regir::RegFunc>,
    /// Current function's metadata.
    pub meta: Arc<FuncMeta>,
    /// Active interpreter dispatch table (normal or
    /// global-probe-instrumented, paper §4.1).
    pub table: &'static [classic::Handler; 256],
    /// Source of activation ids.
    pub activations: u64,
    /// One-shot suppression of probe firing at a location, used when
    /// deoptimizing at a probe site whose probes already fired in the JIT.
    pub skip_probe: Option<Location>,
    /// `true` when this run is fuel-metered (bounded).
    pub metered: bool,
    /// Remaining fuel units (one unit per bytecode instruction). Only
    /// meaningful when `metered`.
    pub fuel: u64,
}

/// The owned, suspendable portion of an execution: everything a bounded
/// run needs to carry across an [`Exit::OutOfFuel`] suspension. The rest
/// of [`Exec`] is a cache rebuilt from the process and the top frame.
pub(crate) struct ExecState {
    values: Vec<u64>,
    frames: Vec<Frame>,
    activations: u64,
    skip_probe: Option<Location>,
}

impl Drop for ExecState {
    /// A suspended run that is discarded rather than resumed — explicit
    /// cancellation, a trap elsewhere, or the process being dropped —
    /// still upholds the FrameAccessor contract: accessors of its parked
    /// frames are invalidated, never left dangling-but-"valid".
    fn drop(&mut self) {
        for f in &mut self.frames {
            f.invalidate_accessor();
        }
    }
}

thread_local! {
    /// Shared placeholder for `Exec::reg` before the first register frame
    /// loads — built once per thread so every invocation (and every
    /// bounded-run resume slice) starts with a refcount bump instead of a
    /// fresh allocation.
    static EMPTY_REG: Arc<crate::regir::RegFunc> = Arc::new(crate::regir::RegFunc::empty());
}

impl<'p> Exec<'p> {
    pub fn new(proc: &'p mut Process) -> Exec<'p> {
        let table =
            if proc.global_mode { classic::instrumented_table() } else { classic::normal_table() };
        Exec {
            proc,
            values: Vec::with_capacity(1024),
            frames: Vec::with_capacity(64),
            pc: 0,
            func: 0,
            lf: 0,
            base: 0,
            opbase: 0,
            results: 0,
            code: CodeBytes::new(&[]),
            reg: EMPTY_REG.with(Arc::clone),
            meta: Arc::new(FuncMeta::default()),
            table,
            activations: 0,
            skip_probe: None,
            metered: false,
            fuel: 0,
        }
    }

    /// Rebuilds an execution from a suspended state with a fresh fuel
    /// slice. The dispatch table is re-derived from the process (global
    /// mode may have changed while suspended) and the cached current-frame
    /// fields are reloaded; stale JIT frames are caught by the version
    /// checks on redispatch.
    pub fn from_state(proc: &'p mut Process, mut state: ExecState, fuel: u64) -> Exec<'p> {
        let mut ex = Exec::new(proc);
        // Fields are taken (not moved) because ExecState's Drop handles
        // accessor invalidation for *discarded* suspensions; the emptied
        // state dropped here has nothing left to invalidate.
        ex.values = std::mem::take(&mut state.values);
        ex.frames = std::mem::take(&mut state.frames);
        ex.activations = state.activations;
        ex.skip_probe = state.skip_probe.take();
        ex.metered = true;
        ex.fuel = fuel;
        if !ex.frames.is_empty() {
            ex.load_cur();
        }
        ex
    }

    /// Tears the execution down to its suspendable state (at an
    /// [`Exit::OutOfFuel`] sync point).
    pub fn into_state(self) -> ExecState {
        ExecState {
            values: self.values,
            frames: self.frames,
            activations: self.activations,
            skip_probe: self.skip_probe,
        }
    }

    // ---- value stack ----

    #[inline]
    pub fn push(&mut self, s: Slot) {
        self.values.push(s.0);
    }

    #[inline]
    pub fn pop(&mut self) -> Slot {
        Slot(self.values.pop().expect("validated code cannot underflow"))
    }

    #[inline]
    pub fn peek(&self) -> Slot {
        Slot(*self.values.last().expect("validated code cannot underflow"))
    }

    // ---- frame sync ----

    /// Writes the live pc back into the current frame — converted to a
    /// *byte* pc if the cursor is currently a register instruction index
    /// — before probes fire or state is otherwise observed.
    #[inline]
    pub fn sync_pc(&mut self) {
        let Some(f) = self.frames.last_mut() else {
            return;
        };
        f.pc = if f.tier == Tier::Reg { self.reg.pc_of(self.pc) as usize } else { self.pc };
    }

    /// Refreshes the cached current-frame fields from `frames.last()`,
    /// converting the parked byte pc to a register-instruction index for
    /// register frames.
    pub fn load_cur(&mut self) {
        let (pc, mut tier, lf) = {
            let f = self.frames.last().expect("at least one frame");
            self.func = f.func;
            self.lf = f.lf;
            self.base = f.base;
            self.opbase = f.opbase;
            self.results = f.results;
            let fc = &self.proc.code[f.lf];
            self.code = fc.bytes_view();
            self.meta = Arc::clone(fc.meta());
            (f.pc, f.tier, f.lf)
        };
        if tier == Tier::Reg && (self.proc.global_mode || self.proc.code[lf].has_overlay()) {
            // The function can no longer run in register form: global
            // probes need the instrumented dispatch table, and probe bytes
            // live only in the bytecode the in-place interpreter walks.
            // Demote the frame — register frames park at byte pcs with
            // every deferred operand flushed to its canonical stack
            // position, so the in-place interpreter resumes them exactly.
            self.frames.last_mut().expect("at least one frame").tier = Tier::Interp;
            self.proc.stats.reg_demotions += 1;
            tier = Tier::Interp;
        }
        if tier == Tier::Reg {
            self.reg = self.proc.reg_func_for(lf).expect("register frames have register code");
            self.pc = self.reg.idx_of(pc);
        } else {
            self.pc = pc;
        }
    }

    /// Grows the value stack to the current register frame's full window
    /// (`opbase + num_temps`), so every temp register is addressable.
    /// Slots beyond the live operand height are dead until written; the
    /// register tiers truncate back to exact heights at every park point
    /// (calls, returns), which is what keeps parked frames observable at
    /// their canonical stack shape.
    #[inline]
    pub(crate) fn reg_extend(&mut self) {
        let need = self.opbase + self.reg.num_temps() as usize;
        if self.values.len() < need {
            self.values.resize(need, 0);
        }
    }

    // ---- branching ----

    /// The branch value shuffle shared by all tiers: truncate the operand
    /// stack to the label height, carrying the top `keep` values.
    #[inline]
    pub fn branch_values(&mut self, keep: u32, height: u32) {
        let keep = keep as usize;
        let dest = self.opbase + height as usize;
        let src = self.values.len() - keep;
        if src != dest {
            for k in 0..keep {
                self.values[dest + k] = self.values[src + k];
            }
            self.values.truncate(dest + keep);
        }
    }

    /// Executes a side-table branch (in-place interpreter).
    #[inline]
    pub fn do_branch(&mut self, t: Target) {
        self.branch_values(t.arity, t.height);
        self.pc = t.target_pc as usize;
    }

    // ---- calls and returns ----

    /// `true` when a new activation of `lf` may run in the register tier:
    /// the process dispatches registers, the function is uninstrumented
    /// (no probe overlay) and the allocator lowered it.
    fn reg_eligible(&mut self, lf: usize) -> bool {
        !self.proc.code[lf].has_overlay() && self.proc.reg_func_for(lf).is_some()
    }

    /// Decides which tier a new activation of `lf` should start in, compiling
    /// if warranted. Never returns `Jit` in global-probe mode (paper §4.1).
    fn tier_for_call(&mut self, lf: usize) -> Tier {
        if self.proc.global_mode {
            return Tier::Interp;
        }
        let register = self.proc.config.dispatch == Dispatch::Register;
        if register && self.metered {
            // Bounded runs charge fuel per bytecode instruction in the
            // in-place interpreter and the stack-form JIT. The register
            // tier has no metered loop — its whole point is not touching
            // per-instruction state — so fuel-bounded slices run entirely
            // in the in-place interpreter, keeping the
            // one-unit-per-instruction suspension contract exact.
            return Tier::Interp;
        }
        match self.proc.config.mode {
            ExecMode::InterpOnly => {
                if register && self.reg_eligible(lf) {
                    return Tier::Reg;
                }
                Tier::Interp
            }
            ExecMode::JitOnly => {
                self.proc.ensure_compiled(lf);
                Tier::Jit
            }
            ExecMode::Tiered => {
                let fc = &self.proc.code[lf];
                if fc.compiled.borrow().is_some() {
                    return Tier::Jit;
                }
                let h = fc.hotness.get() + 1;
                fc.hotness.set(h);
                if h >= self.proc.config.tierup_threshold {
                    self.proc.ensure_compiled(lf);
                    self.proc.stats.tier_ups += 1;
                    Tier::Jit
                } else if register && self.reg_eligible(lf) {
                    Tier::Reg
                } else {
                    Tier::Interp
                }
            }
        }
    }

    /// Calls function `callee` (host or Wasm). Arguments must already be on
    /// the operand stack. On Wasm calls, pushes a frame and loads it as the
    /// current frame. `my_tier` is the tier of the running loop; returns
    /// `Err(Sig::Switch)` when the new frame runs in a different tier.
    pub fn do_call(&mut self, callee: FuncIdx, my_tier: Tier) -> Result<(), Sig> {
        let n_imp = self.proc.module.num_imported_funcs();
        if callee < n_imp {
            return self.do_host_call(callee);
        }
        let lf = (callee - n_imp) as usize;
        if self.frames.len() >= self.proc.config.max_call_depth {
            return Err(Trap::StackOverflow.into());
        }
        let tier = self.tier_for_call(lf);
        let (num_params, num_slots, results, max_height, code_version) = {
            let fc = &self.proc.code[lf];
            let code_version = if tier == Tier::Jit {
                fc.compiled.borrow().as_ref().map_or(0, |c| c.version())
            } else {
                0
            };
            (
                fc.num_params() as usize,
                fc.num_slots() as usize,
                fc.num_results(),
                fc.meta().max_height as usize,
                code_version,
            )
        };
        if self.values.len() + (num_slots - num_params) + max_height
            > self.proc.config.max_value_stack
        {
            return Err(Trap::ValueStackOverflow.into());
        }
        let base = self.values.len() - num_params;
        // Zero the declared (non-param) locals.
        self.values.resize(base + num_slots, 0);
        self.activations += 1;
        self.frames.push(Frame {
            func: callee,
            lf,
            base,
            opbase: base + num_slots,
            results,
            pc: 0,
            cip: 0,
            fuel_skip: 0,
            tier,
            code_version,
            activation: self.activations,
            accessor: None,
            deopt_requested: false,
        });
        self.load_cur();
        if tier == my_tier {
            Ok(())
        } else {
            Err(Sig::Switch)
        }
    }

    /// Calls an imported host function inline (no Wasm frame is pushed).
    fn do_host_call(&mut self, callee: FuncIdx) -> Result<(), Sig> {
        let ty = self.proc.func_types[callee as usize].clone();
        let n = ty.params.len();
        let split = self.values.len() - n;
        let mut args = Vec::with_capacity(n);
        for (i, t) in ty.params.iter().enumerate() {
            args.push(Value::from_slot(Slot(self.values[split + i]), *t));
        }
        self.values.truncate(split);
        let f = Rc::clone(&self.proc.host[callee as usize]);
        let mut ctx = HostCtx { memory: self.proc.memory.as_mut() };
        let rets = f(&mut ctx, &args).map_err(Sig::Trap)?;
        if rets.len() != ty.results.len() {
            return Err(Sig::Trap(Trap::Host(format!(
                "host function returned {} values, expected {}",
                rets.len(),
                ty.results.len()
            ))));
        }
        for (v, t) in rets.iter().zip(&ty.results) {
            if v.ty() != *t {
                return Err(Sig::Trap(Trap::Host("host function result type mismatch".into())));
            }
            self.values.push(v.to_slot().0);
        }
        Ok(())
    }

    /// Returns from the current frame: moves results down, pops the frame,
    /// invalidates its accessor, and resumes the caller. Returns
    /// `Err(Sig::Done)` when the entry frame returns and `Err(Sig::Switch)`
    /// when the resumed frame runs in a different tier than `my_tier`.
    pub fn do_return(&mut self, my_tier: Tier) -> Result<(), Sig> {
        let mut frame = self.frames.pop().expect("return with no frame");
        frame.invalidate_accessor();
        let nres = frame.results as usize;
        let src = self.values.len() - nres;
        let dst = frame.base;
        for k in 0..nres {
            self.values[dst + k] = self.values[src + k];
        }
        self.values.truncate(dst + nres);
        if self.frames.is_empty() {
            return Err(Sig::Done);
        }
        // Stale-frame check: if the caller was running JIT code that has
        // since been invalidated (probe insertion/removal), or the engine
        // entered global-probe mode, deoptimize it to the interpreter.
        {
            let caller = self.frames.last_mut().expect("non-empty");
            if caller.tier == Tier::Jit {
                let fc = &self.proc.code[caller.lf];
                let stale = fc
                    .compiled
                    .borrow()
                    .as_ref()
                    .is_none_or(|c| c.version() != caller.code_version);
                if stale || self.proc.global_mode || caller.deopt_requested {
                    caller.tier = Tier::Interp;
                    caller.deopt_requested = false;
                    self.proc.stats.deopts += 1;
                }
            }
        }
        self.load_cur();
        if self.frames.last().expect("non-empty").tier == my_tier {
            Ok(())
        } else {
            Err(Sig::Switch)
        }
    }

    /// Resolves and calls through the funcref table (`call_indirect`).
    pub fn do_call_indirect(&mut self, type_idx: u32, my_tier: Tier) -> Result<(), Sig> {
        let index = self.pop().u32();
        let callee = self.proc.table.get(index).map_err(Sig::Trap)?;
        let expected = &self.proc.module.types[type_idx as usize];
        let actual = &self.proc.func_types[callee as usize];
        if expected != actual {
            return Err(Sig::Trap(Trap::IndirectCallTypeMismatch));
        }
        self.do_call(callee, my_tier)
    }

    // ---- probes ----

    /// Fires all local probes at `(self.func, pc)` in insertion order over a
    /// consistent snapshot, then applies deferred instrumentation requests.
    pub fn fire_local_probes(&mut self, pc: u32) {
        let Some(list) = self.proc.probes.locals_at(self.func, pc) else {
            return;
        };
        self.sync_pc();
        let loc = Location { func: self.func, pc };
        self.proc.probes.firing += 1;
        for (_, probe) in list.iter() {
            self.proc.stats.probe_fires += 1;
            let p = Rc::clone(probe);
            let mut ctx = ProbeCtx { ex: self, loc };
            p.borrow_mut().fire(&mut ctx);
        }
        self.proc.probes.firing -= 1;
        if self.proc.probes.firing == 0 {
            self.apply_pending();
        }
    }

    /// Fires all global probes for the instruction at `pc`.
    pub fn fire_global_probes(&mut self, pc: u32) {
        let list = self.proc.probes.globals();
        if list.is_empty() {
            return;
        }
        self.sync_pc();
        let loc = Location { func: self.func, pc };
        self.proc.probes.firing += 1;
        for (_, probe) in list.iter() {
            self.proc.stats.probe_fires += 1;
            self.proc.stats.global_fires += 1;
            let p = Rc::clone(probe);
            let mut ctx = ProbeCtx { ex: self, loc };
            p.borrow_mut().fire(&mut ctx);
        }
        self.proc.probes.firing -= 1;
        if self.proc.probes.firing == 0 {
            self.apply_pending();
        }
    }

    /// Applies queued instrumentation changes (end of an event's dispatch).
    pub fn apply_pending(&mut self) {
        let had_ops = !self.proc.probes.pending.is_empty();
        let ops = std::mem::take(&mut self.proc.probes.pending);
        for p in ops {
            self.proc.apply_instrumentation(p);
        }
        // The dispatch table may have changed (global-probe mode).
        self.table = if self.proc.global_mode {
            classic::instrumented_table()
        } else {
            classic::normal_table()
        };
        // Instrumenting the current function may have copy-on-wrote (or
        // rejoined) its code: the cached byte view would keep reading the
        // stale stream. Reload it from the frame — the pc was synced
        // before the probes fired, so this is identity for the cursor and
        // only swaps the byte source.
        if had_ops && !self.frames.is_empty() {
            self.load_cur();
        }
    }

    /// Unwinds all frames of this invocation after a trap, invalidating
    /// their accessors (paper §2.3, mechanism 3).
    pub fn unwind(&mut self) {
        while let Some(mut f) = self.frames.pop() {
            f.invalidate_accessor();
        }
        self.values.clear();
    }

    // ---- accessors ----

    /// Materializes (or retrieves) the accessor for frame `index`.
    pub fn accessor_for(&mut self, index: usize) -> FrameAccessor {
        if let Some(acc) = &self.frames[index].accessor {
            return acc.clone();
        }
        let f = &self.frames[index];
        let acc = FrameAccessor::new(f.activation, f.func, index as u32 + 1, index);
        self.frames[index].accessor = Some(acc.clone());
        acc
    }

    /// Resolves an accessor back to a live frame index, enforcing validity
    /// (paper mechanism 5: the frame must still point at this activation).
    pub fn resolve_accessor(&self, acc: &FrameAccessor) -> Option<usize> {
        if !acc.is_valid() {
            return None;
        }
        let idx = acc.inner.frame_index.get();
        let f = self.frames.get(idx)?;
        if f.activation != acc.inner.activation {
            acc.inner.valid.set(false);
            return None;
        }
        Some(idx)
    }

    /// End of frame `index`'s operand segment in the value stack.
    fn operand_end(&self, index: usize) -> usize {
        if index + 1 == self.frames.len() {
            self.values.len()
        } else {
            self.frames[index + 1].base
        }
    }
}

/// The context passed to a firing probe: the program location, frame
/// access, read-only views of memory and globals, and dynamic probe
/// insertion/removal (deferred per the consistency guarantees).
pub struct ProbeCtx<'a, 'p> {
    pub(crate) ex: &'a mut Exec<'p>,
    pub(crate) loc: Location,
}

impl<'a, 'p> ProbeCtx<'a, 'p> {
    /// The location whose event is firing.
    pub fn location(&self) -> Location {
        self.loc
    }

    /// The opcode about to execute at the probed location (the original
    /// opcode, not the overwritten probe byte).
    pub fn opcode(&self) -> u8 {
        if self.loc.func == self.ex.func {
            self.ex.proc.code[self.ex.lf].orig_opcode(self.loc.pc)
        } else {
            op::NOP
        }
    }

    /// Call-stack depth (number of live Wasm frames).
    pub fn depth(&self) -> u32 {
        self.ex.frames.len() as u32
    }

    /// Materializes the FrameAccessor of the current (topmost) frame.
    ///
    /// The accessor is cached in the frame's accessor slot, so repeated
    /// requests return the *same* identity (paper §2.3).
    pub fn accessor(&mut self) -> FrameAccessor {
        let idx = self.ex.frames.len() - 1;
        self.ex.accessor_for(idx)
    }

    /// A view of the current frame.
    pub fn frame(&mut self) -> FrameView<'_, 'p> {
        let idx = self.ex.frames.len() - 1;
        FrameView { ex: self.ex, index: idx }
    }

    /// Resolves a stored accessor to a live frame view, if still valid.
    pub fn view(&mut self, acc: &FrameAccessor) -> Option<FrameView<'_, 'p>> {
        let idx = self.ex.resolve_accessor(acc)?;
        Some(FrameView { ex: self.ex, index: idx })
    }

    /// Top-of-stack operand of the current frame (convenience used by
    /// branch-style monitors).
    pub fn top_of_stack(&self) -> Option<Slot> {
        let end = self.ex.values.len();
        if end > self.ex.opbase {
            Some(Slot(self.ex.values[end - 1]))
        } else {
            None
        }
    }

    /// Read-only view of linear memory.
    pub fn memory(&self) -> Option<&[u8]> {
        self.ex.proc.memory.as_ref().map(|m| m.data())
    }

    /// Reads a global variable.
    pub fn global(&self, idx: u32) -> Option<Value> {
        let ty = self.ex.proc.global_types.get(idx as usize)?;
        let raw = self.ex.proc.globals.get(idx as usize)?;
        Some(Value::from_slot(Slot(*raw), ty.value))
    }

    /// Resolves a funcref table slot to a function index (used by monitors
    /// that profile `call_indirect` targets).
    pub fn resolve_table(&self, index: u32) -> Option<FuncIdx> {
        self.ex.proc.table.get(index).ok()
    }

    /// The module under execution.
    pub fn module(&self) -> &wizard_wasm::Module {
        &self.ex.proc.module
    }

    /// Inserts a local probe at `(func, pc)`. Takes effect when the current
    /// event's dispatch completes; if inserted on the *same* event that is
    /// firing, it does not fire until the next occurrence (paper §2.4.1).
    pub fn insert_local_probe(&mut self, func: FuncIdx, pc: u32, probe: ProbeRef) -> ProbeId {
        let id = self.ex.proc.probes.fresh_id();
        self.ex.proc.probes.pending.push(Pending::InsertLocal(id, func, pc, probe));
        id
    }

    /// Inserts a global probe (deferred like local insertion).
    pub fn insert_global_probe(&mut self, probe: ProbeRef) -> ProbeId {
        let id = self.ex.proc.probes.fresh_id();
        self.ex.proc.probes.pending.push(Pending::InsertGlobal(id, probe));
        id
    }

    /// Removes a probe. If removed on the same event that is firing, the
    /// removed probe still fires on this occurrence but not on subsequent
    /// ones (paper §2.4.1).
    pub fn remove_probe(&mut self, id: ProbeId) {
        self.ex.proc.probes.pending.push(Pending::Remove(id));
    }
}

impl core::fmt::Debug for ProbeCtx<'_, '_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProbeCtx").field("loc", &self.loc).finish()
    }
}

/// A borrow-scoped view of one live frame: read locals and operands, walk
/// to the caller, and (consistently) modify frame state.
pub struct FrameView<'a, 'p> {
    ex: &'a mut Exec<'p>,
    index: usize,
}

impl<'a, 'p> FrameView<'a, 'p> {
    /// The function this frame executes.
    pub fn func(&self) -> FuncIdx {
        self.ex.frames[self.index].func
    }

    /// The frame's current bytecode pc (synced before probes fire).
    pub fn pc(&self) -> u32 {
        self.ex.frames[self.index].pc as u32
    }

    /// Call depth of this frame (1 = bottom of the invocation).
    pub fn depth(&self) -> u32 {
        self.index as u32 + 1
    }

    /// The tier this frame currently executes in.
    pub fn tier(&self) -> Tier {
        self.ex.frames[self.index].tier
    }

    /// Number of locals (params + declared).
    pub fn num_locals(&self) -> u32 {
        let lf = self.ex.frames[self.index].lf;
        self.ex.proc.code[lf].num_slots()
    }

    /// Reads local `i` as a typed value.
    pub fn local(&self, i: u32) -> Option<Value> {
        let f = &self.ex.frames[self.index];
        let lf = f.lf;
        let ty = *self.ex.proc.code[lf].local_types().get(i as usize)?;
        let raw = self.ex.values[f.base + i as usize];
        Some(Value::from_slot(Slot(raw), ty))
    }

    /// Writes local `i` — a *frame modification* with the paper's
    /// consistency guarantee: the change is applied immediately, and if the
    /// frame is executing JIT code it is deoptimized to the interpreter
    /// before execution resumes (§4.6, strategy 4).
    ///
    /// # Errors
    ///
    /// Fails in JIT-only mode, on type mismatch, or if `i` is out of range.
    pub fn set_local(&mut self, i: u32, v: Value) -> Result<(), FrameModError> {
        if self.ex.proc.config.mode == ExecMode::JitOnly {
            return Err(FrameModError::JitOnly);
        }
        let f = &self.ex.frames[self.index];
        let lf = f.lf;
        let base = f.base;
        let ty = *self.ex.proc.code[lf]
            .local_types()
            .get(i as usize)
            .ok_or(FrameModError::OutOfRange)?;
        if v.ty() != ty {
            return Err(FrameModError::TypeMismatch);
        }
        self.ex.values[base + i as usize] = v.to_slot().0;
        self.mark_modified();
        Ok(())
    }

    /// Number of operand-stack slots currently live in this frame.
    pub fn operand_count(&self) -> usize {
        let end = self.ex.operand_end(self.index);
        end - self.ex.frames[self.index].opbase
    }

    /// Reads operand `i` counting from the top (0 = top of stack).
    ///
    /// Operands are untyped slots: the engine does not track operand types
    /// at runtime; the observing monitor knows the type from context.
    pub fn operand(&self, i: usize) -> Option<Slot> {
        let end = self.ex.operand_end(self.index);
        let opbase = self.ex.frames[self.index].opbase;
        if i < end - opbase {
            Some(Slot(self.ex.values[end - 1 - i]))
        } else {
            None
        }
    }

    /// Writes operand `i` from the top — a frame modification (see
    /// [`FrameView::set_local`]).
    ///
    /// # Errors
    ///
    /// Fails in JIT-only mode or if `i` is out of range.
    pub fn set_operand(&mut self, i: usize, v: Slot) -> Result<(), FrameModError> {
        if self.ex.proc.config.mode == ExecMode::JitOnly {
            return Err(FrameModError::JitOnly);
        }
        let end = self.ex.operand_end(self.index);
        let opbase = self.ex.frames[self.index].opbase;
        if i >= end - opbase {
            return Err(FrameModError::OutOfRange);
        }
        self.ex.values[end - 1 - i] = v.0;
        self.mark_modified();
        Ok(())
    }

    /// Materializes the accessor for this frame.
    pub fn accessor(&mut self) -> FrameAccessor {
        self.ex.accessor_for(self.index)
    }

    /// Walks to the caller frame, materializing its accessor — the paper's
    /// stackwalking support for context-sensitive analyses.
    pub fn caller(&mut self) -> Option<FrameAccessor> {
        if self.index == 0 {
            return None;
        }
        Some(self.ex.accessor_for(self.index - 1))
    }

    fn mark_modified(&mut self) {
        let f = &mut self.ex.frames[self.index];
        if f.tier == Tier::Jit {
            f.deopt_requested = true;
            self.ex.proc.stats.deopts += 1;
        }
    }
}

impl core::fmt::Debug for FrameView<'_, '_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FrameView")
            .field("func", &self.func())
            .field("pc", &self.pc())
            .field("depth", &self.depth())
            .finish()
    }
}
