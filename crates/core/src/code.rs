//! Per-function **instrumentation overlays**: the process-local, mutable
//! half of the code pipeline.
//!
//! The immutable half — pristine bytecode, validation metadata, the shared
//! lowered form the JIT compiles from — lives in the `Arc`-shared
//! [`FuncArtifact`]. A [`FuncOverlay`] owns
//! everything one process may mutate about one function:
//!
//! * the **copy-on-write instrumented code**: the first probe installed in
//!   a function copies its bytes into process-local storage
//!   ([`FuncOverlay::install_probe_byte`]), and removing the last
//!   probe drops the copy again so the process *rejoins* the shared
//!   artifact ([`FuncOverlay::restore_byte`]) — sibling processes of the
//!   same artifact never observe either transition;
//! * the saved original opcodes of probe-overwritten locations;
//! * the instrumentation version and the compiled-code slot (probe-free
//!   code is shared from the artifact; instrumented code is private);
//! * the hotness counter driving tier-up.
//!
//! Local probes still work by *bytecode overwriting* (paper §4.2): the
//! probed instruction's opcode byte is replaced by [`op::PROBE`] on the
//! overlay copy; immediates are never touched, so all other offsets remain
//! valid — the property that makes overwriting vastly simpler than
//! bytecode injection.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::leb128;
use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;
use wizard_wasm::types::ValType;
use wizard_wasm::validate::FuncMeta;

use crate::artifact::FuncArtifact;
use crate::jit::Compiled;

/// A process-local copy-on-write byte stream.
pub type OverlayBytes = Rc<[Cell<u8>]>;

/// A function's bytecode as the execution tiers read it: the artifact's
/// shared pristine bytes, overlaid by the process-local copy-on-write
/// cells once the function is instrumented.
///
/// Uninstrumented processes read (and share) the pristine bytes directly;
/// a probe materializes the overlay and flips every reader of this view to
/// the instrumented copy. The view itself is read-only — writes go through
/// [`FuncOverlay`], which owns the overlay cells.
#[derive(Debug, Clone)]
pub struct CodeBytes {
    shared: Arc<[u8]>,
    local: Option<OverlayBytes>,
}

impl CodeBytes {
    /// Wraps a byte slice as a (pristine, shared) code view. Used by tests
    /// and as the empty placeholder; real processes get their views from
    /// [`FuncOverlay::bytes_view`].
    pub fn new(bytes: &[u8]) -> CodeBytes {
        CodeBytes { shared: Arc::from(bytes), local: None }
    }

    pub(crate) fn with_overlay(shared: Arc<[u8]>, local: Option<OverlayBytes>) -> CodeBytes {
        CodeBytes { shared, local }
    }

    /// Code length in bytes.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// `true` if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// `true` while this view reads a process-local copy-on-write byte
    /// stream instead of the artifact's.
    pub fn is_overlaid(&self) -> bool {
        self.local.is_some()
    }

    /// Address of the byte stream this view reads (overlay copy if
    /// present, shared otherwise) — the pointer identity used by sharing
    /// assertions.
    pub fn addr(&self) -> usize {
        match &self.local {
            Some(cells) => cells.as_ptr() as usize,
            None => self.shared.as_ptr() as usize,
        }
    }

    /// Reads the byte at `pc`.
    #[inline]
    pub fn byte(&self, pc: usize) -> u8 {
        match &self.local {
            Some(cells) => cells[pc].get(),
            None => self.shared[pc],
        }
    }

    /// Reads the byte at `pc`, if in range.
    #[inline]
    fn get(&self, pc: usize) -> Option<u8> {
        match &self.local {
            Some(cells) => cells.get(pc).map(Cell::get),
            None => self.shared.get(pc).copied(),
        }
    }

    /// Reads an unsigned LEB128 u32 at `pos`, returning `(value, next pos)`.
    ///
    /// Delegates to the shared [`leb128`] reader so the normalization
    /// contract (see that module's docs) lives in exactly one place.
    ///
    /// # Panics
    ///
    /// Panics on malformed encodings — impossible for validated code.
    #[inline]
    pub fn read_u32(&self, pos: usize) -> (u32, usize) {
        leb128::read_u32_by(|i| self.get(i), pos).expect("validated code has well-formed LEB128")
    }

    /// Reads a signed LEB128 i32 at `pos` (shared [`leb128`] contract).
    #[inline]
    pub fn read_i32(&self, pos: usize) -> (i32, usize) {
        leb128::read_i32_by(|i| self.get(i), pos).expect("validated code has well-formed LEB128")
    }

    /// Reads a signed LEB128 i64 at `pos` (shared [`leb128`] contract).
    #[inline]
    pub fn read_i64(&self, pos: usize) -> (i64, usize) {
        leb128::read_i64_by(|i| self.get(i), pos).expect("validated code has well-formed LEB128")
    }

    /// Reads 4 little-endian bytes at `pos`.
    #[inline]
    pub fn read_f32_bits(&self, pos: usize) -> (u32, usize) {
        let mut v = 0u32;
        for i in 0..4 {
            v |= u32::from(self.byte(pos + i)) << (8 * i);
        }
        (v, pos + 4)
    }

    /// Reads 8 little-endian bytes at `pos`.
    #[inline]
    pub fn read_f64_bits(&self, pos: usize) -> (u64, usize) {
        let mut v = 0u64;
        for i in 0..8 {
            v |= u64::from(self.byte(pos + i)) << (8 * i);
        }
        (v, pos + 8)
    }
}

/// The engine's per-process, per-function code object: a shared
/// [`FuncArtifact`] plus this process's instrumentation overlay and tier
/// state.
#[derive(Debug)]
pub struct FuncOverlay {
    /// The shared, immutable half.
    art: Arc<FuncArtifact>,
    /// Copy-on-write instrumented bytecode; `None` while uninstrumented.
    bytes: RefCell<Option<OverlayBytes>>,
    /// Original opcodes of probe-overwritten locations.
    pub orig: RefCell<HashMap<u32, u8>>,
    /// Instrumentation version; bumped (strictly monotonically — see
    /// [`FuncOverlay::invalidate`]) whenever probes are inserted or
    /// removed in this function, invalidating compiled code (paper §4.5).
    pub version: Cell<u32>,
    /// Compiled (JIT-tier) code, if any and still valid. While the
    /// function is probe-free this wraps the artifact's shared baseline
    /// op stream; otherwise it is private.
    pub compiled: RefCell<Option<Rc<Compiled>>>,
    /// Hotness counter driving tier-up.
    pub hotness: Cell<u32>,
}

impl FuncOverlay {
    /// A fresh (uninstrumented) overlay over `art`.
    pub fn new(art: Arc<FuncArtifact>) -> FuncOverlay {
        FuncOverlay {
            art,
            bytes: RefCell::new(None),
            orig: RefCell::new(HashMap::new()),
            version: Cell::new(0),
            compiled: RefCell::new(None),
            hotness: Cell::new(0),
        }
    }

    /// The shared half.
    pub fn artifact(&self) -> &Arc<FuncArtifact> {
        &self.art
    }

    /// Global function index.
    pub fn func(&self) -> FuncIdx {
        self.art.func
    }

    /// Validation metadata.
    pub fn meta(&self) -> &Arc<FuncMeta> {
        &self.art.meta
    }

    /// Types of params followed by declared locals.
    pub fn local_types(&self) -> &Arc<[ValType]> {
        &self.art.local_types
    }

    /// Number of parameters.
    pub fn num_params(&self) -> u32 {
        self.art.num_params
    }

    /// Number of results (0 or 1).
    pub fn num_results(&self) -> u32 {
        self.art.num_results
    }

    /// Total local slots (params + declared locals).
    pub fn num_slots(&self) -> u32 {
        self.art.num_slots()
    }

    /// `true` while this process holds a copy-on-write instrumented copy
    /// of the function (i.e. at least one probe byte is installed).
    pub fn has_overlay(&self) -> bool {
        self.bytes.borrow().is_some()
    }

    /// The byte view the execution tiers read: pristine shared bytes, or
    /// the instrumented overlay copy.
    pub fn bytes_view(&self) -> CodeBytes {
        CodeBytes::with_overlay(Arc::clone(&self.art.bytes), self.bytes.borrow().clone())
    }

    /// The byte at `pc` as this process sees it.
    pub fn byte_at(&self, pc: usize) -> u8 {
        match &*self.bytes.borrow() {
            Some(cells) => cells[pc].get(),
            None => self.art.bytes[pc],
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.art.bytes.len()
    }

    /// `true` if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.art.bytes.is_empty()
    }

    /// Bytes of process-private code this overlay currently holds (the
    /// copy-on-write copies; 0 while uninstrumented) — the "resident code
    /// size" a process pays only for the functions it instruments.
    pub fn overlay_size_bytes(&self) -> usize {
        self.bytes.borrow().as_ref().map_or(0, |b| b.len())
    }

    /// Copies the shared bytes into process-local storage — the
    /// copy-on-write step. Returns the overlay handle; idempotent after
    /// the first call.
    fn materialize(&self) -> OverlayBytes {
        self.bytes
            .borrow_mut()
            .get_or_insert_with(|| self.art.bytes.iter().map(|&b| Cell::new(b)).collect())
            .clone()
    }

    /// Drops the copy-on-write copy: the process rejoins the shared
    /// artifact (and probe-freeness makes the shared baseline JIT code
    /// eligible again).
    fn rejoin(&self) {
        debug_assert!(self.orig.borrow().is_empty(), "rejoin requires no live probe bytes");
        *self.bytes.borrow_mut() = None;
    }

    /// Installs the probe opcode at `pc` on the overlay copy
    /// (materializing it if this is the function's first probe), saving
    /// the original byte. Idempotent: installing twice keeps the original
    /// original.
    ///
    /// Returns `true` if this call materialized the overlay (the caller
    /// counts it in [`EngineStats::overlay_copies`](crate::EngineStats)).
    pub fn install_probe_byte(&self, pc: u32) -> bool {
        let copied = !self.has_overlay();
        let bytes = self.materialize();
        let cur = bytes[pc as usize].get();
        if cur == op::PROBE {
            return copied;
        }
        self.orig.borrow_mut().insert(pc, cur);
        bytes[pc as usize].set(op::PROBE);
        copied
    }

    /// Restores the original opcode at `pc` (when the last probe at the
    /// location is removed). When the last probed location in the
    /// *function* is restored, the overlay copy is dropped and the process
    /// rejoins the shared artifact.
    ///
    /// Returns `true` if this call dropped the overlay (rejoined).
    pub fn restore_byte(&self, pc: u32) -> bool {
        let Some(orig) = self.orig.borrow_mut().remove(&pc) else {
            return false;
        };
        self.materialize()[pc as usize].set(orig);
        if self.orig.borrow().is_empty() {
            self.rejoin();
            return true;
        }
        false
    }

    /// The original opcode at `pc`: the saved byte if overwritten, else the
    /// current byte.
    #[inline]
    pub fn orig_opcode(&self, pc: u32) -> u8 {
        let cur = self.byte_at(pc as usize);
        if cur != op::PROBE {
            return cur;
        }
        *self.orig.borrow().get(&pc).expect("probe byte present implies saved original")
    }

    /// Invalidates compiled code and bumps the instrumentation version.
    ///
    /// The version is strictly monotonic — never reused — because live
    /// JIT frames detect staleness by comparing their recorded version
    /// against the current compile's; a recurring version would let a
    /// parked frame resume at a saved `cip` inside a differently-laid-out
    /// op stream. Baseline-code sharing does not need version 0: it is
    /// keyed on probe-freeness ([`FuncOverlay::has_overlay`]), and the
    /// per-process [`Compiled`] wrapper stamps the shared op stream with
    /// the process's current version.
    pub fn invalidate(&self) {
        *self.compiled.borrow_mut() = None;
        self.version.set(self.version.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModuleArtifact;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    /// Builds an overlay over a real validated single-function module:
    /// `inc(x) = x + k` with enough body to probe.
    fn overlay() -> FuncOverlay {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.nop().local_get(0).i32_const(5).i32_add();
        mb.add_func("inc", f);
        let art = ModuleArtifact::new(mb.build().unwrap()).unwrap();
        FuncOverlay::new(Arc::clone(&art.funcs()[0]))
    }

    #[test]
    fn overwrite_and_restore_round_trip_rejoins() {
        let c = overlay();
        assert!(!c.has_overlay());
        let copied = c.install_probe_byte(0);
        assert!(copied, "first probe copies");
        assert!(c.has_overlay());
        assert_eq!(c.byte_at(0), op::PROBE);
        assert_eq!(c.orig_opcode(0), op::NOP);
        // Pristine shared bytes untouched.
        assert_eq!(c.artifact().bytes[0], op::NOP);
        // Second probe in the same function: no new copy.
        let pc1 = 1; // local.get 0
        assert!(!c.install_probe_byte(pc1));
        assert_eq!(c.orig_opcode(pc1), op::LOCAL_GET);
        // Restores: the last one drops the overlay entirely.
        assert!(!c.restore_byte(pc1));
        assert!(c.has_overlay());
        assert!(c.restore_byte(0), "last restore rejoins the artifact");
        assert!(!c.has_overlay());
        assert_eq!(c.byte_at(0), op::NOP);
        assert_eq!(c.overlay_size_bytes(), 0);
    }

    #[test]
    fn double_install_keeps_original() {
        let c = overlay();
        c.install_probe_byte(0);
        c.install_probe_byte(0);
        assert_eq!(c.orig_opcode(0), op::NOP);
        c.restore_byte(0);
        assert_eq!(c.byte_at(0), op::NOP);
    }

    #[test]
    fn invalidate_versions_are_strictly_monotonic() {
        let c = overlay();
        assert_eq!(c.version.get(), 0);
        c.install_probe_byte(0);
        c.invalidate();
        assert_eq!(c.version.get(), 1);
        assert!(c.compiled.borrow().is_none());
        c.restore_byte(0);
        c.invalidate();
        // Rejoin does NOT reset the version: a recurring version would be
        // an ABA hazard for the JIT's stale-frame check. Baseline sharing
        // is keyed on probe-freeness, not on version 0.
        assert_eq!(c.version.get(), 2);
        assert!(!c.has_overlay());
    }

    #[test]
    fn probe_bytes_leave_the_shared_lowering_untouched() {
        let c = overlay();
        // The JIT compiles from the shared lowered form and finds probe
        // sites through the registry: probing the const (pc 3, after
        // nop + local.get) overwrites only the overlay's byte.
        let low = Arc::clone(c.artifact().lowered());
        let before: Vec<u8> = (0..low.len()).map(|s| low.get(s).op).collect();
        let pc_const = 3;
        c.install_probe_byte(pc_const);
        let view = c.bytes_view();
        assert!(view.is_overlaid());
        assert_eq!(view.byte(pc_const as usize), op::PROBE);
        assert_eq!(view.read_i32(pc_const as usize + 1).0, 5, "immediates survive");
        assert_ne!(view.addr(), c.artifact().bytes.as_ptr() as usize);
        let after: Vec<u8> = (0..low.len()).map(|s| low.get(s).op).collect();
        assert_eq!(before, after, "shared lowering untouched");
        assert!(Arc::ptr_eq(&low, c.artifact().lowered()));
        // Restore rejoins: the view reads the shared bytes again.
        c.restore_byte(pc_const);
        assert!(!c.bytes_view().is_overlaid());
    }

    #[test]
    fn leb_readers_match_encoder() {
        let mut buf = vec![0u8];
        wizard_wasm::leb128::write_u32(&mut buf, 624485);
        wizard_wasm::leb128::write_i32(&mut buf, -99999);
        wizard_wasm::leb128::write_i64(&mut buf, -(1i64 << 40));
        let c = CodeBytes::new(&buf);
        let (a, p) = c.read_u32(1);
        assert_eq!(a, 624485);
        let (b, p) = c.read_i32(p);
        assert_eq!(b, -99999);
        let (d, p) = c.read_i64(p);
        assert_eq!(d, -(1i64 << 40));
        assert_eq!(p, buf.len());
    }

    #[test]
    fn float_bit_readers() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.25f64).to_le_bytes());
        let c = CodeBytes::new(&buf);
        let (f32_bits, p) = c.read_f32_bits(0);
        assert_eq!(f32::from_bits(f32_bits), 1.5);
        let (f64_bits, p2) = c.read_f64_bits(p);
        assert_eq!(f64::from_bits(f64_bits), -2.25);
        assert_eq!(p2, 12);
    }
}
