//! Content-addressed memo table for provably-pure hidden fragments.
//!
//! The `hps-analysis::effects` lattice proves some fragments `Pure`: their
//! outcome (returned value *and* virtual cost) is a function of the call's
//! arguments alone — no hidden state is read or written and no trap can
//! fire. For those fragments, re-execution with repeated arguments is
//! wasted secure-device work. A [`MemoTable`] caches `(value, cost)` per
//! `(component, fragment, encoded argument bytes)` so the server can answer
//! repeats without running the fragment.
//!
//! ## Adversary invariance
//!
//! A memo hit must be indistinguishable from an execution — to the client,
//! the wiretap, telemetry cross-checks and `chaos_equivalence`. The server
//! therefore still:
//!
//! * charges the cached virtual cost to `cost_spent` and the call reply;
//! * counts the call in `calls_served`;
//! * fires the same `Event::Fragment { cost }`;
//! * creates/touches the per-activation hidden state entry, so activation
//!   lifecycles and release semantics are unchanged.
//!
//! Hit/miss/eviction counts surface only through the dedicated
//! `hps_server_memo_*` counters, which are reliability telemetry like
//! retries — never part of the adversary-visible trace.
//!
//! ## Soundness
//!
//! * Only lattice-`Pure` fragments are cached ([`MemoTable::is_memoizable`]
//!   is a per-fragment mask fixed at construction). Conservative: a pure
//!   loop is `MayTrap` (step limit) and stays uncached.
//! * Only *successful* outcomes are cached, so error paths always
//!   re-execute and trap behaviour is never masked.
//! * Keys encode argument values exactly like the wire protocol
//!   (`Int`/`Float`/`Bool` tags + little-endian payload), so two argument
//!   lists collide only if the secure device would also see identical
//!   request bytes.
//!
//! Like [`crate::bytecode::VmCache`], one table is shared per
//! [`crate::server::SecureServer`] and per shard (`Arc<MemoTable>` in
//! `ShardCounters`, surviving executor respawns), and like
//! `server::ReplayCache` it is bounded, FIFO-evicting with eviction
//! counting. The same caveat as the VM applies: the table answers for the
//! cost model it was filled under — rebuild it when the cost model changes.

use hps_analysis::effects::{Effect, FragmentEffects};
use hps_ir::{HiddenProgram, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Reads `HPS_FRAGMENT_MEMO`: memoization is on by default, `0`/`false`/
/// `off`/`no` disable it (used by `ExecConfig`, `SecureServer` and
/// `SessionServer` defaults; `hps run/serve --no-memo` overrides directly).
pub fn memo_enabled_by_default() -> bool {
    match std::env::var("HPS_FRAGMENT_MEMO") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

/// Default bound on cached results per table.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

type Key = (usize, usize, Vec<u8>);

#[derive(Debug, Default)]
struct MemoInner {
    map: HashMap<Key, (Value, u64)>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Key>,
}

/// Bounded content-addressed cache of pure-fragment outcomes.
///
/// Thread-safe: the map sits behind a `Mutex` (fragment execution it
/// short-circuits is far more expensive than the lock), counters are
/// relaxed atomics readable from stats threads.
#[derive(Debug)]
pub struct MemoTable {
    /// `memoizable[component][position]` — fixed at construction from the
    /// effect analysis.
    memoizable: Vec<Vec<bool>>,
    inner: Mutex<MemoInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl MemoTable {
    /// A table for `hidden` with the default capacity, running the effect
    /// analysis to mark the memoizable fragments.
    pub fn for_program(hidden: &HiddenProgram) -> MemoTable {
        MemoTable::with_capacity(hidden, DEFAULT_MEMO_CAPACITY)
    }

    /// A table bounded to `capacity` cached results (clamped to ≥ 1).
    pub fn with_capacity(hidden: &HiddenProgram, capacity: usize) -> MemoTable {
        let effects = FragmentEffects::compute(hidden);
        let memoizable = hidden
            .components
            .iter()
            .enumerate()
            .map(|(c, comp)| {
                (0..comp.fragments.len())
                    .map(|p| effects.effect(c, p).is_some_and(Effect::is_memoizable))
                    .collect()
            })
            .collect();
        MemoTable {
            memoizable,
            inner: Mutex::new(MemoInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether the effect analysis proved the fragment at `(component,
    /// position)` pure. Out-of-range coordinates are not memoizable.
    pub fn is_memoizable(&self, component: usize, position: usize) -> bool {
        self.memoizable
            .get(component)
            .and_then(|c| c.get(position))
            .copied()
            .unwrap_or(false)
    }

    /// Number of fragments the mask marks memoizable.
    pub fn memoizable_count(&self) -> usize {
        self.memoizable
            .iter()
            .map(|c| c.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Looks up a cached outcome, counting a hit on success. Returns
    /// `None` (without counting anything — misses are counted by
    /// [`MemoTable::record_miss`] only after an execution *succeeds*) for
    /// non-memoizable fragments or unseen arguments.
    pub fn lookup(
        &self,
        component: usize,
        position: usize,
        args: &[Value],
    ) -> Option<(Value, u64)> {
        if !self.is_memoizable(component, position) {
            return None;
        }
        let key = (component, position, encode_args(args));
        let inner = self.inner.lock().expect("memo table lock");
        let out = inner.map.get(&key).copied();
        drop(inner);
        if out.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Caches a successful outcome for a memoizable fragment, returning
    /// the number of entries evicted to stay within capacity. No-op for
    /// non-memoizable fragments.
    pub fn insert(
        &self,
        component: usize,
        position: usize,
        args: &[Value],
        value: Value,
        cost: u64,
    ) -> u64 {
        if !self.is_memoizable(component, position) {
            return 0;
        }
        let key = (component, position, encode_args(args));
        let mut inner = self.inner.lock().expect("memo table lock");
        let mut evicted = 0u64;
        if inner.map.insert(key.clone(), (value, cost)).is_none() {
            inner.order.push_back(key);
            while inner.map.len() > self.capacity {
                let Some(old) = inner.order.pop_front() else {
                    break;
                };
                inner.map.remove(&old);
                evicted += 1;
            }
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Counts one memo miss. The server calls this after every
    /// *successful* fragment execution (memoizable or not), so
    /// `hits + misses == fragments_total` reconciles exactly.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Calls answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Successful executions not answered from the table.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached results evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Cached results currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("memo table lock").map.len()
    }

    /// Whether the table holds no cached results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Encodes an argument list exactly like the wire protocol encodes values
/// (`crate::wire`): tag byte + little-endian payload per value. Floats key
/// on their bit pattern, so `-0.0` and `0.0` are distinct keys — sound,
/// merely conservative.
fn encode_args(args: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(args.len() * 9);
    for v in args {
        match *v {
            Value::Int(i) => {
                buf.push(0x00);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(0x01);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Bool(b) => {
                buf.push(0x02);
                buf.push(u8::from(b));
            }
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{
        Block, ComponentId, ComponentKind, Expr, FragLabel, Fragment, HiddenComponent, LocalId, Ty,
    };

    /// One component, no hidden vars, two fragments: L0 pure (`ret p0+p0`),
    /// L1 trapping (`ret p0 / p0`).
    fn pure_and_trap_program() -> HiddenProgram {
        let frag = |label: usize, ret: Expr| Fragment {
            label: FragLabel::new(label),
            params: vec![("p0".into(), Ty::Int)],
            body: Block::of(vec![]),
            ret: Some(ret),
        };
        let mut hidden = HiddenProgram::new();
        hidden.add(HiddenComponent {
            id: ComponentId::new(0),
            kind: ComponentKind::Function {
                func_name: "f".into(),
            },
            vars: vec![],
            fragments: vec![
                frag(
                    0,
                    Expr::binary(
                        hps_ir::BinOp::Add,
                        Expr::local(LocalId::new(0)),
                        Expr::local(LocalId::new(0)),
                    ),
                ),
                frag(
                    1,
                    Expr::binary(
                        hps_ir::BinOp::Div,
                        Expr::local(LocalId::new(0)),
                        Expr::local(LocalId::new(0)),
                    ),
                ),
            ],
        });
        hidden
    }

    #[test]
    fn masks_follow_the_effect_analysis() {
        let t = MemoTable::for_program(&pure_and_trap_program());
        assert!(t.is_memoizable(0, 0));
        assert!(!t.is_memoizable(0, 1), "division may trap");
        assert!(!t.is_memoizable(7, 0), "out of range");
        assert_eq!(t.memoizable_count(), 1);
    }

    #[test]
    fn lookup_insert_roundtrip_counts_hits() {
        let t = MemoTable::for_program(&pure_and_trap_program());
        let args = [Value::Int(21)];
        assert_eq!(t.lookup(0, 0, &args), None);
        t.insert(0, 0, &args, Value::Int(42), 17);
        t.record_miss();
        assert_eq!(t.lookup(0, 0, &args), Some((Value::Int(42), 17)));
        assert_eq!(t.lookup(0, 0, &[Value::Int(2)]), None);
        assert_eq!((t.hits(), t.misses()), (1, 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn non_memoizable_fragments_are_never_cached() {
        let t = MemoTable::for_program(&pure_and_trap_program());
        let args = [Value::Int(3)];
        assert_eq!(t.insert(0, 1, &args, Value::Int(1), 5), 0);
        assert_eq!(t.lookup(0, 1, &args), None);
        assert!(t.is_empty());
        assert_eq!(t.hits(), 0);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let t = MemoTable::with_capacity(&pure_and_trap_program(), 2);
        for i in 0..3 {
            t.insert(0, 0, &[Value::Int(i)], Value::Int(2 * i), 1);
        }
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.len(), 2);
        // The oldest entry is gone, the newer ones answer.
        assert_eq!(t.lookup(0, 0, &[Value::Int(0)]), None);
        assert!(t.lookup(0, 0, &[Value::Int(2)]).is_some());
    }

    #[test]
    fn argument_encoding_distinguishes_types_and_bits() {
        let t = MemoTable::for_program(&pure_and_trap_program());
        t.insert(0, 0, &[Value::Int(1)], Value::Int(2), 1);
        assert_eq!(t.lookup(0, 0, &[Value::Bool(true)]), None);
        assert_eq!(t.lookup(0, 0, &[Value::Float(1.0)]), None);
        t.insert(0, 0, &[Value::Float(0.0)], Value::Int(0), 1);
        assert_eq!(t.lookup(0, 0, &[Value::Float(-0.0)]), None);
    }

    #[test]
    fn env_gate_parses_like_the_vm_gate() {
        // Only exercises the parser on the current (unset) environment;
        // the CI reliability matrix pins the env-var behaviour end to end.
        let _ = memo_enabled_by_default();
    }
}
