//! The traced run's device seam: a transparent [`Device`] wrapper that
//! counts every call into a controller and times a fixed 1-in-[`SAMPLE`]
//! of them, so per-device self time comes from outside `dorado-io` without
//! doubling the cost of the run it measures.
//!
//! The wrapper forwards every trait method — `as_any_mut` included, so
//! `Dorado::device_mut::<T>` downcasts still reach the wrapped controller —
//! and the simulated machine cannot tell it is there (see
//! `tests/transparency.rs`).  Counts live in the wrapper while the machine
//! runs and move to a shared [`Sink`] when the machine drops it.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dorado_base::snap::{Reader, SnapError, Writer};
use dorado_base::{TaskId, Word, MUNCH_WORDS};
use dorado_core::Dorado;
use dorado_io::Device;

/// One call in [`SAMPLE`] is timed, per method.
pub const SAMPLE: u64 = 64;

/// The timed trait methods, in ledger order.
pub const METHODS: [&str; 14] = [
    "tick",
    "tick_span",
    "skip",
    "wakeup",
    "next_due",
    "stable_span",
    "observe_next",
    "notify",
    "input",
    "output",
    "attention",
    "accept_munch",
    "supply_munch",
    "tx_pending",
];
const TICK: usize = 0;
const TICK_SPAN: usize = 1;
const SKIP: usize = 2;

/// What one device did over a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceLedger {
    /// The device's name.
    pub name: String,
    /// Calls per method (every call counted).
    pub calls: [u64; METHODS.len()],
    /// Timed calls per method.
    pub sampled: [u64; METHODS.len()],
    /// Host ns summed over the timed calls, per method.
    pub sampled_ns: [u64; METHODS.len()],
    /// Cycles handed to `tick_span`.
    pub span_cycles: u64,
    /// Cycles folded in by `skip`.
    pub skipped_cycles: u64,
}

impl DeviceLedger {
    /// Real `tick()` calls.
    pub fn ticks(&self) -> u64 {
        self.calls[TICK]
    }

    /// Every call the device received.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Every timed call.
    pub fn total_sampled(&self) -> u64 {
        self.sampled.iter().sum()
    }

    /// Estimated self time in ns: each method's mean timed duration, less
    /// the timer's own reading of an empty span, scaled to all its calls.
    pub fn self_ns(&self, cal: &Calibration) -> f64 {
        (0..METHODS.len())
            .filter(|&i| self.sampled[i] > 0)
            .map(|i| {
                let mean = self.sampled_ns[i] as f64 / self.sampled[i] as f64;
                (mean - cal.empty_span_ns).max(0.0) * self.calls[i] as f64
            })
            .sum()
    }

    /// Host ns the tracing itself added, per the calibration: the
    /// wrapper's cost on every call plus the timer pair on timed calls.
    pub fn overhead_ns(&self, cal: &Calibration) -> f64 {
        self.total_calls() as f64 * cal.wrapper_call_ns
            + self.total_sampled() as f64 * cal.timer_pair_ns
    }

    /// Adds `other`'s counts into `self` (same device on another machine
    /// or another iteration).
    pub fn absorb(&mut self, other: &DeviceLedger) {
        for i in 0..METHODS.len() {
            self.calls[i] += other.calls[i];
            self.sampled[i] += other.sampled[i];
            self.sampled_ns[i] += other.sampled_ns[i];
        }
        self.span_cycles += other.span_cycles;
        self.skipped_cycles += other.skipped_cycles;
    }
}

/// Where dropped wrappers leave their ledgers.
pub type Sink = Arc<Mutex<Vec<DeviceLedger>>>;

/// A new empty sink.
pub fn sink() -> Sink {
    Arc::new(Mutex::new(Vec::new()))
}

/// Drains a sink, summing ledgers by device name (sorted by name).
pub fn drain(sink: &Sink) -> Vec<DeviceLedger> {
    let mut all = std::mem::take(&mut *sink.lock().expect("ledger sink poisoned"));
    all.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out: Vec<DeviceLedger> = Vec::new();
    for l in all {
        match out.last_mut() {
            Some(last) if last.name == l.name => last.absorb(&l),
            _ => out.push(l),
        }
    }
    out
}

#[derive(Debug, Default)]
struct Counters {
    calls: [Cell<u64>; METHODS.len()],
    sampled: [Cell<u64>; METHODS.len()],
    sampled_ns: [Cell<u64>; METHODS.len()],
    span_cycles: Cell<u64>,
    skipped_cycles: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// Counts a call to method `m` and times it if it is the sampled one.
#[inline]
fn timed<R>(c: &Counters, m: usize, f: impl FnOnce() -> R) -> R {
    let n = c.calls[m].get();
    c.calls[m].set(n + 1);
    if !n.is_multiple_of(SAMPLE) {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let dt = t0.elapsed().as_nanos() as u64;
    bump(&c.sampled[m], 1);
    bump(&c.sampled_ns[m], dt);
    r
}

/// The transparent timing wrapper around one attached controller.
#[derive(Debug)]
pub struct TracedDevice {
    inner: Box<dyn Device>,
    c: Counters,
    sink: Sink,
}

impl TracedDevice {
    /// Wraps `inner`; its ledger goes to `sink` when the wrapper drops.
    pub fn new(inner: Box<dyn Device>, sink: Sink) -> Self {
        TracedDevice {
            inner,
            c: Counters::default(),
            sink,
        }
    }

    /// The counts so far.
    fn ledger(&self) -> DeviceLedger {
        let get = |a: &[Cell<u64>; METHODS.len()]| std::array::from_fn(|i| a[i].get());
        DeviceLedger {
            name: self.inner.name().to_string(),
            calls: get(&self.c.calls),
            sampled: get(&self.c.sampled),
            sampled_ns: get(&self.c.sampled_ns),
            span_cycles: self.c.span_cycles.get(),
            skipped_cycles: self.c.skipped_cycles.get(),
        }
    }
}

impl Drop for TracedDevice {
    fn drop(&mut self) {
        let ledger = self.ledger();
        // A poisoned sink means a traced iteration already panicked; that
        // iteration is counted failed, so its ledger may be lost.
        if let Ok(mut s) = self.sink.lock() {
            s.push(ledger);
        }
    }
}

impl Device for TracedDevice {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn task(&self) -> TaskId {
        self.inner.task()
    }
    fn wakeup(&self) -> bool {
        timed(&self.c, 3, || self.inner.wakeup())
    }
    fn observe_next(&mut self) {
        timed(&self.c, 6, || self.inner.observe_next());
    }
    fn notify(&mut self) {
        timed(&self.c, 7, || self.inner.notify());
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
    fn tick(&mut self) {
        timed(&self.c, TICK, || self.inner.tick());
    }
    fn next_due(&self, now: u64) -> Option<u64> {
        timed(&self.c, 4, || self.inner.next_due(now))
    }
    fn skip(&mut self, cycles: u64) {
        bump(&self.c.skipped_cycles, cycles);
        timed(&self.c, SKIP, || self.inner.skip(cycles));
    }
    fn stable_span(&self, now: u64) -> u64 {
        timed(&self.c, 5, || self.inner.stable_span(now))
    }
    fn tick_span(&mut self, n: u64) {
        bump(&self.c.span_cycles, n);
        timed(&self.c, TICK_SPAN, || self.inner.tick_span(n));
    }
    fn input(&mut self, reg: Word) -> Word {
        timed(&self.c, 8, || self.inner.input(reg))
    }
    fn output(&mut self, reg: Word, word: Word) {
        timed(&self.c, 9, || self.inner.output(reg, word));
    }
    fn attention(&self) -> bool {
        timed(&self.c, 10, || self.inner.attention())
    }
    fn accept_munch(&mut self, munch: &[Word; MUNCH_WORDS]) {
        timed(&self.c, 11, || self.inner.accept_munch(munch));
    }
    fn supply_munch(&mut self) -> [Word; MUNCH_WORDS] {
        timed(&self.c, 12, || self.inner.supply_munch())
    }
    fn rx_overruns(&self) -> u64 {
        self.inner.rx_overruns()
    }
    fn tx_pending(&self) -> bool {
        timed(&self.c, 13, || self.inner.tx_pending())
    }
    fn snapshot_save(&self, w: &mut Writer, pending: u64) {
        self.inner.snapshot_save(w, pending);
    }
    fn snapshot_restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.inner.snapshot_restore(r)
    }
}

/// Swaps every named device of `m` for a [`TracedDevice`] reporting to
/// `sink`.  Names the machine lacks are skipped.
pub fn wrap_devices(m: &mut Dorado, names: &[&str], sink: &Sink) {
    for name in names {
        if let Some(slot) = m.io_mut().device_by_name_mut(name) {
            let inner = std::mem::replace(slot, Box::new(Placeholder));
            *slot = Box::new(TracedDevice::new(inner, sink.clone()));
        }
    }
}

/// Occupies a device slot for the instant of a swap.
#[derive(Debug)]
struct Placeholder;

impl Device for Placeholder {
    fn name(&self) -> &str {
        "placeholder"
    }
    fn task(&self) -> TaskId {
        TaskId::EMULATOR
    }
    fn wakeup(&self) -> bool {
        false
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn tick(&mut self) {}
    fn input(&mut self, _reg: Word) -> Word {
        0
    }
    fn output(&mut self, _reg: Word, _word: Word) {}
}

/// The timer and wrapper costs the ledger subtracts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// What a timed span reads when it encloses nothing (ns).
    pub empty_span_ns: f64,
    /// Host cost of one timed span's two clock reads (ns).
    pub timer_pair_ns: f64,
    /// Extra host cost of one call through the wrapper, untimed (ns).
    pub wrapper_call_ns: f64,
}

impl Calibration {
    /// Measures the three costs on this host (about 0.1 s).
    pub fn measure() -> Self {
        const N: u32 = 200_000;
        let mut empty = 0u128;
        let t = Instant::now();
        for _ in 0..N {
            let t0 = Instant::now();
            empty += black_box(t0.elapsed().as_nanos());
        }
        let timer_pair_ns = t.elapsed().as_nanos() as f64 / f64::from(N);
        let empty_span_ns = empty as f64 / f64::from(N);

        // Untimed wrapper calls: the counter bump and the second virtual
        // dispatch, against the bare call.  The sampled calls are excluded
        // by subtracting their share of the timer cost.
        let mut bare: Box<dyn Device> = Box::new(Placeholder);
        let mut wrapped: Box<dyn Device> =
            Box::new(TracedDevice::new(Box::new(Placeholder), sink()));
        let per_call = |d: &mut Box<dyn Device>| {
            let t = Instant::now();
            for _ in 0..N {
                black_box(&mut *d).tick();
                black_box(black_box(&*d).wakeup());
            }
            t.elapsed().as_nanos() as f64 / f64::from(2 * N)
        };
        let mut deltas: Vec<f64> = (0..5)
            .map(|_| per_call(&mut wrapped) - per_call(&mut bare))
            .collect();
        deltas.sort_by(f64::total_cmp);
        let wrapper_call_ns = (deltas[2] - timer_pair_ns / SAMPLE as f64).max(0.0);
        Calibration {
            empty_span_ns,
            timer_pair_ns,
            wrapper_call_ns,
        }
    }
}
