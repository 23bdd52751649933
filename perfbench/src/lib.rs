//! The simulator's benchmark: three workloads, end-to-end host-time
//! metrics from untraced runs, and a per-layer ledger from a traced run
//! that times calls into each crate's public functions from outside.
//! See `README.md` in this directory for every metric's meaning.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod desktop;
pub mod host;
pub mod micro;
pub mod stats;
pub mod traced;
pub mod workstation;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dorado_base::Stats;

/// Every end-to-end metric: `(name, unit)`.  Reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("mcps", "Mcycles/s"),
    ("iter_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric: `(name, unit)`.  Reported by traced runs; a
/// layer the workload does not have reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("core.ns_per_cycle", "ns/cycle"),
    ("core.executed_share", "fraction"),
    ("core.held_share", "fraction"),
    ("core.task_switches_per_kcycle", "count/kcycle"),
    ("core.compiled.ns_per_cycle", "ns/cycle"),
    ("core.compiled.fused_share", "fraction"),
    ("core.compiled.cycles_per_frame", "cycles"),
    ("mem.proc_refs_per_kcycle", "count/kcycle"),
    ("mem.ifu_refs_per_kcycle", "count/kcycle"),
    ("mem.fastio_munches_per_kcycle", "count/kcycle"),
    ("mem.storage_refs_per_kcycle", "count/kcycle"),
    ("mem.hit_rate", "fraction"),
    ("mem.fetch_ns", "ns"),
    ("mem.store_ns", "ns"),
    ("mem.munch_ns", "ns"),
    ("ifu.dispatches_per_kcycle", "count/kcycle"),
    ("ifu.fetches_per_kcycle", "count/kcycle"),
    ("ifu.op_ns", "ns"),
    ("io.ns_per_cycle", "ns/cycle"),
    ("io.display.ns_per_cycle", "ns/cycle"),
    ("io.disk.ns_per_cycle", "ns/cycle"),
    ("io.network.ns_per_cycle", "ns/cycle"),
    ("io.input.ns_per_cycle", "ns/cycle"),
    ("io.display.tick_share", "fraction"),
    ("io.skip_share", "fraction"),
    ("io.display.span_share", "fraction"),
    ("io.always_tick.ns_per_cycle", "ns/cycle"),
    ("cluster.exec.run_ms_per_epoch", "ms/epoch"),
    ("cluster.exec.send_ms_per_epoch", "ms/epoch"),
    ("cluster.exec.collect_ms_per_epoch", "ms/epoch"),
    ("cluster.exec.imbalance", "ratio"),
    ("cluster.exec.pool_speedup", "ratio"),
    ("cluster.fabric.send_ns_per_packet", "ns/packet"),
    ("cluster.fabric.collect_ns_per_packet", "ns/packet"),
    ("cluster.fabric.packets_per_epoch", "count/epoch"),
    ("cluster.fabric.drop_share", "fraction"),
    ("cluster.rss_growth_mb_per_kepoch", "MB/kepoch"),
    ("cluster.sim.goodput_rps", "req/s"),
    ("cluster.sim.latency_p50_cycles", "cycles"),
    ("cluster.sim.latency_p99_cycles", "cycles"),
    ("asm.assemble_ms", "ms"),
    ("emu.build_ms", "ms"),
    ("io.display.instr_per_scanline", "count/line"),
    ("emu.scenario.fields", "count"),
    ("trace.overhead_share", "fraction"),
    ("ledger.gap_share", "fraction"),
];

/// Iterations every untraced run holds at least, so its p99 has at least
/// ten samples beyond it.
pub const MIN_ITERS: usize = 1000;

/// Room reserved up front in every per-iteration sample vector, so that
/// `peak_rss_mb` grows with the pages a run's samples touch and not in the
/// steps of a doubling vector, which would make it follow how many
/// iterations the host's speed allowed.
pub const SAMPLE_CAPACITY: usize = 1 << 17;

/// A per-iteration sample vector with [`SAMPLE_CAPACITY`] reserved.
pub fn sample_vec<T>() -> Vec<T> {
    Vec::with_capacity(SAMPLE_CAPACITY)
}

/// The share of fastest iterations whose speed `mcps` reports: of
/// [`MIN_ITERS`] iterations of one kind, 10 lie at or beyond it.
pub const FAST_SHARE: f64 = 0.01;

/// Suite assemblies timed by a traced run for `asm.assemble_ms`
/// (sub-millisecond each).
pub const SETUP_SAMPLES: usize = 41;

/// Samples a [`stats::LowQuantile`] keeps: its [`FAST_SHARE`] quantile
/// stays exact for up to 102,400 samples.
pub const FAST_KEEP: usize = 1024;

/// A stream whose [`FAST_SHARE`] quantile is kept in fixed memory.
pub fn fast_quantile() -> stats::LowQuantile {
    stats::LowQuantile::new(FAST_SHARE, FAST_KEEP)
}

/// No run measures longer than this, whatever `MIN_ITERS` asks.
pub const HARD_CAP: Duration = Duration::from_secs(120);

/// Deterministic simulated counts, by per-layer metric name.  Compared
/// exactly between traced and untraced runs.
pub type SimCounts = BTreeMap<&'static str, f64>;

/// What one benchmark invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations whose fingerprint check failed.
    pub failed: u64,
    /// `(name, value)`; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context lines (sample counts, phases).
    pub notes: Vec<String>,
    /// Simulated counts that differed where they must be identical.
    pub sim_mismatches: Vec<String>,
    /// Worker threads the workload asked for.
    pub threads: usize,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked iteration.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Requires `traced == untraced` for every simulated count.
    pub fn compare_sim(&mut self, what: &str, untraced: &SimCounts, traced: &SimCounts) {
        for (k, v) in untraced {
            let t = traced.get(k);
            if t != Some(v) {
                self.sim_mismatches
                    .push(format!("{what}: {k} untraced {v} vs traced {t:?}"));
            }
        }
        for k in traced.keys().filter(|k| !untraced.contains_key(*k)) {
            self.sim_mismatches
                .push(format!("{what}: {k} only in traced run"));
        }
    }

    /// Takes `other`'s iterations, failures and sim-invariance findings,
    /// its notes under `label`, and its values of `metrics`.
    pub fn absorb(&mut self, other: Outcome, label: &str, metrics: &[&'static str]) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sim_mismatches.extend(other.sim_mismatches);
        self.notes
            .extend(other.notes.into_iter().map(|n| format!("{label}: {n}")));
        for &m in metrics {
            if let Some(&v) = other.metrics.get(m) {
                self.set(m, v);
            }
        }
    }

    /// Copies simulated counts into the metrics.
    pub fn set_sim(&mut self, sim: &SimCounts) {
        for (k, v) in sim {
            self.set(k, *v);
        }
    }

    /// Sets the end-to-end metrics from per-iteration host times and
    /// simulated cycles of the timed region.  The first iteration warms
    /// the allocator and the host caches: it was checked but is not
    /// sampled.
    ///
    /// On a shared host the simulator's speed flips between a fast and a
    /// slow state about 1.8x apart, for a few milliseconds to tens of
    /// seconds at a time, and the slow share of a run varies from run to
    /// run, up to all of it.  A median or a mean follows that share, so it
    /// jumps between runs.  The two gated metrics sit at the two ends
    /// instead: `mcps` is the speed of the fastest [`FAST_SHARE`] of
    /// iterations (the uncontended speed, as a best-of-N gate takes it, but
    /// over many samples), `iter_ms_p99` the slow tail.  Iterations that
    /// simulate the same number of cycles are taken as one kind of work (on `desktop`, one scenario): `mcps`
    /// is the cycles of one iteration of each kind over the sum of the
    /// kinds' [`FAST_SHARE`]-quantile host times, so no kind stands in for
    /// another.  The medians are printed beside them.
    pub fn set_end_to_end(&mut self, iters: &[(f64, u64)], setup_s: f64) {
        let mut kinds: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(ns, cycles) in iters.get(1..).unwrap_or_default() {
            kinds.entry(cycles).or_default().push(ns);
        }
        let kinds = kinds
            .into_iter()
            .map(|(cycles, ns)| (cycles, stats::quantile(&ns, FAST_SHARE)))
            .collect();
        self.end_to_end(iters, kinds, setup_s);
    }

    /// [`Outcome::set_end_to_end`] for a workload whose iterations are
    /// timed in slices as well as whole: `slices[k]` holds the simulated
    /// cycles of the `k`-th slice of every passing iteration after the
    /// first, and the [`FAST_SHARE`] quantile of their host ns.  Every
    /// iteration is the same deterministic run, so each position is one
    /// kind of work for `mcps`.  A slice lasts at most about a millisecond,
    /// so its fast quantile finds the fast host state even in a run that
    /// spends nearly all its time in the slow one; `iter_ms_p99` still
    /// times whole iterations.
    pub fn set_end_to_end_sliced(
        &mut self,
        iters: &[(f64, u64)],
        slices: &[(u64, stats::LowQuantile)],
        setup_s: f64,
    ) {
        let kinds = slices
            .iter()
            .map(|(cycles, ns)| (*cycles, ns.value() as f64))
            .collect();
        self.end_to_end(iters, kinds, setup_s);
    }

    /// `kinds`: per kind of work, the simulated cycles of one piece and the
    /// [`FAST_SHARE`] quantile of the pieces' host ns.
    fn end_to_end(&mut self, iters: &[(f64, u64)], kinds: Vec<(u64, f64)>, setup_s: f64) {
        // Before this function's own vectors add to it.
        self.set("peak_rss_mb", host::peak_rss_mb());
        let iters = iters.get(1..).unwrap_or_default();
        let cycles: u64 = kinds.iter().map(|k| k.0).sum();
        let fast_ns: f64 = kinds.iter().map(|k| k.1).sum();
        self.set("mcps", stats::ratio(cycles as f64 * 1e3, fast_ns));
        let ms: Vec<f64> = iters.iter().map(|&(ns, _)| ns / 1e6).collect();
        self.set("iter_ms_p99", stats::quantile(&ms, 0.99));
        self.set("setup_s", setup_s);
        let rates: Vec<f64> = iters
            .iter()
            .map(|&(ns, cycles)| stats::ratio(cycles as f64 * 1e3, ns))
            .collect();
        self.notes.push(format!(
            "samples: {} timed iterations, {} kind(s) of work for mcps; median {:.4} ms and \
             {:.4} Mcycles/s; p90 {:.4} ms",
            iters.len(),
            kinds.len(),
            stats::median(&ms),
            stats::median(&rates),
            stats::quantile(&ms, 0.9)
        ));
    }
}

/// The core/memory/IFU counts of one or more machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Machine cycles.
    pub cycles: u64,
    /// Executed (not held) microinstructions, all tasks.
    pub executed: u64,
    /// Held cycles, all tasks.
    pub held: u64,
    /// Task switches.
    pub task_switches: u64,
    /// Processor-port cache references and hits.
    pub proc_refs: u64,
    /// Processor-port hits.
    pub proc_hits: u64,
    /// IFU-port cache references.
    pub ifu_refs: u64,
    /// IFU-port hits.
    pub ifu_hits: u64,
    /// Fast-I/O munches.
    pub munches: u64,
    /// Storage references.
    pub storage_refs: u64,
    /// IFU dispatches.
    pub dispatches: u64,
    /// IFU word fetches.
    pub ifu_fetches: u64,
}

impl Counts {
    /// The counts in one machine's statistics.
    pub fn of(s: &Stats) -> Self {
        Counts {
            cycles: s.cycles,
            executed: s.instructions(),
            held: s.held_cycles(),
            task_switches: s.task_switches,
            proc_refs: s.cache.processor.refs,
            proc_hits: s.cache.processor.hits,
            ifu_refs: s.cache.ifu.refs,
            ifu_hits: s.cache.ifu.hits,
            munches: s.fast_io_munches,
            storage_refs: s.storage_refs,
            dispatches: s.ifu.dispatches,
            ifu_fetches: s.ifu.fetches,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.executed += o.executed;
        self.held += o.held;
        self.task_switches += o.task_switches;
        self.proc_refs += o.proc_refs;
        self.proc_hits += o.proc_hits;
        self.ifu_refs += o.ifu_refs;
        self.ifu_hits += o.ifu_hits;
        self.munches += o.munches;
        self.storage_refs += o.storage_refs;
        self.dispatches += o.dispatches;
        self.ifu_fetches += o.ifu_fetches;
    }

    /// Cache hit rate over the processor and IFU ports.
    pub fn hit_rate(&self) -> f64 {
        stats::ratio(
            (self.proc_hits + self.ifu_hits) as f64,
            (self.proc_refs + self.ifu_refs) as f64,
        )
    }

    /// The core, memory and IFU simulated-count metrics.
    pub fn sim(&self) -> SimCounts {
        let c = self.cycles as f64;
        let per_k = |n: u64| stats::ratio(n as f64 * 1e3, c);
        SimCounts::from([
            ("core.executed_share", stats::ratio(self.executed as f64, c)),
            ("core.held_share", stats::ratio(self.held as f64, c)),
            ("core.task_switches_per_kcycle", per_k(self.task_switches)),
            ("mem.proc_refs_per_kcycle", per_k(self.proc_refs)),
            ("mem.ifu_refs_per_kcycle", per_k(self.ifu_refs)),
            ("mem.fastio_munches_per_kcycle", per_k(self.munches)),
            ("mem.storage_refs_per_kcycle", per_k(self.storage_refs)),
            ("mem.hit_rate", self.hit_rate()),
            ("ifu.dispatches_per_kcycle", per_k(self.dispatches)),
            ("ifu.fetches_per_kcycle", per_k(self.ifu_fetches)),
        ])
    }
}

/// Totals over a traced run's device ledgers.
pub struct IoLedger {
    /// Device self time, all devices (ns).
    pub self_ns: f64,
    /// Tracing overhead the calibration attributes to the wrappers (ns).
    pub overhead_ns: f64,
}

/// Sets the `io.*` metrics from `ledgers` and returns their totals.
/// `devices_per_machine` scales the skip share's denominator.
pub fn io_metrics(
    out: &mut Outcome,
    ledgers: &[traced::DeviceLedger],
    cycles: u64,
    devices_per_machine: usize,
    cal: &traced::Calibration,
) -> IoLedger {
    let c = cycles as f64;
    let mut total = IoLedger {
        self_ns: 0.0,
        overhead_ns: 0.0,
    };
    let mut input = 0.0;
    let mut skipped = 0u64;
    for l in ledgers {
        let ns = l.self_ns(cal);
        total.self_ns += ns;
        total.overhead_ns += l.overhead_ns(cal);
        skipped += l.skipped_cycles;
        match l.name.as_str() {
            "display" => {
                out.set("io.display.ns_per_cycle", ns / c);
                out.set("io.display.tick_share", stats::ratio(l.ticks() as f64, c));
            }
            "disk" => out.set("io.disk.ns_per_cycle", ns / c),
            "network" => out.set("io.network.ns_per_cycle", ns / c),
            "keyboard" | "mouse" => input += ns,
            _ => {}
        }
        out.notes.push(format!(
            "ledger {}: {} calls, {} timed, {:.1} ns/cycle self",
            l.name,
            l.total_calls(),
            l.total_sampled(),
            ns / c
        ));
    }
    out.set("io.input.ns_per_cycle", input / c);
    out.set("io.ns_per_cycle", total.self_ns / c);
    out.set(
        "io.skip_share",
        stats::ratio(skipped as f64, c * devices_per_machine as f64),
    );
    total
}

/// Sets `core.ns_per_cycle`, `trace.overhead_share` and `ledger.gap_share`.
/// `traced_ns` is host time inside the traced run calls over `cycles`, of
/// which `other_ns` went to layers timed outside the machines (the cluster
/// fabric and executor phases); `untraced_ns_per_cycle` comes from the same
/// workload untraced.  Core time is what remains of the traced time after
/// the other layers, the devices and the calibrated tracing overhead.
pub fn ledger_metrics(
    out: &mut Outcome,
    traced_ns: f64,
    other_ns: f64,
    cycles: u64,
    io: &IoLedger,
    untraced_ns_per_cycle: f64,
) {
    let c = cycles as f64;
    let traced = traced_ns / c;
    let core = (traced_ns - other_ns - io.self_ns - io.overhead_ns) / c;
    let explained = core + (io.self_ns + other_ns) / c;
    out.set("core.ns_per_cycle", core);
    out.set(
        "trace.overhead_share",
        stats::ratio(traced - untraced_ns_per_cycle, untraced_ns_per_cycle),
    );
    out.set(
        "ledger.gap_share",
        stats::ratio(untraced_ns_per_cycle - explained, untraced_ns_per_cycle),
    );
    out.notes.push(format!(
        "ledger: untraced {untraced_ns_per_cycle:.2} ns/cycle; traced {traced:.2} = core {core:.2} \
         + io {:.2} + fabric/exec {:.2} + calibrated overhead {:.2}",
        io.self_ns / c,
        other_ns / c,
        io.overhead_ns / c
    ));
}

/// The set-up time a run reports from its set-up samples: their
/// [`FAST_SHARE`] quantile.  A set-up lasts well under a millisecond, so
/// each one falls in one host speed state, and a median of them jumps
/// with the slow share of the run as the iteration medians do.
pub fn setup_quantile(samples: &[f64]) -> f64 {
    stats::quantile(samples, FAST_SHARE)
}

/// Host ns of one call of `f`.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> u64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_nanos() as u64
}

/// Times `f` `n` times and returns the [`setup_quantile`] in ms.
pub fn setup_ms<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| time_ns(&mut f) as f64 / 1e6).collect();
    setup_quantile(&samples)
}

/// Whether a measuring loop that started at `start` and has done `done`
/// iterations should run another.
fn keep_going(start: Instant, budget: Duration, done: usize, min: usize) -> bool {
    let spent = start.elapsed();
    spent < HARD_CAP && (spent < budget || done < min)
}

/// Runs checked iterations for `budget` (and at least `min` of them,
/// passing or not): `iter` returns the host ns and simulated cycles of its
/// timed region, or `None` when its fingerprint check failed.  A panicking
/// iteration counts as failed.  Returns the samples of the passing
/// iterations.
pub fn measure(
    out: &mut Outcome,
    budget: Duration,
    min: usize,
    mut iter: impl FnMut() -> Option<(f64, u64)>,
) -> Vec<(f64, u64)> {
    let start = Instant::now();
    let mut samples = sample_vec();
    let mut tries = 0;
    while keep_going(start, budget, tries, min) {
        tries += 1;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut iter));
        let sample = r.ok().flatten();
        out.check(sample.is_some());
        samples.extend(sample);
    }
    samples
}

/// Host ns per simulated cycle over a set of samples.
pub fn ns_per_cycle(samples: &[(f64, u64)]) -> f64 {
    let ns: f64 = samples.iter().map(|s| s.0).sum();
    let cycles: u64 = samples.iter().map(|s| s.1).sum();
    stats::ratio(ns, cycles as f64)
}

/// [`measure`] over several variants of one workload, one iteration of
/// each in turn, so host-speed drift during the run falls on all of them
/// alike.  Returns each variant's samples, in `variants` order.
pub fn measure_rotating<V: Copy>(
    out: &mut Outcome,
    budget: Duration,
    min_each: usize,
    variants: &[V],
    mut iter: impl FnMut(V) -> Option<(f64, u64)>,
) -> Vec<Vec<(f64, u64)>> {
    let mut per: Vec<Vec<(f64, u64)>> = vec![Vec::new(); variants.len()];
    let mut next = 0;
    measure(out, budget, min_each * variants.len(), || {
        let i = next % variants.len();
        next += 1;
        let sample = iter(variants[i]);
        per[i].extend(sample);
        sample
    });
    per
}
