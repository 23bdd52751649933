//! The `desktop` workload: the interactive scenario corpus (`boot_splash`,
//! `editor_storm`, `blit_anim`) round-robin on one pre-assembled suite.
//! One iteration is one scenario.  Its clock starts in the scenario's
//! step-0 hook, after the machine build, and stops when `drive_mode_on`
//! returns its report.  Fingerprint: the per-field frame-hash stream
//! equals the committed golden fixtures.

use std::time::{Duration, Instant};

use dorado_base::Stats;
use dorado_core::ExecMode;
use dorado_emu::scenario::{drive_mode_on, ScenarioKind};
use dorado_emu::{Suite, SuiteBuilder};

use crate::traced::{self, Calibration};
use crate::{micro, stats, Counts, Outcome, SimCounts};

/// The devices the traced run wraps.
pub const DEVICES: [&str; 3] = ["display", "keyboard", "mouse"];

/// Assembles and places the scenario corpus's microcode.
pub fn suite() -> Suite {
    SuiteBuilder::new()
        .with_scenario()
        .with_bitblt()
        .assemble()
        .expect("scenario suite assembles")
}

/// The round-robin order: seed 0 runs the corpus in fixture order, other
/// seeds in one of its six permutations.
pub fn order(seed: u64) -> [ScenarioKind; 3] {
    let [a, b, c] = ScenarioKind::ALL;
    let perms = [
        [a, b, c],
        [a, c, b],
        [b, a, c],
        [b, c, a],
        [c, a, b],
        [c, b, a],
    ];
    if seed == 0 {
        perms[0]
    } else {
        perms[(stats::mix(seed) % 6) as usize]
    }
}

fn fixture_text(kind: ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::BootSplash => include_str!("../../tests/golden_frames/boot_splash.hashes"),
        ScenarioKind::EditorStorm => include_str!("../../tests/golden_frames/editor_storm.hashes"),
        ScenarioKind::BlitAnim => include_str!("../../tests/golden_frames/blit_anim.hashes"),
    }
}

/// The committed golden frame hashes of `kind`.
pub fn golden(kind: ScenarioKind) -> Vec<u64> {
    fixture_text(kind)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| u64::from_str_radix(l, 16).expect("golden fixture holds hex hashes"))
        .collect()
}

/// The fingerprint: `hashes` is exactly the golden stream of `kind`.
pub fn frames_match(kind: ScenarioKind, hashes: &[u64]) -> bool {
    golden(kind) == hashes
}

fn slot(kind: ScenarioKind) -> usize {
    ScenarioKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    Traced,
    Compiled,
    CompiledTraced,
    AlwaysTick,
}

/// What one scenario showed, beyond its frames.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    stats: Stats,
    fields: u64,
    instr_per_scanline: f64,
}

struct Fixture {
    suite: Suite,
    order: [ScenarioKind; 3],
    next: usize,
    reference: [Option<Seen>; 3],
    build_ms: [Vec<f64>; 3],
    sink: traced::Sink,
    fused: (u64, u64),
}

impl Fixture {
    fn new(seed: u64) -> Self {
        Fixture {
            suite: suite(),
            order: order(seed),
            next: 0,
            reference: Default::default(),
            build_ms: std::array::from_fn(|_| crate::sample_vec()),
            sink: traced::sink(),
            fused: (0, 0),
        }
    }

    fn iteration(&mut self, v: Variant) -> Option<(f64, u64)> {
        let kind = self.order[self.next % 3];
        self.next += 1;
        let mode = match v {
            Variant::Compiled | Variant::CompiledTraced => ExecMode::Compiled,
            _ => ExecMode::Interpreted,
        };
        let wrap = matches!(v, Variant::Traced | Variant::CompiledTraced);
        let sink = &self.sink;
        let mut started: Option<Instant> = None;
        let mut stats = Stats::default();
        let mut fused = (0, 0);
        let call = Instant::now();
        let mut build_ns = 0.0;
        let report = drive_mode_on(
            kind,
            &self.suite,
            v == Variant::AlwaysTick,
            mode,
            &mut |step, m| {
                if step == 0 {
                    build_ns = call.elapsed().as_nanos() as f64;
                    if wrap {
                        traced::wrap_devices(m, &DEVICES, sink);
                    }
                    started = Some(Instant::now());
                }
                // The last hook runs after the scenario's final cycle.
                stats = m.stats();
                fused = m.fused_coverage();
            },
        );
        let ns = started.map_or(0.0, |t| t.elapsed().as_nanos() as f64);
        self.build_ms[slot(kind)].push(build_ns / 1e6);
        self.fused = fused;
        let seen = Seen {
            stats,
            fields: report.fields,
            instr_per_scanline: report.instructions_per_scanline(),
        };
        let reference = self.reference[slot(kind)].get_or_insert_with(|| seen.clone());
        let ok = *reference == seen && frames_match(kind, &report.frame_hashes);
        ok.then_some((ns, report.cycles))
    }

    fn setup_s(&self, assemble_ms: f64) -> f64 {
        let builds: f64 = self.build_ms.iter().map(|b| crate::setup_quantile(b)).sum();
        (assemble_ms + builds) / 1e3
    }

    /// Simulated counts over one round of the corpus.  Every iteration of
    /// a scenario, traced and compiled ones included, was checked against
    /// its reference, so these are the counts of every variant.
    fn sim(&self) -> SimCounts {
        let mut counts = Counts::default();
        let mut fields = 0;
        let mut ips = 0.0;
        for s in self.reference.iter().flatten() {
            counts.add(&Counts::of(&s.stats));
            fields += s.fields;
            ips += s.instr_per_scanline;
        }
        let mut sim = counts.sim();
        sim.insert("emu.scenario.fields", fields as f64);
        sim.insert("io.display.instr_per_scanline", ips / 3.0);
        sim
    }

    fn round_cycles(&self) -> u64 {
        self.reference
            .iter()
            .flatten()
            .map(|s| s.stats.cycles)
            .sum()
    }
}

fn assemble_ms() -> f64 {
    crate::setup_ms(crate::SETUP_SAMPLES, suite)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let mut fx = Fixture::new(seed);
    out.notes
        .push(format!("order: {:?}", fx.order.map(ScenarioKind::name)));
    let budget = Duration::from_secs_f64(seconds);
    let mut asm_ns = crate::fast_quantile();
    let samples = crate::measure(&mut out, budget, crate::MIN_ITERS + 1, || {
        asm_ns.push(crate::time_ns(suite));
        fx.iteration(Variant::Plain)
    });
    let assemble = asm_ns.value() as f64 / 1e6;
    out.set_end_to_end(&samples, fx.setup_s(assemble));
    out.notes.push(format!(
        "setup: suite assembly {:.3} ms (of {}) plus the three scenario builds'",
        assemble,
        asm_ns.count()
    ));
    out
}

/// The traced run: the per-layer ledger.  The untraced, traced, compiled
/// and always-tick variants take turns (and, four variants against three
/// scenarios, each variant cycles through every scenario), so they see
/// the same host-speed drift and the same scenario mix.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let cal = Calibration::measure();
    out.set("asm.assemble_ms", assemble_ms());
    let mut fx = Fixture::new(seed);

    let variants = [
        Variant::Plain,
        Variant::Traced,
        Variant::Compiled,
        Variant::AlwaysTick,
    ];
    let per = crate::measure_rotating(&mut out, share(0.75), 12, &variants, |v| fx.iteration(v));
    let [plain, traced_samples, compiled, always] = &per[..] else {
        unreachable!("one sample set per variant")
    };
    let sim = fx.sim();
    out.set_sim(&sim);

    let ledgers = traced::drain(&fx.sink);
    let cycles: u64 = traced_samples.iter().map(|s| s.1).sum();
    let traced_ns: f64 = traced_samples.iter().map(|s| s.0).sum();
    let io = crate::io_metrics(&mut out, &ledgers, cycles, DEVICES.len(), &cal);
    crate::ledger_metrics(
        &mut out,
        traced_ns,
        0.0,
        cycles,
        &io,
        crate::ns_per_cycle(plain),
    );
    out.set("core.compiled.ns_per_cycle", crate::ns_per_cycle(compiled));
    out.set("io.always_tick.ns_per_cycle", crate::ns_per_cycle(always));

    // One more round compiled, then one compiled and traced, for the
    // fused-frame coverage and the display's span share.
    let round = fx.round_cycles() as f64;
    let (mut frames, mut fused_cycles) = (0, 0);
    for _ in 0..3 {
        let ok = fx.iteration(Variant::Compiled).is_some();
        out.check(ok);
        frames += fx.fused.0;
        fused_cycles += fx.fused.1;
    }
    out.set(
        "core.compiled.fused_share",
        stats::ratio(fused_cycles as f64, round),
    );
    out.set(
        "core.compiled.cycles_per_frame",
        stats::ratio(fused_cycles as f64, frames as f64),
    );
    for _ in 0..3 {
        let ok = fx.iteration(Variant::CompiledTraced).is_some();
        out.check(ok);
    }
    let display_span: u64 = traced::drain(&fx.sink)
        .iter()
        .filter(|l| l.name == "display")
        .map(|l| l.span_cycles)
        .sum();
    out.set(
        "io.display.span_share",
        stats::ratio(display_span as f64, round),
    );
    let builds: Vec<f64> = fx.build_ms.concat();
    out.set("emu.build_ms", crate::setup_quantile(&builds));

    let costs = micro::mem_costs(sim["mem.hit_rate"], share(0.2));
    out.set("mem.fetch_ns", costs.fetch_ns);
    out.set("mem.store_ns", costs.store_ns);
    out.set("mem.munch_ns", costs.munch_ns);
    out.notes.push(format!(
        "samples: {} untraced, {} traced, {} compiled, {} always-tick scenarios; \
         calibration {cal:?}",
        plain.len(),
        traced_samples.len(),
        compiled.len(),
        always.len()
    ));
    out
}
