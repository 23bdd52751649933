//! `dorado-perfbench --workload <workstation|desktop|cluster> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, the host context and the
//! fingerprint tally, then, as its last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 if any iteration failed its fingerprint check or a simulated
//! count differed between runs, 2 on bad arguments.

use std::process::ExitCode;

use dorado_perfbench::host::HostMark;
use dorado_perfbench::{cluster, desktop, workstation, Outcome, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Share of a traced `workstation` run given to a `desktop` pass.
const DESKTOP_PASS: f64 = 0.2;

/// The per-layer metrics only the scenario corpus has: no workload of
/// `BENCHMARK.json` runs `desktop`, so the traced `workstation` run ends
/// with a traced `desktop` pass and takes these from it.
const DESKTOP_LAYERS: [&str; 3] = [
    "io.input.ns_per_cycle",
    "io.display.instr_per_scanline",
    "emu.scenario.fields",
];

fn workstation_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = workstation::run_traced(seed, seconds * (1.0 - DESKTOP_PASS));
    let pass = desktop::run_traced(seed, seconds * DESKTOP_PASS);
    out.absorb(pass, "desktop pass", &DESKTOP_LAYERS);
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dorado-perfbench --workload <workstation|desktop|cluster> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("workstation", false) => workstation::run,
        ("workstation", true) => workstation_traced,
        ("desktop", false) => desktop::run,
        ("desktop", true) => desktop::run_traced,
        ("cluster", false) => cluster::run,
        ("cluster", true) => cluster::run_traced,
        (w, _) => {
            eprintln!("error: unknown workload {w:?} (workstation, desktop, cluster)");
            return ExitCode::from(2);
        }
    };
    let mark = HostMark::now();
    let out: Outcome = run(args.seed, args.seconds);
    let host = mark.context_json(out.threads);

    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host {host}");
    for note in &out.notes {
        println!("note {note}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in table {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {name:<40} {v:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    let error_rate = if out.attempted == 0 {
        1.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    println!(
        "error_rate {error_rate} ({} of {} iterations failed their fingerprint check)",
        out.failed, out.attempted
    );
    for m in &out.sim_mismatches {
        println!("sim-invariance FAILED {m}");
    }
    let correct = out.failed == 0 && out.attempted > 0 && out.sim_mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
