//! `perfbench`: the phases of the repository benchmark.
//!
//! `run.py` drives this binary one phase per process, each under its
//! own deadline, and turns the JSON lines it prints into the benchmark's
//! metrics. Every phase calls the program through its public entry
//! points only.
//!
//! ```text
//! perfbench <phase> <workload> [--seed N] [--seconds S]
//!
//! phases:  setup   set-up time, lower quartile of paced set-ups
//!          timed   the measured window (tracing off)
//!          check   oracle, quality and nproc runs (fleets)
//!          scale   FleetSpec::run at 1 and at nproc workers (fleets)
//!          trace   traced replica, bit-checked against the program
//!          probe   scheduler and pool probes at 1 worker (workload: -)
//!          probe_wide  the epoch-batch probe at nproc workers (workload: -)
//! workloads: fleet_homog fleet_diverse serve_mixed paper_sweep
//! ```

mod fleet;
mod probe;
mod replica;
mod serve;
mod sweep;
mod util;

struct Args {
    phase: String,
    workload: String,
    seed: u64,
    seconds: f64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let [phase, workload, rest @ ..] = args else {
        return Err("usage: perfbench <phase> <workload> [--seed N] [--seconds S]".into());
    };
    let mut parsed = Args {
        phase: phase.clone(),
        workload: workload.clone(),
        seed: 1,
        seconds: 20.0,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload.as_str();
    match (a.phase.as_str(), w) {
        ("probe", _) => probe::narrow(),
        ("probe_wide", _) => probe::wide(),
        (phase, "fleet_homog" | "fleet_diverse") => {
            let fleets = fleet::fleets(w, a.seed)?;
            match phase {
                "setup" => fleet::setup(&fleets),
                "timed" => fleet::timed(&fleets, a.seconds),
                "check" => fleet::check(&fleets),
                "scale" => fleet::scale(&fleets),
                "trace" => fleet::trace(&fleets[0]),
                other => Err(format!("no phase {other} for {w}")),
            }
        }
        (phase, "serve_mixed") => match phase {
            "setup" => serve::setup(a.seed),
            "timed" => serve::timed(a.seed, a.seconds),
            "trace" => serve::trace(a.seed, a.seconds),
            other => Err(format!("no phase {other} for {w}")),
        },
        (phase, "paper_sweep") => match phase {
            "setup" => sweep::setup(a.seed),
            "timed" => sweep::timed(a.seed, a.seconds),
            "trace" => sweep::trace(a.seed),
            other => Err(format!("no phase {other} for {w}")),
        },
        (_, other) => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|a| run(&a));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
